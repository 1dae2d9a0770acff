"""Meta-model invariants: canonicalization, equality, cycle detection, and
the value semantics of every record and mutable value type in dad."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import time
from collections import Counter

import pytest

from dad.compose import ComposeSpec, MountRef, ServiceEntry, ValidationIssue
from dad.consistency import ConsistencyReport, DiffEntry, DiffKind, ReportStats, Verdict, render_report
from dad.dac_emit import DEFAULT_ROLE_TABLE, DacScript, EmitOptions, emit_dac, emit_dot
from dad.dac_ingest import DacAst, DacEdge, DacNode, emit_compose
from dad.errors import CycleError, EmitError, ModelError
from dad.model import (
    ArchModel,
    BuildRef,
    CanonicalForm,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    assert_acyclic,
    canonicalize,
    keyed,
    model_equal,
    record,
)

from specgen import scaled_model


def brute_force_has_cycle(names: list[str], edges: list[tuple[str, str]]) -> bool:
    """Independent oracle: transitive-closure reachability, cycle iff any node reaches itself."""
    reach = {(a, b) for a, b in edges}
    changed = True
    while changed:
        changed = False
        for a, b in list(reach):
            for c, d in list(reach):
                if b == c and (a, d) not in reach:
                    reach.add((a, d))
                    changed = True
    return any((n, n) in reach for n in names)


def services(*names: str) -> tuple[ServiceNode, ...]:
    return tuple(ServiceNode(n) for n in names)


def dep(src: str, dst: str) -> Edge:
    return Edge(EdgeKind.DEPENDENCY, src, dst)


def dblog_model(edge_order: tuple[Edge, ...] | None = None) -> ArchModel:
    edges = edge_order or (
        dep("kafka", "zookeeper"),
        Edge(EdgeKind.LINK, "connect", "zookeeper"),
    )
    return ArchModel(
        title="dblog system",
        services=services("mysql", "connect", "kafka", "zookeeper"),
        edges=edges,
    )


class TestCanonicalize:
    def test_sorts_services(self):
        model = ArchModel(services=services("b", "a"))
        form = canonicalize(model)
        assert [name for name, _ in form.services] == ["a", "b"]

    def test_empty_model_is_empty_form(self):
        assert canonicalize(ArchModel()) == CanonicalForm()

    def test_dblog_edge_permutations_converge(self):
        # Enumerate every edge permutation; all must map to one single output.
        base_edges = dblog_model().edges
        forms = {
            canonicalize(dblog_model(edge_order=perm)).as_text()
            for perm in itertools.permutations(base_edges)
        }
        assert len(forms) == 1

    def test_node_permutation_invariance_bytes(self):
        rng = random.Random(7)
        svc = services("a", "b", "c", "d")
        vols = (VolumeNode("v1"), VolumeNode("v2"))
        nets = (NetworkNode("n1"),)
        edges = (
            dep("a", "b"),
            Edge(EdgeKind.MOUNT, "c", "v1", target="/data"),
            Edge(EdgeKind.ATTACHMENT, "d", "n1"),
        )
        reference = None
        for _ in range(25):
            s, v, e = list(svc), list(vols), list(edges)
            rng.shuffle(s)
            rng.shuffle(v)
            rng.shuffle(e)
            text = canonicalize(
                ArchModel(services=tuple(s), volumes=tuple(v), networks=nets, edges=tuple(e))
            ).as_text()
            if reference is None:
                reference = text
            assert text == reference

    def test_idempotent_on_canonical_forms(self):
        form = canonicalize(dblog_model())
        assert canonicalize(form) == form

    def test_title_and_phantom_flags_do_not_affect_form(self):
        a = ArchModel(title="x", services=(ServiceNode("s"),))
        b = ArchModel(title="y", services=(ServiceNode("s", phantom=True),))
        assert canonicalize(a) == canonicalize(b)

    def test_service_attrs_sorted_by_key(self):
        svc = ServiceNode("s", container_name="c", build=BuildRef("ctx", "Dockerfile"))
        (entry,) = canonicalize(ArchModel(services=(svc,))).services
        keys = [k for k, _ in entry[1]]
        assert keys == sorted(keys)
        assert entry[1] == (
            ("build_context", "ctx"),
            ("build_dockerfile", "Dockerfile"),
            ("container_name", "c"),
        )


class TestKeyed:
    MODEL = ArchModel(
        services=(
            ServiceNode("web", image="nginx", container_name="front"),
            ServiceNode("api", build=BuildRef("./api", "Dockerfile"), container_name="api_main"),
            ServiceNode("db", image="postgres"),
        ),
        volumes=(VolumeNode("data"), VolumeNode("logs")),
        networks=(NetworkNode("back"),),
        edges=(
            dep("web", "api"),
            Edge(EdgeKind.LINK, "web", "api"),
            Edge(EdgeKind.MOUNT, "db", "data"),
            Edge(EdgeKind.MOUNT, "db", "data", target=""),
            Edge(EdgeKind.ATTACHMENT, "api", "back"),
            Edge(EdgeKind.ATTACHMENT, "api", "back"),
        ),
    )

    def test_returns_the_four_tables_as_a_plain_tuple(self):
        tables = keyed(self.MODEL)
        assert type(tables) is tuple and len(tables) == 4
        assert type(keyed(canonicalize(self.MODEL))) is tuple

    def test_services_map_to_their_attribute_pairs_in_script_order(self):
        services = keyed(self.MODEL)[0]
        assert list(services) == ["web", "api", "db"]
        assert services == {
            "web": (("image", "nginx"), ("container_name", "front")),
            "api": (
                ("build_context", "./api"),
                ("build_dockerfile", "Dockerfile"),
                ("container_name", "api_main"),
            ),
            "db": (("image", "postgres"),),
        }

    def test_a_canonical_form_gives_pairs_sorted_by_key(self):
        services = keyed(canonicalize(self.MODEL))[0]
        assert services["web"] == (("container_name", "front"), ("image", "nginx"))
        for name, pairs in keyed(self.MODEL)[0].items():
            assert services[name] == tuple(sorted(pairs))

    def test_volumes_and_networks_map_to_no_pairs(self):
        for tables in (keyed(self.MODEL), keyed(canonicalize(self.MODEL))):
            _, volumes, networks, _ = tables
            assert volumes == {"data": (), "logs": ()}
            assert networks == {"back": ()}

    def test_edges_count_each_repeat_and_tell_no_target_from_an_empty_one(self):
        for tables in (keyed(self.MODEL), keyed(canonicalize(self.MODEL))):
            edges = tables[3]
            assert edges == Counter(
                {
                    ("dependency", "web", "api", None): 1,
                    ("link", "web", "api", None): 1,
                    ("mount", "db", "data", None): 1,
                    ("mount", "db", "data", ""): 1,
                    ("attachment", "api", "back", None): 2,
                }
            )

    def test_a_repeated_node_name_counts_once(self):
        model = ArchModel(
            services=(ServiceNode("a", image="x"), ServiceNode("a", image="x")),
            volumes=(VolumeNode("v"), VolumeNode("v")),
            networks=(NetworkNode("n"), NetworkNode("n")),
        )
        for tables in (keyed(model), keyed(canonicalize(model))):
            services, volumes, networks, _ = tables
            assert (services, volumes, networks) == ({"a": (("image", "x"),)}, {"v": ()}, {"n": ()})

    def test_a_model_and_its_canonical_form_give_the_same_tables(self):
        for model in (self.MODEL, scaled_model(40), ArchModel()):
            services, volumes, networks, edges = keyed(model)
            c_services, c_volumes, c_networks, c_edges = keyed(canonicalize(model))
            assert (volumes, networks, edges) == (c_volumes, c_networks, c_edges)
            assert {name: dict(pairs) for name, pairs in services.items()} == {
                name: dict(pairs) for name, pairs in c_services.items()
            }


class TestModelEqual:
    def test_identity(self):
        m = dblog_model()
        assert model_equal(m, m)

    def test_reordered_services_equal(self):
        m = dblog_model()
        shuffled = ArchModel(
            title=m.title,
            services=tuple(reversed(m.services)),
            edges=m.edges,
        )
        assert model_equal(m, shuffled)

    def test_extra_link_edge_differs(self):
        m = dblog_model()
        extra = ArchModel(
            title=m.title,
            services=m.services,
            edges=m.edges + (Edge(EdgeKind.LINK, "mysql", "connect"),),
        )
        assert canonicalize(m) != canonicalize(extra)
        assert not model_equal(m, extra)


class TestAssertAcyclic:
    def test_chain_ok(self):
        m = ArchModel(services=services("a", "b", "c"), edges=(dep("a", "b"), dep("b", "c")))
        assert_acyclic(m)

    def test_two_cycle_witness(self):
        m = ArchModel(services=services("a", "b"), edges=(dep("a", "b"), dep("b", "a")))
        with pytest.raises(CycleError) as exc:
            assert_acyclic(m)
        assert exc.value.cycle == ["a", "b", "a"]

    def test_self_dependency(self):
        m = ArchModel(services=services("a",), edges=(dep("a", "a"),))
        with pytest.raises(CycleError) as exc:
            assert_acyclic(m)
        assert exc.value.cycle == ["a", "a"]

    def test_witness_is_the_first_cycle_in_model_order(self):
        # Leaf services come first and the later cycle's edges are listed
        # first; the search starts at services in model order, so the witness
        # is the cycle through a, whatever the edge order.
        m = ArchModel(
            services=services("leaf1", "leaf2", "a", "b", "c", "d"),
            edges=(
                dep("c", "d"),
                dep("d", "c"),
                dep("a", "leaf1"),
                dep("a", "b"),
                dep("b", "leaf2"),
                dep("b", "a"),
            ),
        )
        with pytest.raises(CycleError) as exc:
            m.validate()
        assert exc.value.cycle == ["a", "b", "a"]
        assert str(exc.value) == "dependency cycle: a -> b -> a"

    def test_random_dag_of_20_nodes_ok(self):
        rng = random.Random(2024)
        names = [f"s{i}" for i in range(20)]
        # Edges only point to earlier nodes, so the graph is a DAG by construction.
        edges = []
        for i, name in enumerate(names):
            for j in rng.sample(range(i), k=min(i, 3)):
                edges.append(dep(name, names[j]))
        m = ArchModel(services=services(*names), edges=tuple(edges))
        assert not brute_force_has_cycle(names, [(e.src, e.dst) for e in edges])
        assert_acyclic(m)

    def test_agrees_with_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for trial in range(120):
            n = rng.randint(1, 15)
            names = [f"n{i}" for i in range(n)]
            pairs = [
                (a, b)
                for a in names
                for b in names
                if rng.random() < 0.12
            ]
            expected = brute_force_has_cycle(names, pairs)
            m = ArchModel(
                services=services(*names),
                edges=tuple(dep(a, b) for a, b in pairs),
            )
            if expected:
                with pytest.raises(CycleError) as exc:
                    assert_acyclic(m)
                witness = exc.value.cycle
                # The witness must be a real cycle made of dependency edges.
                assert witness[0] == witness[-1] and len(witness) >= 2
                for a, b in zip(witness, witness[1:]):
                    assert (a, b) in set(pairs)
            else:
                assert_acyclic(m)


class TestValidate:
    def test_valid_model_passes(self):
        dblog_model().validate()

    def test_duplicate_service_name_rejected(self):
        with pytest.raises(ModelError, match="duplicate service"):
            ArchModel(services=services("a", "a")).validate()

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError, match="empty name"):
            ArchModel(volumes=(VolumeNode(""),)).validate()

    def test_edge_to_missing_node_rejected(self):
        m = ArchModel(services=services("a"), edges=(dep("a", "ghost"),))
        with pytest.raises(ModelError, match="ghost"):
            m.validate()

    def test_edge_from_an_undeclared_source_rejected(self):
        m = ArchModel(services=(ServiceNode("a", image="x"),), edges=(Edge(EdgeKind.LINK, "ghost", "a"),))
        message = "link edge source 'ghost' is not a declared service"
        with pytest.raises(ModelError) as raised:
            m.validate()
        assert str(raised.value) == message
        for emit in (emit_dac, emit_dot, emit_compose):
            with pytest.raises(EmitError) as raised:
                emit(m)
            assert str(raised.value) == f"refusing to emit invalid model: {message}"

    @pytest.mark.parametrize(
        "edge",
        [
            Edge(EdgeKind.DEPENDENCY, "a", "v"),
            Edge(EdgeKind.LINK, "a", "n"),
            Edge(EdgeKind.MOUNT, "a", "b"),
            Edge(EdgeKind.ATTACHMENT, "a", "v"),
        ],
    )
    def test_edge_endpoint_typing_is_total(self, edge):
        m = ArchModel(
            services=services("a", "b"),
            volumes=(VolumeNode("v"),),
            networks=(NetworkNode("n"),),
            edges=(edge,),
        )
        with pytest.raises(ModelError):
            m.validate()

    def test_mount_edges_accept_target(self):
        m = ArchModel(
            services=services("a"),
            volumes=(VolumeNode("v"),),
            edges=(Edge(EdgeKind.MOUNT, "a", "v", target="/data"),),
        )
        m.validate()

    def test_target_on_non_mount_rejected(self):
        m = ArchModel(
            services=services("a", "b"),
            edges=(Edge(EdgeKind.LINK, "a", "b", target="/data"),),
        )
        with pytest.raises(ModelError, match="target"):
            m.validate()

    def test_image_and_build_conflict_rejected(self):
        svc = ServiceNode("a", image="x", build=BuildRef("."))
        with pytest.raises(ModelError, match="both image and build"):
            ArchModel(services=(svc,)).validate()

    def test_cycle_detected_through_validate(self):
        m = ArchModel(services=services("a", "b"), edges=(dep("a", "b"), dep("b", "a")))
        with pytest.raises(CycleError):
            m.validate()

    def test_cost_is_linear_in_services(self):
        def best_of_3(model: ArchModel) -> float:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                model.validate()
                times.append(time.perf_counter() - start)
            return min(times)

        small, large = best_of_3(scaled_model(200)), best_of_3(scaled_model(4000))
        # 20x the services: linear cost is ~20x
        assert large < 100 * small, (
            f"200 services {small * 1e3:.2f} ms, 4000 services {large * 1e3:.2f} ms"
        )


# One value of each record type and its repr, as the frozen dataclasses these
# types used to be printed it.
RECORDS = {
    "BuildRef": (BuildRef("ctx", "Dockerfile"), "BuildRef(context='ctx', dockerfile='Dockerfile')"),
    "ServiceNode": (
        ServiceNode("web", "nginx"),
        "ServiceNode(name='web', image='nginx', build=None, container_name=None, phantom=False)",
    ),
    "VolumeNode": (VolumeNode("data", phantom=True), "VolumeNode(name='data', phantom=True)"),
    "NetworkNode": (NetworkNode("back"), "NetworkNode(name='back', phantom=False)"),
    "Edge": (
        Edge(EdgeKind.MOUNT, "web", "data", "/var/lib"),
        "Edge(kind=<EdgeKind.MOUNT: 'mount'>, src='web', dst='data', target='/var/lib')",
    ),
    "ArchModel": (
        ArchModel("t", (ServiceNode("web"),), edges=(Edge(EdgeKind.LINK, "web", "db"),)),
        "ArchModel(title='t', services=(ServiceNode(name='web', image=None, build=None, "
        "container_name=None, phantom=False),), volumes=(), networks=(), "
        "edges=(Edge(kind=<EdgeKind.LINK: 'link'>, src='web', dst='db', target=None),))",
    ),
    "CanonicalForm": (
        CanonicalForm(volumes=("v",), edges=(("mount", "web", "v", "/x"),)),
        "CanonicalForm(services=(), volumes=('v',), networks=(), edges=(('mount', 'web', 'v', '/x'),))",
    ),
    "DacNode": (
        DacNode("web", "Server", "web", (("image", "nginx"),), 3),
        "DacNode(ident='web', kind='Server', label='web', annotations=(('image', 'nginx'),), line=3)",
    ),
    "DacEdge": (DacEdge(">>", "web", "db", line=9), "DacEdge(op='>>', src='web', dst='db', annotations=(), line=9)"),
    "DacAst": (
        DacAst("t", "TB", (DacNode("db", "Server", "db"),)),
        "DacAst(title='t', direction='TB', nodes=(DacNode(ident='db', kind='Server', label='db', "
        "annotations=(), line=0),), edges=())",
    ),
    "DiffEntry": (
        DiffEntry(DiffKind.MISSING_NODE, "services.web", left=""),
        "DiffEntry(kind=<DiffKind.MISSING_NODE: 'MissingNode'>, subject='services.web', left='', right=None)",
    ),
    "ReportStats": (ReportStats(1, 2), "ReportStats(left_nodes=1, left_edges=2, right_nodes=0, right_edges=0)"),
    "ConsistencyReport": (
        ConsistencyReport(Verdict.CONSISTENT, notes=("n",)),
        "ConsistencyReport(verdict=<Verdict.CONSISTENT: 'Consistent'>, issues=(), "
        "stats=ReportStats(left_nodes=0, left_edges=0, right_nodes=0, right_edges=0), notes=('n',), error=None)",
    ),
    "EmitOptions": (
        EmitOptions("LR", True, (("db", "data"),)),
        "EmitOptions(direction='LR', group_by_role=True, role_table=(('db', 'data'),))",
    ),
    "DacScript": (DacScript("x"), "DacScript(text='x')"),
    "ValidationIssue": (
        ValidationIssue("EmptyName", "services", "m", "error"),
        "ValidationIssue(code='EmptyName', path='services', message='m', severity='error')",
    ),
}
RECORD_VALUES = [value for value, _ in RECORDS.values()]


def field_values(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__match_args__}


class TestRecords:
    @pytest.mark.parametrize("value, text", RECORDS.values(), ids=RECORDS.keys())
    def test_repr_is_the_dataclass_repr(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value", RECORD_VALUES, ids=RECORDS.keys())
    def test_assignment_raises(self, value):
        for name in type(value).__match_args__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("value", RECORD_VALUES, ids=RECORDS.keys())
    def test_equal_records_hash_equal(self, value):
        fields = field_values(value)
        by_keyword = type(value)(**fields)
        by_position = type(value)(*fields.values())
        assert by_keyword == value and by_position == value
        assert not by_keyword != value
        assert hash(by_keyword) == hash(by_position) == hash(value)
        assert len({value, by_keyword, by_position}) == 1

    @pytest.mark.parametrize("value", RECORD_VALUES, ids=RECORDS.keys())
    def test_equal_only_to_its_own_type(self, value):
        fields = field_values(value)
        plain = tuple(fields.values())
        assert value != plain and plain != value
        assert not value == plain and not plain == value

        @record
        class Twin:
            __annotations__ = dict.fromkeys(fields, "object")

        twin = Twin(*plain)
        assert value != twin and twin != value
        assert not value == twin and not twin == value
        assert value != object() and value != None  # noqa: E711

    def test_nodes_of_different_kinds_differ(self):
        assert VolumeNode("a") != NetworkNode("a")
        assert len({VolumeNode("a"), NetworkNode("a")}) == 2
        edge = Edge(EdgeKind.LINK, "a", "b")
        assert edge != (EdgeKind.LINK, "a", "b", None)
        assert edge not in {(EdgeKind.LINK, "a", "b", None)}

    @pytest.mark.parametrize("value", RECORD_VALUES, ids=RECORDS.keys())
    def test_copy_and_pickle_keep_the_value(self, value):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is type(value)
            assert other == value and repr(other) == repr(value)

    def test_defaults_and_keywords(self):
        assert ServiceNode("a") == ServiceNode(name="a", image=None, build=None, container_name=None, phantom=False)
        assert BuildRef(".").dockerfile is None
        assert Edge(EdgeKind.LINK, "a", "b").target is None
        assert ArchModel() == ArchModel("system", (), (), (), ())
        assert CanonicalForm() == CanonicalForm((), (), (), ())
        assert DacNode("a", "Server", "a") == DacNode("a", "Server", "a", annotations=(), line=0)
        assert DacAst("t", "LR").nodes == () and DacAst("t", "LR").edges == ()
        assert ReportStats() == ReportStats(0, 0, 0, 0)
        report = ConsistencyReport(Verdict.INVALID, error="e")
        assert (report.issues, report.stats, report.notes, report.error) == ((), ReportStats(), (), "e")
        assert EmitOptions() == EmitOptions(direction="TB", group_by_role=False, role_table=DEFAULT_ROLE_TABLE)
        with pytest.raises(TypeError):
            Edge(EdgeKind.LINK, "a")
        with pytest.raises(TypeError):
            ServiceNode("a", color="red")

    def test_record_refuses_a_check_it_would_never_run(self):
        with pytest.raises(TypeError, match="^Checked: records run no __post_init__"):

            @record
            class Checked:
                a: int

                def __post_init__(self):
                    raise ValueError("never runs")

    def test_record_refuses_a_required_field_after_a_default(self):
        with pytest.raises(TypeError, match="without a default"):

            @record
            class Bad:
                a: int = 0
                b: int

    @pytest.mark.parametrize(
        "kind, left, right",
        [
            (DiffKind.MISSING_NODE, None, None),
            (DiffKind.MISSING_EDGE, "x", "y"),
            (DiffKind.EXTRA_NODE, "x", None),
            (DiffKind.EXTRA_EDGE, "x", "y"),
            (DiffKind.ATTRIBUTE_MISMATCH, "x", None),
            (DiffKind.ATTRIBUTE_MISMATCH, None, "y"),
        ],
    )
    def test_diff_entry_with_the_wrong_sides_raises(self, kind, left, right):
        # built unchecked; the report refuses it, in both formats
        for entry in (DiffEntry(kind, "s", left, right), DiffEntry(kind=kind, subject="s", left=left, right=right)):
            assert (entry.left, entry.right) == (left, right)
            report = ConsistencyReport(Verdict.INCONSISTENT, issues=(entry,))
            for fmt in ("text", "machine"):
                with pytest.raises(ValueError, match=f"{kind.value} entry has the wrong value sides"):
                    render_report(report, fmt)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"direction": "BT"}, "direction must be TB or LR"),
            ({"role_table": (("", "data"),)}, "substrings must be nonempty"),
            ({"role_table": (("db", ""),)}, "roles must be nonempty"),
        ],
    )
    def test_bad_emit_options_raise(self, kwargs, message):
        # built unchecked; both emitters refuse them
        opts = EmitOptions(**kwargs)
        for emit in (emit_dac, emit_dot):
            with pytest.raises(EmitError, match=message):
                emit(ArchModel(), opts)

    def test_make_and_replace_run_the_check(self):
        # the values they build are checked where they are read
        with pytest.raises(EmitError, match="direction must be TB or LR"):
            emit_dac(ArchModel(), EmitOptions()._replace(direction="XX"))
        with pytest.raises(EmitError, match="roles must be nonempty"):
            emit_dot(ArchModel(), EmitOptions._make(("TB", False, (("db", ""),))))
        for entry in (
            DiffEntry._make((DiffKind.MISSING_EDGE, "s", None, None)),
            DiffEntry(DiffKind.MISSING_EDGE, "s", "x")._replace(right="y"),
        ):
            with pytest.raises(ValueError, match="wrong value sides"):
                render_report(ConsistencyReport(Verdict.INCONSISTENT, issues=(entry,)))
        entry = DiffEntry(DiffKind.MISSING_EDGE, "s", "x")
        assert entry._replace(left="y") == DiffEntry(DiffKind.MISSING_EDGE, "s", "y")
        assert DiffEntry._make(entry) == entry
        assert EmitOptions()._replace(direction="LR") == EmitOptions("LR")
        with pytest.raises(TypeError, match="Expected 4 arguments, got 2"):
            DiffEntry._make((DiffKind.MISSING_EDGE, "s"))
        with pytest.raises(ValueError, match="unexpected field names"):
            entry._replace(middle="m")


class TestMutableValues:
    def test_repr_and_equality_are_field_by_field(self):
        entry = ServiceEntry(image="nginx", depends_on=["db"])
        assert repr(MountRef("data", "/x")) == "MountRef(volume='data', target='/x')"
        assert repr(entry) == (
            "ServiceEntry(image='nginx', build=None, container_name=None, "
            "depends_on=['db'], links=[], volumes=[], networks=[])"
        )
        assert repr(ComposeSpec(volumes=["v"])) == "ComposeSpec(services={}, volumes=['v'], networks=[], residue={})"
        assert entry == ServiceEntry("nginx", None, None, ["db"])
        assert entry != ServiceEntry(image="nginx")
        assert MountRef("a", "/x") == MountRef(volume="a", target="/x") != MountRef("a", "/y")
        assert ComposeSpec() == ComposeSpec({}, [], [], {})
        assert MountRef("a", "/x") != ("a", "/x")
        entry.image = "httpd"  # mutable, so unhashable
        assert entry.image == "httpd"
        with pytest.raises(TypeError):
            hash(entry)

    def test_fresh_containers_per_instance(self):
        first, second = ServiceEntry(), ServiceEntry()
        for name in ("depends_on", "links", "volumes", "networks"):
            assert getattr(first, name) is not getattr(second, name)
        first.links.append("db")
        assert second.links == []
        spec_a, spec_b = ComposeSpec(), ComposeSpec()
        for name in ("services", "volumes", "networks", "residue"):
            assert getattr(spec_a, name) is not getattr(spec_b, name)
        spec_a.residue[("x",)] = 1
        assert spec_b.residue == {}

    def test_copy_and_pickle_keep_the_value(self):
        spec = ComposeSpec(services={"web": ServiceEntry(volumes=[MountRef("v", "/x")])}, volumes=["v"])
        for other in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert other == spec
