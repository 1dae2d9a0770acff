"""Round-trip verification and structural diff tests."""

import itertools
import random
import textwrap
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dad import consistency
from dad import model as model_module
from dad.consistency import (
    _KIND_ORDER,
    ConsistencyReport,
    DiffEntry,
    DiffKind,
    Verdict,
    _diff_named_section,
    check_diagram_against_descriptor,
    compare_models,
    diff_models,
    render_report,
    round_trip_check,
)
from dad.compose import lower, parse_compose
from dad.dac_emit import emit_dac
from dad.dac_ingest import lift, parse_dac
from dad.model import (
    ArchModel,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    canonicalize,
    model_equal,
)

from specgen import doc_to_yaml, gen_descriptor_doc, gen_model, mutate_model, perfbench_gen

# Script fragment whose declarations for zookeeper were torn off, paired with
# a descriptor fragment that knows nothing about the messaging services.
PARTIAL_SCRIPT = (
    'with DaC("dblog system", direction="TB"):\n'
    '  with Cluster("mysql service"):\n'
    '    mysql = Server("mysql")\n'
    '  with Cluster("dblog service"):\n'
    '    connect = Server("connect")\n'
    '  with Cluster("kafka service"):\n'
    '    kafka = Server("kafka")\n'
    "  kafka >> zookeeper\n"
    "  connect - zookeeper\n"
)

FRAGMENT_DESCRIPTOR = textwrap.dedent(
    """\
    services:
      mysql:
        image: mysql
      dblog:
        build:
          context: api
          dockerfile: Dockerfile
        container_name: dblog
        depends_on:
          - mysql
          - postgres
    """
)

WEB_STACK = textwrap.dedent(
    """\
    services:
      web:
        image: nginx:1.25
        ports:
          - "80:80"
        depends_on:
          - api
      api:
        image: python:3.11
        volumes:
          - data:/var/lib/data
    volumes:
      data:
    """
)


def with_extra_service(model: ArchModel, name: str) -> ArchModel:
    return ArchModel(
        title=model.title,
        services=model.services + (ServiceNode(name, image="busybox"),),
        volumes=model.volumes,
        networks=model.networks,
        edges=model.edges,
    )


class TestDiffModels:
    def test_identity(self):
        model = gen_model(random.Random(1))
        assert diff_models(model, model) == []

    def test_order_differences_are_invisible(self):
        model = ArchModel(
            services=(ServiceNode("a", image="x"), ServiceNode("b", image="y")),
            edges=(Edge(EdgeKind.LINK, "a", "b"), Edge(EdgeKind.LINK, "b", "a")),
        )
        shuffled = ArchModel(
            services=tuple(reversed(model.services)),
            edges=tuple(reversed(model.edges)),
        )
        assert diff_models(model, shuffled) == []

    def test_extra_node(self):
        model = gen_model(random.Random(2))
        bigger = with_extra_service(model, "state")
        assert diff_models(model, bigger) == [
            DiffEntry(DiffKind.EXTRA_NODE, "services.state", right="image=busybox")
        ]

    def test_mount_target_difference_is_one_attribute_mismatch(self):
        base = dict(
            services=(ServiceNode("app", image="x"),),
            volumes=(VolumeNode("data"),),
        )
        left = ArchModel(edges=(Edge(EdgeKind.MOUNT, "app", "data", target="/a"),), **base)
        right = ArchModel(edges=(Edge(EdgeKind.MOUNT, "app", "data", target="/b"),), **base)
        assert diff_models(left, right) == [
            DiffEntry(
                DiffKind.ATTRIBUTE_MISMATCH, "edges.mount.app->data.target", left="/a", right="/b"
            )
        ]

    def test_attribute_present_on_one_side_only(self):
        left = ArchModel(services=(ServiceNode("mysql", image="mysql"),))
        right = ArchModel(services=(ServiceNode("mysql"),))
        assert diff_models(left, right) == [
            DiffEntry(DiffKind.ATTRIBUTE_MISMATCH, "services.mysql.image", left="mysql", right="")
        ]

    def test_empty_attribute_differs_from_an_absent_one(self):
        left = ArchModel(services=(ServiceNode("app", image=""), ServiceNode("db", image="pg")))
        right = ArchModel(services=(ServiceNode("app"), ServiceNode("db", image="pg")))
        assert not model_equal(left, right)
        assert diff_models(left, right) == [
            DiffEntry(DiffKind.ATTRIBUTE_MISMATCH, "services.app.image", left="", right="")
        ]
        assert diff_models(right, left) == diff_models(left, right)
        blank_name = ArchModel(services=(ServiceNode("app", image="x", container_name=""),))
        assert diff_models(ArchModel(services=(ServiceNode("app", image="x"),)), blank_name) == [
            DiffEntry(DiffKind.ATTRIBUTE_MISMATCH, "services.app.container_name", left="", right="")
        ]

    def test_empty_image_in_descriptors_and_scripts_is_inconsistent(self):
        blank = lower(parse_compose('services: {app: {image: ""}, db: {image: pg}}\n'))
        absent = lower(parse_compose("services: {app: {}, db: {image: pg}}\n"))
        report = compare_models(blank, absent)
        assert report.verdict is Verdict.INCONSISTENT
        assert [(e.kind, e.subject) for e in report.issues] == [
            (DiffKind.ATTRIBUTE_MISMATCH, "services.app.image")
        ]
        script = 'with DaC("t", direction="TB"):\n  with Cluster("app service"):\n    app = Server("app"){}\n'
        blank_script = lift(parse_dac(script.format("  # image=")))
        absent_script = lift(parse_dac(script.format("")))
        assert compare_models(blank_script, absent_script).verdict is Verdict.INCONSISTENT
        assert compare_models(blank_script, lower(parse_compose('services: {app: {image: ""}}\n'))).issues == ()

    def test_edge_multiplicity_counts(self):
        base = dict(services=(ServiceNode("a", image="x"), ServiceNode("b", image="y")))
        left = ArchModel(
            edges=(Edge(EdgeKind.LINK, "a", "b"), Edge(EdgeKind.LINK, "a", "b")), **base
        )
        right = ArchModel(edges=(Edge(EdgeKind.LINK, "a", "b"),), **base)
        assert diff_models(left, right) == [
            DiffEntry(DiffKind.MISSING_EDGE, "edges.link.a->b", left="")
        ]

    def test_entries_sorted_by_kind_then_subject(self):
        left = lower(parse_compose(FRAGMENT_DESCRIPTOR))
        right = ArchModel(services=(ServiceNode("zz", image="x"),))
        kinds = [e.kind for e in diff_models(left, right)]
        assert kinds == sorted(kinds, key=lambda k: list(DiffKind).index(k))

    def test_mutation_completeness(self):
        rng = random.Random(42)
        expected = {
            "add_node": DiffKind.EXTRA_NODE,
            "remove_node": DiffKind.MISSING_NODE,
            "add_edge": DiffKind.EXTRA_EDGE,
            "remove_edge": DiffKind.MISSING_EDGE,
            "change_attr": DiffKind.ATTRIBUTE_MISMATCH,
        }
        seen = set()
        for _ in range(80):
            model = gen_model(rng)
            mutant, op = mutate_model(rng, model)
            entries = diff_models(model, mutant)
            assert len(entries) == 1, (op, entries)
            assert entries[0].kind is expected[op]
            seen.add(op)
        assert seen == set(expected)

    def test_symmetry(self):
        mirror_kind = {
            DiffKind.MISSING_NODE: DiffKind.EXTRA_NODE,
            DiffKind.EXTRA_NODE: DiffKind.MISSING_NODE,
            DiffKind.MISSING_EDGE: DiffKind.EXTRA_EDGE,
            DiffKind.EXTRA_EDGE: DiffKind.MISSING_EDGE,
            DiffKind.ATTRIBUTE_MISMATCH: DiffKind.ATTRIBUTE_MISMATCH,
        }
        rng = random.Random(17)
        for _ in range(30):
            a = gen_model(rng)
            b, _ = mutate_model(rng, a)
            mirrored = [
                DiffEntry(mirror_kind[e.kind], e.subject, left=e.right, right=e.left)
                for e in diff_models(a, b)
            ]
            mirrored.sort(key=lambda e: (list(DiffKind).index(e.kind), e.subject))
            assert mirrored == diff_models(b, a)


class TestRoundTripCheck:
    def test_clean_stack_is_consistent(self):
        report = round_trip_check(WEB_STACK)
        assert report.verdict is Verdict.CONSISTENT
        assert report.issues == ()
        assert report.stats.left_nodes == 3 and report.stats.right_nodes == 3
        assert any("services.web.ports" in note for note in report.notes)

    def test_empty_services_is_consistent(self):
        assert round_trip_check("services: {}\n").verdict is Verdict.CONSISTENT

    def test_broken_yaml_is_invalid_not_raised(self):
        report = round_trip_check("services: [unclosed\n")
        assert report.verdict is Verdict.INVALID
        assert report.error

    def test_strict_dangling_reference_is_invalid(self):
        text = "services:\n  a:\n    image: x\n    depends_on: [ghost]\n"
        strict = round_trip_check(text, strict=True)
        assert strict.verdict is Verdict.INVALID
        assert "DanglingReference" in strict.error and "ghost" in strict.error
        assert round_trip_check(text).verdict is Verdict.CONSISTENT

    def test_cycle_is_invalid_with_witness(self):
        text = (
            "services:\n"
            "  a:\n    image: x\n    depends_on: [b]\n"
            "  b:\n    image: y\n    depends_on: [a]\n"
        )
        report = round_trip_check(text)
        assert report.verdict is Verdict.INVALID
        assert "cycle" in report.error and "a -> b -> a" in report.error

    def test_random_specs_are_sound(self):
        rng = random.Random(31)
        for _ in range(50):
            text = doc_to_yaml(gen_descriptor_doc(rng))
            report = round_trip_check(text)
            assert report.verdict is Verdict.CONSISTENT, (text, report)

    def test_residue_never_affects_verdict(self):
        bare = "services:\n  web:\n    image: nginx\n"
        noisy = bare + "    ports: ['80:80']\n    environment:\n      SECRET: hunter2\n"
        assert round_trip_check(bare).verdict is Verdict.CONSISTENT
        report = round_trip_check(noisy)
        assert report.verdict is Verdict.CONSISTENT
        assert len(report.notes) == 2


class TestCheckPair:
    def test_generated_diagram_matches_its_descriptor(self):
        rng = random.Random(33)
        for _ in range(30):
            text = doc_to_yaml(gen_descriptor_doc(rng))
            script = emit_dac(lower(parse_compose(text))).text
            report = check_diagram_against_descriptor(script, text)
            assert report.verdict is Verdict.CONSISTENT, (text, report)

    def test_extra_diagram_node_reports_extra_node(self):
        model = lower(parse_compose(WEB_STACK))
        script = emit_dac(with_extra_service(model, "state")).text
        report = check_diagram_against_descriptor(script, WEB_STACK)
        assert report.verdict is Verdict.INCONSISTENT
        assert [e.kind for e in report.issues] == [DiffKind.EXTRA_NODE]
        assert report.issues[0].subject == "services.state"

    def test_empty_pair_is_consistent(self):
        script = 'with DaC("t", direction="TB"):\n  pass\n'
        report = check_diagram_against_descriptor(script, "services: {}\n")
        assert report.verdict is Verdict.CONSISTENT

    def test_torn_fragment_pair_full_diff(self):
        report = check_diagram_against_descriptor(PARTIAL_SCRIPT, FRAGMENT_DESCRIPTOR)
        assert report.verdict is Verdict.INCONSISTENT
        assert list(report.issues) == [
            DiffEntry(
                DiffKind.MISSING_NODE,
                "services.dblog",
                left="build_context=api,build_dockerfile=Dockerfile,container_name=dblog",
            ),
            DiffEntry(DiffKind.MISSING_NODE, "services.postgres", left=""),
            DiffEntry(DiffKind.EXTRA_NODE, "services.connect", right=""),
            DiffEntry(DiffKind.EXTRA_NODE, "services.kafka", right=""),
            DiffEntry(DiffKind.EXTRA_NODE, "services.zookeeper", right=""),
            DiffEntry(DiffKind.MISSING_EDGE, "edges.dependency.dblog->mysql", left=""),
            DiffEntry(DiffKind.MISSING_EDGE, "edges.dependency.dblog->postgres", left=""),
            DiffEntry(DiffKind.EXTRA_EDGE, "edges.dependency.kafka->zookeeper", right=""),
            DiffEntry(DiffKind.EXTRA_EDGE, "edges.link.connect->zookeeper", right=""),
            DiffEntry(
                DiffKind.ATTRIBUTE_MISMATCH, "services.mysql.image", left="mysql", right=""
            ),
        ]

    def test_strict_mode_rejects_partial_script(self):
        report = check_diagram_against_descriptor(
            PARTIAL_SCRIPT, FRAGMENT_DESCRIPTOR, strict=True
        )
        assert report.verdict is Verdict.INVALID

    def test_cyclic_descriptor_is_invalid_beside_an_acyclic_script(self):
        cyclic = (
            "services:\n"
            "  api:\n    image: x\n    depends_on: [worker]\n"
            "  worker:\n    image: y\n    depends_on: [api]\n"
        )
        acyclic = cyclic.replace("    depends_on: [api]\n", "")
        script = emit_dac(lower(parse_compose(acyclic))).text
        report = check_diagram_against_descriptor(script, cyclic)
        assert report.verdict is Verdict.INVALID
        assert report.error == "dependency cycle: api -> worker -> api"

    def test_broken_script_is_invalid(self):
        report = check_diagram_against_descriptor("nope\n", "services: {}\n")
        assert report.verdict is Verdict.INVALID
        assert "header" in report.error


class TestRenderReport:
    def test_text_format(self):
        report = check_diagram_against_descriptor(PARTIAL_SCRIPT, FRAGMENT_DESCRIPTOR)
        text = render_report(report, "text")
        assert text.startswith("verdict: Inconsistent\n")
        assert "issues (10):" in text
        assert "  MissingNode services.dblog" in text
        assert "AttributeMismatch services.mysql.image (left: 'mysql', right: '')" in text

    def test_machine_format(self):
        report = check_diagram_against_descriptor(PARTIAL_SCRIPT, FRAGMENT_DESCRIPTOR)
        lines = render_report(report, "machine").splitlines()
        assert lines[0] == "verdict\tInconsistent"
        assert lines[1] == "stats\t3\t2\t4\t2"
        assert lines[2].split("\t") == [
            "MissingNode",
            "services.dblog",
            "build_context=api,build_dockerfile=Dockerfile,container_name=dblog",
            "",
        ]
        assert len([l for l in lines if l.split("\t")[0] in {k.value for k in DiffKind}]) == 10

    def test_invalid_report_shows_error(self):
        report = round_trip_check("services: [broken\n")
        text = render_report(report, "text")
        assert "verdict: Invalid" in text and "error:" in text
        machine = render_report(report, "machine")
        assert any(line.startswith("error\t") for line in machine.splitlines())

    def test_notes_rendered_in_both_formats(self):
        report = round_trip_check(WEB_STACK)
        assert "note: residue excluded from diagram: services.web.ports" in render_report(
            report, "text"
        )
        assert "note\tresidue excluded from diagram: services.web.ports" in render_report(
            report, "machine"
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(ConsistencyReport(Verdict.CONSISTENT), "json")

    def test_reports_are_deterministic(self):
        left = render_report(check_diagram_against_descriptor(PARTIAL_SCRIPT, FRAGMENT_DESCRIPTOR))
        right = render_report(check_diagram_against_descriptor(PARTIAL_SCRIPT, FRAGMENT_DESCRIPTOR))
        assert left == right


# The value sides, (left, right), each kind of entry carries
ENTRY_SIDES = {
    DiffKind.MISSING_NODE: (True, False),
    DiffKind.MISSING_EDGE: (True, False),
    DiffKind.EXTRA_NODE: (False, True),
    DiffKind.EXTRA_EDGE: (False, True),
    DiffKind.ATTRIBUTE_MISMATCH: (True, True),
}


def assert_sided(entries: list[DiffEntry], seen: Counter) -> None:
    for entry in entries:
        assert (entry.left is not None, entry.right is not None) == ENTRY_SIDES[entry.kind], entry
        seen[entry.kind] += 1


class TestDiffEntrySides:
    """diff_models, the only producer of entries, gives each kind exactly its sides."""

    def test_specgen_pairs(self):
        seen = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            left = gen_model(rng)
            right = mutate_model(rng, left)[0] if rng.random() < 0.7 else gen_model(rng)
            for a, b in ((left, right), (right, left)):
                assert_sided(diff_models(a, b), seen)
                assert_sided(diff_models(canonicalize(a), b), seen)
        assert set(seen) == set(DiffKind)

    def test_drift_pairs(self):
        gen = perfbench_gen()
        seen = Counter()
        for seed, share in itertools.product(range(3), (0.1, 0.5)):
            pair = gen.drift_pair(random.Random(seed), 40, share)
            old, new = lift(parse_dac(pair.old)), lift(parse_dac(pair.new))
            assert_sided(diff_models(old, new), seen)
            assert_sided(diff_models(new, old), seen)
        assert set(seen) == set(DiffKind)


@pytest.mark.parametrize("depth", [5000, 100000])
def test_deep_nesting_is_invalid_not_a_crash(depth):
    report = round_trip_check("a: " + "[" * depth + "]" * depth + "\n")
    assert report.verdict is Verdict.INVALID
    assert "nesting too deep" in report.error


ILL_TYPED_SCALARS = [
    "a: !!int 'abc'\n",
    "a: !!float 'x'\n",
    "a: !!bool 'maybe'\n",
    "a: !!timestamp 'x'\n",
    "a: !!int\n",
    "a: !!timestamp 2001-02-30\n",
    "a: !!map x\n",
    "a: !!seq x\n",
    "a: !!set x\n",
    "a: !!omap x\n",
]


@pytest.mark.parametrize("text", ILL_TYPED_SCALARS)
def test_ill_typed_tagged_scalar_is_invalid_not_a_crash(yaml_backend, text):
    report = round_trip_check(text)
    assert report.verdict is Verdict.INVALID
    assert report.error.endswith("(line 1, col 4)")


def reference_diff_models(left: ArchModel, right: ArchModel) -> list[DiffEntry]:
    """The original diff_models, which rescans every leftover edge per key.

    A mount with no target (None) sorts before every target and prints as ''.
    """
    ca, cb = canonicalize(left), canonicalize(right)
    entries: list[DiffEntry] = []

    _diff_named_section("services", dict(ca.services), dict(cb.services), entries)
    _diff_named_section(
        "volumes", {n: () for n in ca.volumes}, {n: () for n in cb.volumes}, entries
    )
    _diff_named_section(
        "networks", {n: () for n in ca.networks}, {n: () for n in cb.networks}, entries
    )

    left_edges, right_edges = Counter(ca.edges), Counter(cb.edges)
    exact = left_edges & right_edges
    left_rest, right_rest = left_edges - exact, right_edges - exact
    keys = {e[:3] for e in left_rest} | {e[:3] for e in right_rest}

    def order(edge):
        return edge[:3], edge[3] is not None, edge[3] or ""

    lt = sorted(left_rest.elements(), key=order)
    rt = sorted(right_rest.elements(), key=order)
    for kind, src, dst in sorted(keys):
        subject = f"edges.{kind}.{src}->{dst}"
        l_targets = [e[3] or "" for e in lt if e[:3] == (kind, src, dst)]
        r_targets = [e[3] or "" for e in rt if e[:3] == (kind, src, dst)]
        paired = min(len(l_targets), len(r_targets))
        for lv, rv in zip(l_targets[:paired], r_targets[:paired]):
            entries.append(
                DiffEntry(DiffKind.ATTRIBUTE_MISMATCH, f"{subject}.target", left=lv, right=rv)
            )
        for lv in l_targets[paired:]:
            entries.append(DiffEntry(DiffKind.MISSING_EDGE, subject, left=lv))
        for rv in r_targets[paired:]:
            entries.append(DiffEntry(DiffKind.EXTRA_EDGE, subject, right=rv))

    entries.sort(key=lambda e: (_KIND_ORDER[e.kind], e.subject))
    return entries


# "a->b" - "c" and "a" - "b->c" share the subject edges.link.a->b->c
TRICKY_NAMES = ["a", "b", "c", "a->b", "b->c", "db", "web"]
TARGETS = ["/a", "/b", "/a:b", "", "/data"]


def random_side(rng: random.Random) -> ArchModel:
    """A model with duplicate edges and several mounts of one (src, dst); not validated."""
    services = tuple(
        ServiceNode(name, image=rng.choice(["x", "y", None]))
        for name in rng.sample(TRICKY_NAMES, rng.randint(1, len(TRICKY_NAMES)))
    )
    volumes = tuple(VolumeNode(n) for n in rng.sample(["v", "w", "a->b"], rng.randint(0, 3)))
    networks = tuple(NetworkNode(n) for n in rng.sample(["n", "m"], rng.randint(0, 2)))
    edges = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.choice(list(EdgeKind))
        src, dst = rng.choice(TRICKY_NAMES), rng.choice(TRICKY_NAMES + ["v", "w", "n"])
        target = rng.choice(TARGETS) if kind is EdgeKind.MOUNT else None
        edges.extend([Edge(kind, src, dst, target)] * rng.choice([1, 1, 1, 2, 3]))
    return ArchModel(services=services, volumes=volumes, networks=networks, edges=tuple(edges))


def drifted(rng: random.Random, model: ArchModel) -> ArchModel:
    edges = []
    for edge in model.edges:
        roll = rng.random()
        if roll < 0.15:
            continue
        if roll < 0.3:
            edges.append(edge)
        if edge.kind is EdgeKind.MOUNT and roll < 0.6:
            edge = Edge(edge.kind, edge.src, edge.dst, rng.choice(TARGETS))
        edges.append(edge)
    edges.extend(random_side(rng).edges[: rng.randint(0, 5)])
    rng.shuffle(edges)
    return ArchModel(
        services=random_side(rng).services if rng.random() < 0.3 else model.services,
        volumes=model.volumes,
        networks=model.networks,
        edges=tuple(edges),
    )


class TestDiffModelsEquivalence:
    def test_matches_the_rescanning_reference(self):
        for seed in range(500):
            rng = random.Random(seed)
            left = random_side(rng)
            right = drifted(rng, left) if rng.random() < 0.8 else random_side(rng)
            assert diff_models(left, right) == reference_diff_models(left, right), seed
            assert diff_models(right, left) == reference_diff_models(right, left), seed

    def test_several_mounts_of_one_pair(self):
        base = dict(services=(ServiceNode("app", image="x"),), volumes=(VolumeNode("data"),))
        left = ArchModel(
            edges=tuple(Edge(EdgeKind.MOUNT, "app", "data", t) for t in ("/c", "/a", "/a", "/b")),
            **base,
        )
        right = ArchModel(
            edges=tuple(Edge(EdgeKind.MOUNT, "app", "data", t) for t in ("/a", "/z", "/y")),
            **base,
        )
        subject = "edges.mount.app->data"
        expected = [
            DiffEntry(DiffKind.MISSING_EDGE, subject, left="/c"),
            DiffEntry(DiffKind.ATTRIBUTE_MISMATCH, f"{subject}.target", left="/a", right="/y"),
            DiffEntry(DiffKind.ATTRIBUTE_MISMATCH, f"{subject}.target", left="/b", right="/z"),
        ]
        assert diff_models(left, right) == expected == reference_diff_models(left, right)


def with_repeats_and_blanks(rng: random.Random, model: ArchModel) -> ArchModel:
    """The model with some edges repeated, some attributes and mount targets set
    to "", and some mount targets dropped; still valid."""
    edges = [
        Edge(edge.kind, edge.src, edge.dst, rng.choice(["", None]))
        if edge.kind is EdgeKind.MOUNT and rng.random() < 0.2
        else edge
        for edge in model.edges
    ]
    if edges:
        edges.extend(rng.choice(edges) for _ in range(rng.choice([0, 0, 1, 3])))
        rng.shuffle(edges)
    services = list(model.services)
    for index in rng.sample(range(len(services)), min(len(services), rng.choice([0, 0, 1, 2]))):
        svc = services[index]
        services[index] = ServiceNode(
            svc.name,
            image="" if svc.build is None else None,
            build=svc.build,
            container_name=rng.choice(["", None, svc.container_name]),
        )
    return ArchModel(
        services=tuple(services), volumes=model.volumes, networks=model.networks, edges=tuple(edges)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), mutations=st.integers(0, 3), unrelated=st.booleans())
def test_diff_models_property(seed, mutations, unrelated):
    rng = random.Random(seed)
    left = with_repeats_and_blanks(rng, gen_model(rng))
    right = gen_model(rng) if unrelated else left
    for _ in range(mutations):
        if right.services:
            right, _ = mutate_model(rng, right)
    right = with_repeats_and_blanks(rng, right)
    assert left.validate() is None and right.validate() is None

    entries = diff_models(left, right)
    assert entries == reference_diff_models(left, right)
    assert (entries == []) == model_equal(left, right)
    assert diff_models(canonicalize(left), right) == entries
    assert diff_models(left, canonicalize(right)) == entries
    assert diff_models(canonicalize(left), canonicalize(right)) == entries


def drifted_pair(n: int) -> tuple[ArchModel, ArchModel]:
    """n services with two mounts each; the right side moves every other target."""
    services = tuple(ServiceNode(f"s{i}", image="x") for i in range(n))
    volumes = tuple(VolumeNode(f"v{i}") for i in range(max(2, n // 3)))
    left_edges, right_edges = [], []
    for i, svc in enumerate(services):
        for j in (i % len(volumes), (i + 1) % len(volumes)):
            edge = Edge(EdgeKind.MOUNT, svc.name, volumes[j].name, f"/data/{j}/{i}")
            left_edges.append(edge)
            moved = Edge(edge.kind, edge.src, edge.dst, edge.target + "/moved")
            right_edges.append(moved if (i + j) % 2 else edge)
    left = ArchModel(services=services, volumes=volumes, edges=tuple(left_edges))
    right = ArchModel(services=services, volumes=volumes, edges=tuple(right_edges))
    return left, right


def identical_pair(n: int) -> tuple[ArchModel, ArchModel]:
    """drifted_pair's left side, and an equal model listing everything in reverse."""
    left, _ = drifted_pair(n)
    right = ArchModel(services=left.services[::-1], volumes=left.volumes[::-1], edges=left.edges[::-1])
    return left, right


def test_diff_models_is_linear_in_leftover_edges():
    def best_of_3(pair) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            diff_models(*pair)
            times.append(time.perf_counter() - start)
        return min(times)

    # with every other mount target moved, and with no leftover edges at all
    for make_pair in (drifted_pair, identical_pair):
        small, large = best_of_3(make_pair(200)), best_of_3(make_pair(4000))
        # 20x the services: linear cost is ~20x, the per-key rescan ~400x
        assert large < 100 * small, (
            f"{make_pair.__name__}: 200 services {small * 1e3:.1f} ms, "
            f"4000 services {large * 1e3:.1f} ms"
        )


def test_compare_models_canonicalizes_neither_side(monkeypatch):
    calls = []

    def counting(model):
        calls.append(model)
        return canonicalize(model)

    monkeypatch.setattr(consistency, "canonicalize", counting)
    monkeypatch.setattr(model_module, "canonicalize", counting)
    left, right = drifted_pair(10)
    report = compare_models(left, right)
    assert calls == []
    assert report.stats.left_edges == report.stats.right_edges == 20
    assert report.issues == tuple(reference_diff_models(left, right))


class TestRoundTripEdgeCases:
    def test_mount_target_with_colon_is_consistent(self):
        text = textwrap.dedent(
            """\
            services:
              app:
                image: x
                volumes:
                  - type: volume
                    source: data
                    target: "/a:b"
            volumes:
              data:
            """
        )
        report = round_trip_check(text)
        assert report.verdict is Verdict.CONSISTENT, render_report(report)

    def test_newline_in_service_name_is_consistent(self):
        text = 'services:\n  "a\\nb":\n    image: x\n  c:\n    image: y\n    depends_on: ["a\\nb"]\n'
        assert "a\nb" in {s.name for s in lower(parse_compose(text)).services}
        report = round_trip_check(text)
        assert report.verdict is Verdict.CONSISTENT, render_report(report)


# One empty name per kind. The model cannot hold any of them, so the gate
# refuses them in both modes instead of leaving them to the emitter.
EMPTY_NAMES = {
    "service": "services:\n  '':\n    image: x\n",
    "volume": "services: {}\nvolumes:\n  '':\n",
    "network": "services: {}\nnetworks:\n  '':\n",
}
EMPTY_REFERENCES = {
    "depends_on": "services:\n  a:\n    image: x\n    depends_on: ['']\n",
    "links": "services:\n  a:\n    image: x\n    links: [':alias']\n",
    "networks": "services:\n  a:\n    image: x\n    networks: ['']\n",
}


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("kind", EMPTY_NAMES)
def test_empty_name_is_invalid_at_the_gate(kind, strict):
    expected = f"EmptyName({kind}s): declares a {kind} with an empty name"
    report = round_trip_check(EMPTY_NAMES[kind], strict=strict)
    assert (report.verdict, report.error) == (Verdict.INVALID, expected)
    pair = check_diagram_against_descriptor('with DaC("t"):\n  pass\n', EMPTY_NAMES[kind], strict=strict)
    assert (pair.verdict, pair.error) == (Verdict.INVALID, expected)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("field", EMPTY_REFERENCES)
def test_reference_to_an_empty_name_is_invalid_at_the_gate(field, strict):
    report = round_trip_check(EMPTY_REFERENCES[field], strict=strict)
    assert report.verdict is Verdict.INVALID
    assert report.error.startswith(f"DanglingReference(services.a.{field} -> ): references undeclared ")
