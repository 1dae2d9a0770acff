"""Diagram script and DOT emission tests: grammar shape, determinism,
totality, identifier sanitization, role grouping, annotation encoding."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dad.dac_emit import (
    DEFAULT_ROLE_TABLE,
    EmitOptions,
    emit_dac,
    emit_dot,
    encode_annot_value,
    escape_quoted,
    role_of,
    sanitize_ident,
)
from dad.consistency import Verdict, round_trip_check
from dad.compose import lower, parse_compose
from dad.dac_ingest import decode_annot_value, emit_compose, lift, parse_dac, unescape_quoted
from dad.errors import EmitError
from dad.model import (
    ArchModel,
    BuildRef,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    canonicalize,
    model_equal,
)

from specgen import gen_model

MESSAGE_STACK = ArchModel(
    title="dblog system",
    services=(
        ServiceNode("mysql", image="mysql"),
        ServiceNode("connect", build=BuildRef("./connect")),
        ServiceNode("kafka", image="confluentinc/cp-kafka"),
        ServiceNode("zookeeper", image="confluentinc/cp-zookeeper"),
    ),
    edges=(
        Edge(EdgeKind.DEPENDENCY, "kafka", "zookeeper"),
        Edge(EdgeKind.LINK, "connect", "zookeeper"),
    ),
)


def classify_lines(text: str):
    header, clusters, nodes, edges, passes = [], [], [], [], []
    for line in text.splitlines():
        if line.startswith("with DaC("):
            header.append(line)
        elif line == "  pass":
            passes.append(line)
        elif line.startswith('  with Cluster("'):
            clusters.append(line)
        elif line.startswith("    "):
            nodes.append(line)
        else:
            edges.append(line)
    return header, clusters, nodes, edges, passes


class TestSanitizeIdent:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("mysql", "mysql"),
            ("My-Svc.1", "my_svc_1"),
            ("123db", "_123db"),
            ("web app", "web_app"),
            ("café", "caf_"),
            ("", "_"),
        ],
    )
    def test_rules(self, name, expected):
        assert sanitize_ident(name, set()) == expected

    def test_collisions_take_first_free_suffix(self):
        taken = {"my_svc"}
        assert sanitize_ident("my_svc", taken) == "my_svc_2"
        taken |= {"my_svc_2", "my_svc_3"}
        assert sanitize_ident("My.Svc", taken) == "my_svc_4"

    def test_distinct_names_never_share_an_ident(self):
        rng = random.Random(11)
        names = [f"svc{'-._ '[i % 4]}{i // 4}" for i in range(40)]
        rng.shuffle(names)
        taken: set[str] = set()
        for name in names:
            ident = sanitize_ident(name, taken)
            assert ident not in taken
            assert re.fullmatch(r"[a-z_][a-z0-9_]*", ident)
            taken.add(ident)


class TestQuotingAndAnnotations:
    @pytest.mark.parametrize(
        "raw",
        ["plain", 'quo"te', "back\\slash", 'mix\\"ed', ""],
    )
    def test_quoted_escaping_round_trips(self, raw):
        assert unescape_quoted(escape_quoted(raw)) == raw

    @pytest.mark.parametrize(
        "raw",
        ["nginx:1.25", "a,b", "100%", " padded ", "multi\nline", "k=v", "%2C"],
    )
    def test_annotation_value_round_trips(self, raw):
        encoded = encode_annot_value(raw)
        assert "," not in encoded and "\n" not in encoded
        assert not encoded.startswith(" ") and not encoded.endswith(" ")
        assert decode_annot_value(encoded) == raw


class TestEmitDac:
    def test_reference_stack_script_lines(self):
        text = emit_dac(MESSAGE_STACK).text
        assert text.splitlines()[0] == 'with DaC("dblog system", direction="TB"):'
        assert '  with Cluster("mysql service"):' in text.splitlines()
        assert any(line.startswith('    mysql = Server("mysql")') for line in text.splitlines())
        assert "  kafka >> zookeeper" in text.splitlines()
        assert "  connect - zookeeper" in text.splitlines()

    def test_empty_model_is_header_plus_pass(self):
        assert emit_dac(ArchModel(title="t")).text == 'with DaC("t", direction="TB"):\n  pass\n'

    def test_direction_option_changes_header_only(self):
        tb = emit_dac(MESSAGE_STACK).text
        lr = emit_dac(MESSAGE_STACK, EmitOptions(direction="LR")).text
        assert lr.splitlines()[0] == 'with DaC("dblog system", direction="LR"):'
        assert lr.splitlines()[1:] == tb.splitlines()[1:]

    def test_annotations_carry_node_attributes(self):
        node = ServiceNode("db", image="mysql:8", container_name="db_main")
        text = emit_dac(ArchModel(services=(node,))).text
        assert '    db = Server("db")  # image=mysql:8,container_name=db_main\n' in text

    def test_build_annotations(self):
        node = ServiceNode("api", build=BuildRef("./api", "Dockerfile.dev"))
        text = emit_dac(ArchModel(services=(node,))).text
        assert "# build_context=./api,build_dockerfile=Dockerfile.dev" in text

    def test_mount_edge_carries_target_annotation(self):
        model = ArchModel(
            services=(ServiceNode("app", image="x"),),
            volumes=(VolumeNode("data"),),
            edges=(Edge(EdgeKind.MOUNT, "app", "data", target="/var/lib/data"),),
        )
        assert "  app - data  # target=/var/lib/data\n" in emit_dac(model).text

    def test_phantom_flag_is_annotated(self):
        model = ArchModel(services=(ServiceNode("ghost", phantom=True),))
        assert "# phantom=true" in emit_dac(model).text

    def test_identifiers_tuple_matches_script(self):
        script = emit_dac(MESSAGE_STACK)
        assert [entry[0] for entry in script.identifiers] == [
            "mysql",
            "connect",
            "kafka",
            "zookeeper",
        ]
        assert {entry[1] for entry in script.identifiers} == {"Server"}
        assert len({entry[0] for entry in script.identifiers}) == len(script.identifiers)

    def test_determinism_across_equal_runs(self):
        rng = random.Random(3)
        for _ in range(20):
            model = gen_model(rng)
            assert emit_dac(model).text == emit_dac(model).text
            assert emit_dot(model) == emit_dot(model)

    def test_totality_counts(self):
        rng = random.Random(5)
        for _ in range(50):
            model = gen_model(rng)
            text = emit_dac(model).text
            _, clusters, nodes, edges, _ = classify_lines(text)
            assert len(nodes) == len(model.services) + len(model.volumes) + len(model.networks)
            assert len(clusters) == len(nodes)
            assert text.count("Server(") == len(model.services)
            assert text.count("Storage(") == len(model.volumes)
            assert text.count("Network(") == len(model.networks)
            assert len(edges) == len(model.edges)

    def test_uniform_notation(self):
        rng = random.Random(6)
        for _ in range(20):
            model = gen_model(rng)
            text = emit_dac(model).text
            constructors = set(re.findall(r"(\w+)\(", text))
            assert constructors <= {"DaC", "Cluster", "Server", "Storage", "Network"}
            _, _, _, edges, _ = classify_lines(text)
            for line in edges:
                assert (" >> " in line) ^ (" - " in line)

    def test_dependency_orientation(self):
        rng = random.Random(8)
        for _ in range(20):
            model = gen_model(rng)
            script = emit_dac(model)
            ident = {label: name for name, _, label in script.identifiers}
            for edge in model.edges:
                if edge.kind is EdgeKind.DEPENDENCY:
                    assert f"  {ident[edge.src]} >> {ident[edge.dst]}" in script.text

    def test_canonically_distinct_models_emit_distinct_scripts(self):
        rng = random.Random(9)
        seen: dict[str, str] = {}
        for _ in range(120):
            model = gen_model(rng)
            text = emit_dac(model).text
            canon = canonicalize(model).as_text()
            if text in seen:
                assert seen[text] == canon
            seen[text] = canon

    def test_invalid_model_is_rejected(self):
        cyclic = ArchModel(
            services=(ServiceNode("a", image="x"), ServiceNode("b", image="y")),
            edges=(
                Edge(EdgeKind.DEPENDENCY, "a", "b"),
                Edge(EdgeKind.DEPENDENCY, "b", "a"),
            ),
        )
        with pytest.raises(EmitError, match="cycle"):
            emit_dac(cyclic)
        with pytest.raises(EmitError):
            emit_dot(cyclic)

    def test_repeated_mount_is_refused_by_every_emitter(self):
        data = Edge(EdgeKind.MOUNT, "web", "data", "/a")
        model = ArchModel(
            services=(ServiceNode("web", image="x"),), volumes=(VolumeNode("data"),), edges=(data, data)
        )
        message = "web mounts data:/a twice; a descriptor cannot hold it"
        for emit in (emit_dac, emit_dot, emit_compose):
            with pytest.raises(EmitError) as err:
                emit(model)
            assert str(err.value) == message, emit.__name__
        # without a target the repeat reads back, so the script and DOT emitters take it
        untargeted = Edge(EdgeKind.MOUNT, "web", "data")
        model = model._replace(edges=(untargeted, untargeted))
        assert lift(parse_dac(emit_dac(model).text)).edges == model.edges
        assert "web -> data" in emit_dot(model)

    def test_title_with_quotes_is_escaped(self):
        text = emit_dac(ArchModel(title='a "b" c')).text
        assert text.splitlines()[0] == 'with DaC("a \\"b\\" c", direction="TB"):'


class TestRoleGrouping:
    def test_default_table_roles(self):
        assert role_of(ServiceNode("x", image="mysql:8"), DEFAULT_ROLE_TABLE) == "database"
        assert role_of(ServiceNode("x", image="bitnami/kafka"), DEFAULT_ROLE_TABLE) == "messaging"
        assert role_of(ServiceNode("x", image="nginx:1.25"), DEFAULT_ROLE_TABLE) == "gateway"
        assert role_of(ServiceNode("x", image="python:3.11"), DEFAULT_ROLE_TABLE) == "service"
        assert role_of(ServiceNode("x", build=BuildRef(".")), DEFAULT_ROLE_TABLE) == "service"

    def test_first_matching_substring_wins(self):
        table = (("post", "first"), ("gres", "second"))
        assert role_of(ServiceNode("x", image="postgres"), table) == "first"

    def test_grouping_places_same_role_nodes_adjacent(self):
        model = ArchModel(
            services=(
                ServiceNode("web", image="nginx:1.25"),
                ServiceNode("db", image="mysql:8"),
                ServiceNode("api", image="python:3.11"),
                ServiceNode("replica", image="postgres:16"),
            ),
        )
        script = emit_dac(model, EmitOptions(group_by_role=True))
        order = [label for _, _, label in script.identifiers]
        assert order == ["db", "replica", "web", "api"]

    def test_grouping_is_stable_within_role(self):
        model = ArchModel(
            services=(
                ServiceNode("db2", image="mysql:8"),
                ServiceNode("db1", image="postgres:16"),
            ),
        )
        script = emit_dac(model, EmitOptions(group_by_role=True))
        assert [label for _, _, label in script.identifiers] == ["db2", "db1"]

    def test_grouping_off_preserves_model_order(self):
        model = ArchModel(
            services=(ServiceNode("web", image="nginx"), ServiceNode("db", image="mysql")),
        )
        assert [s[2] for s in emit_dac(model).identifiers] == ["web", "db"]

    def test_option_validation(self):
        with pytest.raises(EmitError):
            EmitOptions(direction="BT")
        with pytest.raises(EmitError):
            EmitOptions(role_table=(("", "database"),))


class TestEmitDot:
    def test_single_service(self):
        text = emit_dot(ArchModel(services=(ServiceNode("s", image="x"),)))
        assert text.startswith("digraph")
        assert '  s [shape=box, label="s"];' in text.splitlines()
        assert " -> " not in text

    def test_reference_stack_edges_and_shapes(self):
        text = emit_dot(MESSAGE_STACK)
        assert "kafka -> zookeeper;" in text
        assert "connect -> zookeeper [dir=none];" in text

    def test_mount_edge_is_dashed_and_labeled(self):
        model = ArchModel(
            services=(ServiceNode("app", image="x"),),
            volumes=(VolumeNode("data"),),
            networks=(NetworkNode("net"),),
            edges=(
                Edge(EdgeKind.MOUNT, "app", "data", target="/data"),
                Edge(EdgeKind.ATTACHMENT, "app", "net"),
            ),
        )
        lines = emit_dot(model).splitlines()
        assert '  app -> data [dir=none, style=dashed, label="/data"];' in lines
        assert "  app -> net [dir=none, style=dotted];" in lines
        assert '  data [shape=cylinder, label="data"];' in lines
        assert '  net [shape=diamond, label="net"];' in lines

    def test_phantom_nodes_are_dashed(self):
        model = ArchModel(services=(ServiceNode("ghost", phantom=True),))
        assert "style=dashed" in emit_dot(model)

    def test_rankdir_follows_direction(self):
        model = ArchModel(title="t")
        assert "  rankdir=LR;" in emit_dot(model, EmitOptions(direction="LR"))


class TestControlCharacters:
    @given(st.text())
    def test_unescape_inverts_escape(self, raw):
        assert unescape_quoted(escape_quoted(raw)) == raw

    @given(st.text())
    def test_escaped_text_has_no_control_characters(self, raw):
        escaped = escape_quoted(raw)
        assert not re.search(r"[\x00-\x1f\x7f-\x9f]", escaped)
        assert re.fullmatch(r'(?:[^"\\]|\\.)*', escaped)

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs"))))
    def test_text_without_control_characters_keeps_its_bytes(self, raw):
        assert escape_quoted(raw) == raw.replace("\\", "\\\\").replace('"', '\\"')

    def test_named_and_hex_escapes(self):
        assert escape_quoted("a\nb\rc\td\x00e\x7f") == "a\\nb\\rc\\td\\x00e\\x7f"
        assert unescape_quoted("\\q\\x4") == "qx4"

    def test_newline_in_names_survives_the_script(self):
        model = ArchModel(
            title="two\nlines",
            services=(ServiceNode("a\nb", image="x"), ServiceNode("c\rd\x01", image="y")),
            edges=(Edge(EdgeKind.DEPENDENCY, "a\nb", "c\rd\x01"),),
        )
        script = emit_dac(model)
        assert len(script.text.splitlines()) == 6
        lifted = lift(parse_dac(script.text))
        assert lifted.title == model.title
        assert canonicalize(lifted) == canonicalize(model)
        assert '"a\\nb"' in emit_dot(model)


def sequential_idents(model: ArchModel) -> list[str]:
    taken: set[str] = set()
    idents = []
    for node in (*model.services, *model.volumes, *model.networks):
        idents.append(sanitize_ident(node.name, taken))
        taken.add(idents[-1])
    return idents


class TestIdentifierAssignment:
    def test_matches_sanitize_ident_in_turn(self):
        rng = random.Random(12)
        pool = ["x", "X.", "x_", "x_2", "x-2", "x_3", "x_2_2", "x__", "2", "_2", "é", "x é"]
        for _ in range(200):
            names = rng.sample(pool, rng.randint(1, len(pool)))
            model = ArchModel(
                services=tuple(ServiceNode(n) for n in names),
                volumes=tuple(VolumeNode(n) for n in rng.sample(pool, 3)),
            )
            got = [ident for ident, _, _ in emit_dac(model).identifiers]
            assert got == sequential_idents(model)

    def test_literal_suffix_name_is_never_reused(self):
        model = ArchModel(services=tuple(ServiceNode(n) for n in ("x-", "x_2", "x.", "x!")))
        idents = [ident for ident, _, _ in emit_dac(model).identifiers]
        assert idents == ["x_", "x_2", "x__2", "x__3"]

    def test_service_and_volume_may_share_a_name(self):
        text = (
            "services:\n"
            "  web:\n    image: nginx\n    depends_on: [db]\n    volumes: [\"db:/var/db\"]\n"
            "  db:\n    image: mysql\n"
            "volumes:\n  db:\n"
        )
        report = round_trip_check(text)
        assert report.verdict is Verdict.CONSISTENT, report
        model = ArchModel(
            services=(ServiceNode("web"), ServiceNode("db")),
            volumes=(VolumeNode("db"),),
            edges=(Edge(EdgeKind.DEPENDENCY, "web", "db"), Edge(EdgeKind.MOUNT, "web", "db", "/v")),
        )
        assert "  web >> db\n  web - db_2  # target=/v\n" in emit_dac(model).text
        assert "  web -> db;" in emit_dot(model) and "  web -> db_2 [" in emit_dot(model)

    def test_names_sharing_a_base_cost_linear_time(self):
        def model(n: int) -> ArchModel:
            # every name sanitizes to "x_"
            return ArchModel(services=tuple(ServiceNode("x" + chr(0x100 + i)) for i in range(n)))

        def best_of_3(emit, model: ArchModel) -> float:
            times = []
            for _ in range(3):
                start = time.perf_counter()
                emit(model)
                times.append(time.perf_counter() - start)
            return min(times)

        small, large = model(200), model(4000)
        for emit in (emit_dac, emit_dot):
            t_small, t_large = best_of_3(emit, small), best_of_3(emit, large)
            # 20x the nodes: linear cost is ~20x, probing every suffix from 2 ~400x
            assert t_large < 100 * t_small, (
                f"{emit.__name__}: 200 names {t_small * 1e3:.1f} ms, 4000 names {t_large * 1e3:.1f} ms"
            )


ADVERSARIAL_EDGES = ("mount twice", "mount at ''", "mount without target", "repeat dependency or link")


def with_adversarial_edges(rng: random.Random, model: ArchModel, picks: list[str]) -> ArchModel:
    """The model plus edges ``gen_model`` never writes, each inserted at a random place."""
    volumes = model.volumes or (VolumeNode("spare"),)
    edges = list(model.edges)
    for pick in picks:
        src, vol = rng.choice(model.services).name, rng.choice(volumes).name
        if pick == "mount twice":
            added = [Edge(EdgeKind.MOUNT, src, vol, rng.choice(["/a", ""]))] * 2
        elif pick == "mount at ''":
            added = [Edge(EdgeKind.MOUNT, src, vol, "")]
        elif pick == "mount without target":
            added = [Edge(EdgeKind.MOUNT, src, vol)]
        else:
            pairs = [e for e in edges if e.kind in (EdgeKind.DEPENDENCY, EdgeKind.LINK)]
            added = [rng.choice(pairs)] if pairs else []
        for edge in added:
            edges.insert(rng.randint(0, len(edges)), edge)
    return model._replace(volumes=volumes, edges=tuple(edges))


def _emitted(emit, *args):
    try:
        return emit(*args)
    except EmitError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.sampled_from(ADVERSARIAL_EDGES), max_size=3),
)
def test_every_model_an_emitter_accepts_reads_back(seed, picks):
    rng = random.Random(seed)
    model = with_adversarial_edges(rng, gen_model(rng), picks)
    assert model.validate() is None

    scripts = [_emitted(emit_dac, model, EmitOptions(direction=d)) for d in ("TB", "LR")]
    dot = _emitted(emit_dot, model)
    # the script and DOT emitters share one guard
    assert {script is None for script in scripts} == {dot is None}
    for script in scripts:
        if script is not None:
            assert model_equal(lift(parse_dac(script.text)), model)

    descriptor = _emitted(emit_compose, model)
    if descriptor is not None:
        assert model_equal(lower(parse_compose(descriptor)), model)
    # a descriptor needs every mount's target; apart from that, it takes what a script takes
    untargeted = any(e.kind is EdgeKind.MOUNT and e.target is None for e in model.edges)
    assert (descriptor is None) == (dot is None or untargeted)
