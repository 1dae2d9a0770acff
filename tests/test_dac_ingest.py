"""Inverse-pipeline tests: script parsing, lifting to the model, descriptor
re-emission, and the byte-identical script round trip."""

import contextlib
import io
import os
import random
import string
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dad import cli
from dad.dac_emit import EmitOptions, emit_dac, escape_quoted
from dad.dac_ingest import DacAst, _parse_annotations, emit_compose, lift, parse_dac
from dad.compose import lower, parse_compose
from dad.errors import (
    CycleError,
    DacSyntaxError,
    DadError,
    DuplicateIdentError,
    EmitError,
    LiftError,
    UndeclaredIdentError,
)
from dad.model import (
    ArchModel,
    BuildRef,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    model_equal,
)

from specgen import gen_model

# Torn-off script fragment: two identifiers appear only in edges, so their
# declarations are missing. Strict parsing must refuse it; lenient parsing
# plus lift must recover a model with a phantom service.
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


def build_script(*body: str) -> str:
    return 'with DaC("t", direction="TB"):\n' + "".join(line + "\n" for line in body)


class TestParse:
    def test_partial_script_lenient(self):
        ast = parse_dac(PARTIAL_SCRIPT, strict=False)
        assert ast.title == "dblog system" and ast.direction == "TB"
        # the nodes in script order; the cluster headers are layout only
        assert [(n.ident, n.label) for n in ast.nodes] == [
            ("mysql", "mysql"),
            ("connect", "connect"),
            ("kafka", "kafka"),
        ]
        assert [(e.op, e.src, e.dst) for e in ast.edges] == [
            (">>", "kafka", "zookeeper"),
            ("-", "connect", "zookeeper"),
        ]

    def test_partial_script_strict_names_the_missing_ident(self):
        with pytest.raises(UndeclaredIdentError) as err:
            parse_dac(PARTIAL_SCRIPT)
        assert err.value.ident == "zookeeper" and err.value.line == 8

    def test_header_with_pass_gives_empty_ast(self):
        ast = parse_dac('with DaC("empty one", direction="LR"):\n  pass\n')
        assert ast.title == "empty one" and ast.direction == "LR"
        assert ast.nodes == () and ast.edges == ()

    def test_annotations_are_decoded_pairs(self):
        text = build_script(
            '  with Cluster("db service"):',
            '    db = Server("db")  # image=mysql:8,container_name=db%2C1',
        )
        node = parse_dac(text).nodes[0]
        assert node.annotations == (("image", "mysql:8"), ("container_name", "db,1"))

    def test_quoted_strings_unescape(self):
        text = 'with DaC("a \\"b\\"", direction="TB"):\n  pass\n'
        assert parse_dac(text).title == 'a "b"'

    def test_line_numbers_tracked(self):
        ast = parse_dac(PARTIAL_SCRIPT, strict=False)
        assert [node.line for node in ast.nodes] == [3, 5, 7]
        assert ast.edges[0].line == 8

    def test_duplicate_ident_rejected(self):
        text = build_script(
            '  with Cluster("a service"):',
            '    a = Server("a")',
            '  with Cluster("b service"):',
            '    a = Server("b")',
        )
        with pytest.raises(DuplicateIdentError) as err:
            parse_dac(text)
        assert err.value.ident == "a" and err.value.line == 5

    def test_edge_between_clusters_is_allowed(self):
        text = build_script(
            '  with Cluster("a service"):',
            '    a = Server("a")',
            "  a - a_2",
            '  with Cluster("b service"):',
            '    a_2 = Server("b")',
        )
        ast = parse_dac(text, strict=False)
        assert [n.ident for n in ast.nodes] == ["a", "a_2"] and len(ast.edges) == 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "newline"),
            ("plain text\n", "header"),
            ('with DaC("t", direction="XX"):\n  pass\n', "header"),
            ('with DaC("t"):\n  pass\n', "header"),
            ('with DaC("t", direction="TB")\n  pass\n', "header"),
            ('with DaC("t", direction="TB"):\n', "empty body"),
            ('with DaC("t", direction="TB"):\n\n', "blank"),
            ('with DaC("t", direction="TB"):\n   with Cluster("x"):\n', "malformed line"),
            ('with DaC("t", direction="TB"):\n\tpass\n', "unexpected line"),
            ('with DaC("t", direction="TB"):\n    a = Server("a")\n', "outside"),
            ('with DaC("t", direction="TB"):\n  with Cluster("x"):\n', "no nodes"),
            (
                'with DaC("t", direction="TB"):\n  with Cluster("x"):\n  a - b\n',
                "no nodes",
            ),
            ('with DaC("t", direction="TB"):\n  pass\n  pass\n', "after pass"),
            (
                'with DaC("t", direction="TB"):\n  with Cluster("x"):\n    a = Server("a")\n  pass\n',
                "sole body line",
            ),
            (
                'with DaC("t", direction="TB"):\n  with Cluster("x"):\n    a = Service("a")\n',
                "malformed node",
            ),
            (
                'with DaC("t", direction="TB"):\n  with Cluster("x"):\n    A = Server("a")\n',
                "malformed node",
            ),
            (
                'with DaC("t", direction="TB"):\n  with Cluster("x"):\n    a = Server("a")  # k = v\n',
                "annotation",
            ),
            (
                'with DaC("t", direction="TB"):\n  with Cluster("x"):\n    a = Server("a")  # image=x,image=y\n',
                "duplicate annotation",
            ),
            ('with DaC("t", direction="TB"):\n  a -> b\n', "malformed line"),
            ('with DaC("t", direction="TB"):\n  a >> b', "newline"),
        ],
    )
    def test_grammar_violations(self, text, fragment):
        with pytest.raises(DacSyntaxError, match=fragment):
            parse_dac(text, strict=False)

    def test_error_carries_position(self):
        try:
            parse_dac('with DaC("t", direction="TB"):\n  with Cluster("x"):\n  a - b\n')
        except DacSyntaxError as exc:
            assert exc.line == 2 and exc.col == 3
        else:
            pytest.fail("expected a syntax error")


class TestLift:
    def test_partial_script_gets_phantom_service(self):
        model = lift(parse_dac(PARTIAL_SCRIPT, strict=False))
        assert [s.name for s in model.services] == ["mysql", "connect", "kafka", "zookeeper"]
        assert model.phantom_names == ("zookeeper",)
        assert model.edges == (
            Edge(EdgeKind.DEPENDENCY, "kafka", "zookeeper"),
            Edge(EdgeKind.LINK, "connect", "zookeeper"),
        )

    def test_lift_inverts_emit_exactly(self):
        model = ArchModel(
            title="shop",
            services=(
                ServiceNode("web", image="nginx:1.25", container_name="edge"),
                ServiceNode("api", build=BuildRef("./api", "Dockerfile.dev")),
            ),
            volumes=(VolumeNode("data"),),
            networks=(NetworkNode("backend"),),
            edges=(
                Edge(EdgeKind.DEPENDENCY, "web", "api"),
                Edge(EdgeKind.LINK, "api", "web"),
                Edge(EdgeKind.MOUNT, "api", "data", target="/var/lib/data"),
                Edge(EdgeKind.ATTACHMENT, "api", "backend"),
            ),
        )
        assert lift(parse_dac(emit_dac(model).text)) == model

    def test_empty_script_lifts_to_empty_model(self):
        model = lift(parse_dac('with DaC("bare", direction="TB"):\n  pass\n'))
        assert model == ArchModel(title="bare")

    def test_dash_to_storage_is_mount_with_target(self):
        text = build_script(
            '  with Cluster("app service"):',
            '    app = Server("app")',
            '  with Cluster("data volume"):',
            '    data = Storage("data")',
            "  app - data  # target=/data",
        )
        model = lift(parse_dac(text))
        assert model.edges == (Edge(EdgeKind.MOUNT, "app", "data", target="/data"),)

    def test_storage_on_the_left_is_normalized(self):
        text = build_script(
            '  with Cluster("app service"):',
            '    app = Server("app")',
            '  with Cluster("data volume"):',
            '    data = Storage("data")',
            "  data - app  # target=/data",
        )
        model = lift(parse_dac(text))
        assert model.edges == (Edge(EdgeKind.MOUNT, "app", "data", target="/data"),)

    def test_repeated_mount_is_refused_at_its_line(self):
        text = build_script(
            '  with Cluster("app service"):',
            '    app = Server("app")',
            '  with Cluster("data volume"):',
            '    data = Storage("data")',
            "  app - data  # target=/a",
            "  app - data  # target=/b",
            "  data - app  # target=/a",
        )
        with pytest.raises(LiftError, match=r"^line 8: mounts data:/a twice$"):
            lift(parse_dac(text))

    def test_mount_without_target_is_tolerated_at_lift(self):
        text = build_script(
            '  with Cluster("app service"):',
            '    app = Server("app")',
            '  with Cluster("data volume"):',
            '    data = Storage("data")',
            "  app - data",
        )
        assert lift(parse_dac(text)).edges[0].target is None

    def test_dash_to_network_is_attachment(self):
        text = build_script(
            '  with Cluster("app service"):',
            '    app = Server("app")',
            '  with Cluster("net network"):',
            '    net = Network("net")',
            "  app - net",
        )
        assert lift(parse_dac(text)).edges == (Edge(EdgeKind.ATTACHMENT, "app", "net"),)

    @pytest.mark.parametrize(
        "body,fragment",
        [
            (
                (
                    '  with Cluster("a service"):',
                    '    a = Server("a")',
                    '  with Cluster("v volume"):',
                    '    v = Storage("v")',
                    "  a >> v",
                ),
                "requires service endpoints",
            ),
            (
                (
                    '  with Cluster("v volume"):',
                    '    v = Storage("v")',
                    '  with Cluster("n network"):',
                    '    n = Network("n")',
                    "  v - n",
                ),
                "at least one service",
            ),
            (
                (
                    '  with Cluster("a service"):',
                    '    a = Server("a")',
                    '    b = Server("b")',
                    "  a - b  # target=/x",
                ),
                "only for mounts",
            ),
            (
                (
                    '  with Cluster("a service"):',
                    '    a = Server("a")',
                    '    b = Server("b")',
                    "  a >> b  # target=/x",
                ),
                "only for mounts",
            ),
            (
                (
                    '  with Cluster("a service"):',
                    '    a = Server("a")  # flavor=salty',
                ),
                "not understood",
            ),
            (
                (
                    '  with Cluster("a service"):',
                    '    a = Server("a")  # build_dockerfile=Dockerfile',
                ),
                "build_dockerfile without build_context",
            ),
            (
                (
                    '  with Cluster("a service"):',
                    '    a = Server("a")  # phantom=maybe',
                ),
                "phantom",
            ),
            (
                (
                    '  with Cluster("v volume"):',
                    '    v = Storage("v")  # image=x',
                ),
                "not understood",
            ),
        ],
    )
    def test_lift_rejections(self, body, fragment):
        with pytest.raises(LiftError, match=fragment):
            lift(parse_dac(build_script(*body)))

    def test_cyclic_dependencies_raise_with_witness(self):
        text = build_script(
            '  with Cluster("a service"):',
            '    a = Server("a")',
            '  with Cluster("b service"):',
            '    b = Server("b")',
            "  a >> b",
            "  b >> a",
        )
        with pytest.raises(CycleError) as err:
            lift(parse_dac(text))
        assert err.value.cycle[0] == err.value.cycle[-1]

    def test_phantom_annotation_round_trips(self):
        model = ArchModel(
            services=(ServiceNode("a", image="x"), ServiceNode("ghost", phantom=True)),
            edges=(Edge(EdgeKind.DEPENDENCY, "a", "ghost"),),
        )
        lifted = lift(parse_dac(emit_dac(model).text))
        assert lifted == model


class TestEmitCompose:
    def test_dependency_becomes_depends_on_list(self):
        model = ArchModel(
            services=(
                ServiceNode("dblog", build=BuildRef("api", "Dockerfile")),
                ServiceNode("mysql", image="mysql"),
            ),
            edges=(Edge(EdgeKind.DEPENDENCY, "dblog", "mysql"),),
        )
        doc = yaml.safe_load(emit_compose(model))
        assert doc["services"]["dblog"]["depends_on"] == ["mysql"]
        assert doc["services"]["dblog"]["build"] == {"context": "api", "dockerfile": "Dockerfile"}

    def test_empty_model(self):
        assert emit_compose(ArchModel()) == "services: {}\n"

    def test_retained_subset_only_and_in_model_order(self):
        model = ArchModel(
            services=(ServiceNode("app", image="x"),),
            volumes=(VolumeNode("data"),),
            networks=(NetworkNode("net"),),
            edges=(
                Edge(EdgeKind.MOUNT, "app", "data", target="/d"),
                Edge(EdgeKind.ATTACHMENT, "app", "net"),
            ),
        )
        doc = yaml.safe_load(emit_compose(model))
        assert doc == {
            "services": {"app": {"image": "x", "volumes": ["data:/d"], "networks": ["net"]}},
            "volumes": {"data": None},
            "networks": {"net": None},
        }

    def test_mount_without_target_is_refused(self):
        model = ArchModel(
            services=(ServiceNode("app", image="x"),),
            volumes=(VolumeNode("data"),),
            edges=(Edge(EdgeKind.MOUNT, "app", "data"),),
        )
        with pytest.raises(EmitError, match="target"):
            emit_compose(model)

    def test_phantom_reference_stays_undeclared(self):
        model = lift(parse_dac(PARTIAL_SCRIPT, strict=False))
        doc = yaml.safe_load(emit_compose(model))
        assert "zookeeper" not in doc["services"]
        assert doc["services"]["kafka"]["depends_on"] == ["zookeeper"]
        relowered = lower(parse_compose(emit_compose(model)))
        assert model_equal(relowered, model)

    def test_phantom_with_outgoing_edges_is_declared(self):
        model = ArchModel(
            services=(ServiceNode("ghost", phantom=True), ServiceNode("real", image="x")),
            edges=(Edge(EdgeKind.LINK, "ghost", "real"),),
        )
        doc = yaml.safe_load(emit_compose(model))
        assert doc["services"]["ghost"] == {"links": ["real"]}


class TestRoundTrips:
    def test_script_round_trip_is_byte_identical(self):
        rng = random.Random(21)
        for _ in range(60):
            model = gen_model(rng)
            script = emit_dac(model).text
            assert emit_dac(lift(parse_dac(script))).text == script

    def test_script_round_trip_preserves_direction(self):
        model = gen_model(random.Random(22))
        script = emit_dac(model, EmitOptions(direction="LR")).text
        ast = parse_dac(script)
        again = emit_dac(lift(ast), EmitOptions(direction=ast.direction)).text
        assert again == script

    def test_descriptor_round_trip_is_canonically_equal(self):
        rng = random.Random(23)
        for _ in range(60):
            model = gen_model(rng)
            relowered = lower(parse_compose(emit_compose(model)))
            assert model_equal(relowered, model)


class TestFuzz:
    def test_single_character_mutations_never_crash(self):
        rng = random.Random(99)
        bases = [emit_dac(gen_model(rng)).text for _ in range(5)]
        bases.append(PARTIAL_SCRIPT)
        pool = string.printable
        for _ in range(400):
            text = rng.choice(bases)
            pos = rng.randrange(len(text))
            kind = rng.random()
            if kind < 0.4:
                mutated = text[:pos] + rng.choice(pool) + text[pos + 1 :]
            elif kind < 0.7:
                mutated = text[:pos] + text[pos + 1 :]
            else:
                mutated = text[:pos] + rng.choice(pool) + text[pos:]
            try:
                parse_dac(mutated, strict=rng.random() < 0.5)
            except (DacSyntaxError, DuplicateIdentError, UndeclaredIdentError):
                pass


# Annotation texts as parse_dac meets them. An edge's lone target is read by
# the line pattern itself, so draw values with and without the characters
# that send it back to _parse_annotations ("," and "%"), and the other shapes
# it must leave alone: more pairs, repeated and unknown keys, a part with no
# "=", the empty annotation. None is a line with no annotation.
ANNOT_VALUES = st.text(alphabet="ab/.=%,2C0A5 #", max_size=8)
ANNOT_KEYS = st.sampled_from(["target", "target", "mode", "Target", "image", "phantom", "1x", ""])
ANNOT_PARTS = st.one_of(st.tuples(ANNOT_KEYS, ANNOT_VALUES).map("=".join), ANNOT_KEYS)
EDGE_ANNOTS = st.one_of(
    st.none(),
    st.just(""),
    ANNOT_VALUES.map("target={}".format),
    st.lists(ANNOT_PARTS, min_size=1, max_size=3).map(",".join),
)
NODE_ANNOTS = st.one_of(
    st.none(),
    st.sampled_from(["image=nginx", "phantom=true", "image=a%2Cb,container_name=c", "container_name=x"]),
    st.lists(ANNOT_PARTS, min_size=1, max_size=3).map(",".join),
)


def annotation_outcome(text: str | None, line: int):
    """What _parse_annotations gives for one line's text: its pairs, or its error and line."""
    if text is None:
        return ()
    try:
        return _parse_annotations(text, line)
    except DacSyntaxError as exc:
        return (type(exc), str(exc), exc.line)


def annotated(text: str | None) -> str:
    return "" if text is None else f"  # {text}"


def script_of(node_texts: list, edge_texts: list) -> str:
    """One cluster of servers annotated with node_texts, one volume per edge, each mounted once."""
    lines = ['with DaC("t", direction="TB"):', '  with Cluster("c"):']
    lines += [f'    s{i} = Server("s{i}"){annotated(text)}' for i, text in enumerate(node_texts)]
    lines += [f'    v{j} = Storage("v{j}")' for j in range(len(edge_texts))]
    lines += [f"  s{j % len(node_texts)} - v{j}{annotated(text)}" for j, text in enumerate(edge_texts)]
    return "\n".join(lines) + "\n"


class TestAnnotationText:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        # a few node texts, each shared by several nodes
        st.lists(NODE_ANNOTS, min_size=1, max_size=3),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
        st.lists(EDGE_ANNOTS, min_size=1, max_size=6),
    )
    def test_parse_dac_reads_annotations_as_parse_annotations_does(self, pool, picks, edge_texts):
        node_texts = [pool[pick % len(pool)] for pick in picks]
        text = script_of(node_texts, edge_texts)
        first_edge_line = 3 + len(node_texts) + len(edge_texts)
        expected = [annotation_outcome(t, 3 + i) for i, t in enumerate(node_texts)]
        expected += [annotation_outcome(t, first_edge_line + j) for j, t in enumerate(edge_texts)]
        errors = [outcome for outcome in expected if outcome and isinstance(outcome[0], type)]
        if errors:
            with pytest.raises(DacSyntaxError) as exc:
                parse_dac(text)
            assert (type(exc.value), str(exc.value), exc.value.line) == errors[0]
            return
        ast = parse_dac(text)
        servers = [node for node in ast.nodes if node.kind == "Server"]
        assert [node.annotations for node in servers] + [edge.annotations for edge in ast.edges] == expected

        # a script that parses diffs Consistent/0 against itself, unless lift
        # refuses it: then the diff is an error, exit 2
        try:
            lift(ast)
            lifted = True
        except DadError:
            lifted = False
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "a.dac")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["diff", "-i", path, "-i", path, "--report", "machine"])
        if lifted:
            assert code == 0 and out.getvalue().startswith("verdict\tConsistent\n"), err.getvalue()
        else:
            assert (code, out.getvalue()) == (2, "") and err.getvalue().startswith("error: ")

    def test_lone_target_shapes(self):
        # the line pattern's own reading against _parse_annotations', shape by shape
        for value in ("/var/lib/mysql", "", " a b ", "a=b", "x  # target=y", "a%2Cb", "%25", "a%zz"):
            text = script_of([None], [f"target={value}"])
            (edge,) = parse_dac(text).edges
            assert edge.annotations == _parse_annotations(f"target={value}", 5)
        (bare,) = parse_dac(script_of([None], [None])).edges
        (blank,) = parse_dac(script_of([None], ["target="])).edges
        assert bare.annotations == () and blank.annotations == (("target", ""),)
        for tail, message in (
            ("target=a,mode=ro", None),
            ("target=a,target=b", "duplicate annotation key 'target'"),
            ("target=a,", "malformed annotation ''"),
            ("target", "malformed annotation 'target'"),
            ("1x=y", "bad annotation key '1x'"),
        ):
            text = script_of([None], [tail])
            if message is None:
                assert parse_dac(text).edges[0].annotations == (("target", "a"), ("mode", "ro"))
                continue
            with pytest.raises(DacSyntaxError, match=message) as exc:
                parse_dac(text)
            assert exc.value.line == 5


def regroup(text: str, sizes: list[int], names: list[str]) -> str:
    """The script with its node lines, in order, under new cluster headers.

    The k-th cluster takes the next ``sizes[k % len(sizes)]`` node lines and
    is named ``names[k % len(names)]``, escaped; the edge lines follow, as
    the emitter writes them.
    """
    header, *body = text.splitlines(keepends=True)
    nodes = [line for line in body if line.startswith("    ")]
    rest = [line for line in body if not line.startswith(("    ", "  with Cluster("))]
    clusters = []
    while nodes:
        k = len(clusters)
        size = sizes[k % len(sizes)]
        name = escape_quoted(names[k % len(names)])
        clusters.append(f'  with Cluster("{name}"):\n' + "".join(nodes[:size]))
        del nodes[:size]
    return header + "".join(clusters) + "".join(rest)


# names a cluster may carry, escapes included
ESCAPED_NAMES = ['a "q"', "back\\slash", "tab\there", "line\nend", "nul\x00", "dé", "", "a service"]
CLUSTER_NAMES = st.one_of(
    st.sampled_from(ESCAPED_NAMES), st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
)


class TestClusterHeadersAreLayout:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
        names=st.lists(CLUSTER_NAMES, min_size=1, max_size=6),
    )
    def test_regrouped_script_lifts_to_the_same_model(self, seed, sizes, names):
        emitted = emit_dac(gen_model(random.Random(seed))).text
        regrouped = regroup(emitted, sizes, names)
        for strict in (True, False):
            ast, original = parse_dac(regrouped, strict), parse_dac(emitted, strict)
            # the same nodes in the same order; only their line numbers move
            assert [node[:4] for node in ast.nodes] == [node[:4] for node in original.nodes]
            assert lift(ast) == lift(original)

    def test_regrouped_script_diffs_and_checks_consistent(self):
        rng = random.Random(31)
        for n in range(20):
            model = gen_model(rng)
            emitted = emit_dac(model).text
            regrouped = regroup(emitted, [1 + n % 4, 2], ESCAPED_NAMES[n % len(ESCAPED_NAMES) :])
            assert regrouped != emitted or not model.services
            with tempfile.TemporaryDirectory() as work:
                paths = {}
                texts = {"emitted.dac": emitted, "regrouped.dac": regrouped, "d.yml": emit_compose(model)}
                for name, text in texts.items():
                    paths[name] = os.path.join(work, name)
                    with open(paths[name], "w", encoding="utf-8") as fh:
                        fh.write(text)
                runs = [
                    ["diff", "-i", paths["emitted.dac"], "-i", paths["regrouped.dac"]],
                    ["diff", "-i", paths["regrouped.dac"], "-i", paths["emitted.dac"], "--strict"],
                    ["check", "-i", paths["d.yml"], "-i", paths["emitted.dac"]],
                    ["check", "-i", paths["d.yml"], "-i", paths["regrouped.dac"]],
                    ["check", "-i", paths["d.yml"], "-i", paths["regrouped.dac"], "--strict"],
                ]
                for argv in runs:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    assert code == 0, (argv, regrouped, out.getvalue(), err.getvalue())

    # an empty cluster is refused at its header whatever closes it, its name
    # unescaped in the message
    @pytest.mark.parametrize(
        "quoted, shown",
        [("empty", "'empty'"), ('e \\"q\\"', "'e \"q\"'"), ("x\\ny\\\\", "'x\\ny\\\\'")],
    )
    @pytest.mark.parametrize(
        "closer",
        [('  with Cluster("b"):', '    b = Server("b")'), ("  a - a",), ()],
        ids=["next cluster", "edge", "end of script"],
    )
    @pytest.mark.parametrize("strict", [True, False])
    def test_empty_cluster_is_refused_at_its_header(self, quoted, shown, closer, strict):
        text = build_script(
            '  with Cluster("a"):', '    a = Server("a")', f'  with Cluster("{quoted}"):', *closer
        )
        with pytest.raises(DacSyntaxError) as exc:
            parse_dac(text, strict)
        assert (exc.value.line, exc.value.col, exc.value.expected) == (4, 3, "node line")
        assert str(exc.value) == f"line 4, col 3: cluster {shown} has no nodes; expected node line"
