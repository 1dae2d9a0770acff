"""The DaC reader (``parse_dac`` and ``lift``) agrees with the one it replaced.

The reader before it became a single pass is kept below as the reference.
Both readers must give equal ASTs and models, or raise the same exception
type with the same message, line and column, on emitted scripts, drifted
script pairs, one malformed script per error branch and mutated scripts.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dad.compose import lower, parse_compose
from dad.dac_emit import EmitOptions, decode_annot_value, emit_dac, unescape_quoted
from dad.dac_ingest import Annotations, DacAst, DacCluster, DacEdge, DacNode, lift, parse_dac
from dad.errors import (
    DacSyntaxError,
    DadError,
    DuplicateIdentError,
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
)

from specgen import gen_model, mutate_model

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# The reader before it became a single pass, with its names prefixed: the
# reference the current reader must agree with.
_ref_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_ref_IDENT = r"([a-z_][a-z0-9_]*)"
_ref_ANNOT = r"(?:  # (.*))?"
_ref_HEADER_RE = re.compile(rf"with DaC\({_ref_QUOTED}, direction=\"(TB|LR)\"\):")
_ref_CLUSTER_RE = re.compile(rf"  with Cluster\({_ref_QUOTED}\):")
_ref_NODE_RE = re.compile(rf"    {_ref_IDENT} = (Server|Storage|Network)\({_ref_QUOTED}\){_ref_ANNOT}")
_ref_EDGE_RE = re.compile(rf"  {_ref_IDENT} (>>|-) {_ref_IDENT}{_ref_ANNOT}")
_ref_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _ref_parse_annotations(raw: str | None, lineno: int) -> Annotations:
    if raw is None:
        return ()
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for part in raw.split(","):
        key, eq, value = part.partition("=")
        if not eq:
            raise DacSyntaxError(
                f"malformed annotation {part!r}", lineno, expected="key=value"
            )
        if not _ref_KEY_RE.fullmatch(key):
            raise DacSyntaxError(f"bad annotation key {key!r}", lineno, expected="key=value")
        if key in seen:
            raise DacSyntaxError(f"duplicate annotation key {key!r}", lineno)
        seen.add(key)
        pairs.append((key, decode_annot_value(value)))
    return tuple(pairs)


def _ref_diagnose(line: str, lineno: int) -> DacSyntaxError:
    if not line.strip():
        return DacSyntaxError("blank line", lineno, expected="cluster, node or edge line")
    if line.startswith("    "):
        return DacSyntaxError(
            f"malformed node line {line.strip()!r}",
            lineno,
            col=5,
            expected='ident = Server|Storage|Network("label")',
        )
    if line.startswith("  "):
        return DacSyntaxError(
            f"malformed line {line.strip()!r}",
            lineno,
            col=3,
            expected='with Cluster("name"): or an edge (a >> b, a - b)',
        )
    return DacSyntaxError(
        f"unexpected line {line.strip()!r}", lineno, expected="two-space indented body line"
    )


def reference_parse_dac(text: str, strict: bool = True) -> DacAst:
    """Parse a diagram script into its AST.

    Strict mode requires every edge identifier to be declared in a cluster;
    with strict off, unknown identifiers are left for lift to resolve as
    phantom services. Everything else about the grammar is always enforced,
    including the one-pass-only empty body and nonempty clusters.
    """
    if not text.endswith("\n"):
        raise DacSyntaxError("missing trailing newline", max(text.count("\n") + 1, 1))
    lines = text.split("\n")[:-1]
    header = _ref_HEADER_RE.fullmatch(lines[0]) if lines else None
    if header is None:
        raise DacSyntaxError(
            "malformed header",
            1,
            expected='with DaC("title", direction="TB|LR"):',
        )
    title, direction = unescape_quoted(header.group(1)), header.group(2)

    clusters: list[DacCluster] = []
    edges: list[DacEdge] = []
    declared: dict[str, DacNode] = {}
    open_cluster: tuple[str, int, list[DacNode]] | None = None
    saw_pass = False

    def close_cluster() -> None:
        nonlocal open_cluster
        if open_cluster is None:
            return
        name, line, nodes = open_cluster
        if not nodes:
            raise DacSyntaxError(f"cluster {name!r} has no nodes", line, col=3, expected="node line")
        clusters.append(DacCluster(name=name, nodes=tuple(nodes), line=line))
        open_cluster = None

    for lineno, line in enumerate(lines[1:], start=2):
        if saw_pass:
            raise DacSyntaxError("content after pass", lineno, expected="end of script")
        if line == "  pass":
            if clusters or edges or open_cluster is not None:
                raise DacSyntaxError(
                    "pass is allowed only as the sole body line", lineno, col=3
                )
            saw_pass = True
            continue
        # node lines are the only ones indented twice; cluster and edge lines
        # are told apart by their own patterns
        if line.startswith("    "):
            match = _ref_NODE_RE.fullmatch(line)
            if match is None:
                raise _ref_diagnose(line, lineno)
            if open_cluster is None:
                raise DacSyntaxError(
                    "node outside a cluster", lineno, col=5, expected="cluster header first"
                )
            ident, kind, label, annot = match.groups()
            if ident in declared:
                raise DuplicateIdentError(ident, lineno)
            node = DacNode(
                ident=ident,
                kind=kind,
                label=unescape_quoted(label),
                annotations=_ref_parse_annotations(annot, lineno),
                line=lineno,
            )
            declared[ident] = node
            open_cluster[2].append(node)
            continue
        if match := _ref_CLUSTER_RE.fullmatch(line):
            close_cluster()
            open_cluster = (unescape_quoted(match.group(1)), lineno, [])
            continue
        if match := _ref_EDGE_RE.fullmatch(line):
            close_cluster()
            src, op, dst, annot = match.groups()
            if strict:
                for ident in (src, dst):
                    if ident not in declared:
                        raise UndeclaredIdentError(ident, lineno)
            edges.append(
                DacEdge(
                    op=op,
                    src=src,
                    dst=dst,
                    annotations=_ref_parse_annotations(annot, lineno),
                    line=lineno,
                )
            )
            continue
        raise _ref_diagnose(line, lineno)
    close_cluster()

    if not clusters and not edges and not saw_pass:
        raise DacSyntaxError("empty body", len(lines) + 1, expected="cluster, edge or pass")
    return DacAst(title=title, direction=direction, clusters=tuple(clusters), edges=tuple(edges))


_ref_NODE_ANNOT_KEYS = {
    "Server": {"image", "build_context", "build_dockerfile", "container_name", "phantom"},
    "Storage": {"phantom"},
    "Network": {"phantom"},
}


def _ref_lift_node(node: DacNode):
    annots = dict(node.annotations)
    unknown = set(annots) - _ref_NODE_ANNOT_KEYS[node.kind]
    if unknown:
        raise LiftError(
            f"line {node.line}: {node.kind} annotation keys {sorted(unknown)} not understood"
        )
    phantom = annots.pop("phantom", None)
    if phantom is not None and phantom != "true":
        raise LiftError(f"line {node.line}: phantom must be 'true', got {phantom!r}")
    if node.kind == "Storage":
        return VolumeNode(node.label, phantom=phantom is not None)
    if node.kind == "Network":
        return NetworkNode(node.label, phantom=phantom is not None)
    if "build_dockerfile" in annots and "build_context" not in annots:
        raise LiftError(f"line {node.line}: build_dockerfile without build_context")
    build = None
    if "build_context" in annots:
        build = BuildRef(
            context=annots["build_context"], dockerfile=annots.get("build_dockerfile")
        )
    return ServiceNode(
        name=node.label,
        image=annots.get("image"),
        build=build,
        container_name=annots.get("container_name"),
        phantom=phantom is not None,
    )


def reference_lift(ast: DacAst) -> ArchModel:
    """Turn a parsed script into the graph model.

    Labels become node names. ``>>`` maps to Dependency; ``-`` is read off
    the endpoint kinds: service-service is Link, service-volume is Mount
    (normalized service first), service-network is Attachment. Identifiers
    that were never declared become phantom services named by their
    identifier. The result is validated, so cyclic dependencies raise here.
    """
    services: list[ServiceNode] = []
    volumes: list[VolumeNode] = []
    networks: list[NetworkNode] = []
    by_ident: dict[str, tuple[str, str]] = {}  # ident -> (kind, node name)
    for node in ast.nodes():
        lifted = _ref_lift_node(node)
        by_ident[node.ident] = (node.kind, lifted.name)
        if isinstance(lifted, ServiceNode):
            services.append(lifted)
        elif isinstance(lifted, VolumeNode):
            volumes.append(lifted)
        else:
            networks.append(lifted)

    def resolve(ident: str) -> tuple[str, str]:
        if ident not in by_ident:
            services.append(ServiceNode(ident, phantom=True))
            by_ident[ident] = ("Server", ident)
        return by_ident[ident]

    edges: list[Edge] = []
    for edge in ast.edges:
        target = None
        if edge.annotations:
            annots = dict(edge.annotations)
            unknown = set(annots) - {"target"}
            if unknown:
                raise LiftError(
                    f"line {edge.line}: edge annotation keys {sorted(unknown)} not understood"
                )
            target = annots.get("target")
        src_kind, src_name = resolve(edge.src)
        dst_kind, dst_name = resolve(edge.dst)
        if edge.op == ">>":
            if src_kind != "Server" or dst_kind != "Server":
                raise LiftError(f"line {edge.line}: >> requires service endpoints")
            if target is not None:
                raise LiftError(f"line {edge.line}: target annotation is only for mounts")
            edges.append(Edge(EdgeKind.DEPENDENCY, src_name, dst_name))
            continue
        if src_kind != "Server" and dst_kind == "Server":
            # symmetric operator: put the service on the left
            src_kind, dst_kind = dst_kind, src_kind
            src_name, dst_name = dst_name, src_name
        if src_kind != "Server":
            raise LiftError(f"line {edge.line}: - requires at least one service endpoint")
        if dst_kind == "Server":
            if target is not None:
                raise LiftError(f"line {edge.line}: target annotation is only for mounts")
            edges.append(Edge(EdgeKind.LINK, src_name, dst_name))
        elif dst_kind == "Storage":
            edges.append(Edge(EdgeKind.MOUNT, src_name, dst_name, target=target))
        else:
            if target is not None:
                raise LiftError(f"line {edge.line}: target annotation is only for mounts")
            edges.append(Edge(EdgeKind.ATTACHMENT, src_name, dst_name))

    model = ArchModel(
        title=ast.title,
        services=tuple(services),
        volumes=tuple(volumes),
        networks=tuple(networks),
        edges=tuple(edges),
    )
    model.validate()
    return model


def _error(exc: Exception) -> tuple:
    return (
        type(exc),
        str(exc),
        getattr(exc, "line", None),
        getattr(exc, "col", None),
        getattr(exc, "expected", None),
    )


def read(parse, lift_, text: str, strict: bool) -> tuple:
    """The AST and model a reader gives, with an error in place of either."""
    try:
        ast = parse(text, strict)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("parse error", _error(exc))
    try:
        return ("ok", ast, lift_(ast))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("lift error", ast, _error(exc))


def assert_reads_like_reference(text: str, strict: bool = True) -> tuple:
    got = read(parse_dac, lift, text, strict)
    assert got == read(reference_parse_dac, reference_lift, text, strict), text
    return got


def emitted_scripts() -> list[str]:
    scripts = []
    for path in sorted(CORPUS.glob("*.yml")):
        model = lower(parse_compose(path.read_text(encoding="utf-8")))
        for opts in (EmitOptions(), EmitOptions(direction="LR", group_by_role=True)):
            try:
                scripts.append(emit_dac(model, opts).text)
            except DadError:  # cyclic.yml: the emitter refuses an invalid model
                pass
    rng = random.Random(5)
    for _ in range(600):
        scripts.append(emit_dac(gen_model(rng, max_services=12)).text)
    return scripts


def test_emitted_scripts_read_like_the_reference():
    scripts = emitted_scripts()
    assert len(scripts) > 600
    for text in scripts:
        for strict in (True, False):
            outcome = assert_reads_like_reference(text, strict)
            assert outcome[0] == "ok", outcome


def drifted_pair(rng: random.Random) -> tuple[str, str]:
    old = gen_model(rng, max_services=30)
    new = old
    for _ in range(rng.randint(1, 8)):
        if len(new.services) < 2:
            break
        new, _op = mutate_model(rng, new)
    return emit_dac(old).text, emit_dac(new).text


def test_drifted_pairs_read_like_the_reference():
    rng = random.Random(7)
    for _ in range(100):
        for text in drifted_pair(rng):
            assert assert_reads_like_reference(text)[0] == "ok"


def script(*body: str) -> str:
    return 'with DaC("t", direction="TB"):\n' + "".join(line + "\n" for line in body)


CLUSTER_A = ('  with Cluster("a service"):', '    a = Server("a")')
CLUSTER_B = ('  with Cluster("b service"):', '    b = Server("b")')
CLUSTER_V = ('  with Cluster("v volume"):', '    v = Storage("v")')
CLUSTER_N = ('  with Cluster("n network"):', '    n = Network("n")')


def server_with(annotations: str) -> str:
    return script(CLUSTER_A[0], f'    a = Server("a")  # {annotations}')


# one script per error branch, with the error it must raise
MALFORMED = {
    "missing newline": ('with DaC("t", direction="TB"):\n  pass', DacSyntaxError),
    "empty text": ("", DacSyntaxError),
    "bad header": ('with DaC("t", direction="XY"):\n  pass\n', DacSyntaxError),
    "header only": ('with DaC("t", direction="TB"):\n', DacSyntaxError),
    "blank line": (script(*CLUSTER_A, ""), DacSyntaxError),
    "content after pass": (script("  pass", *CLUSTER_A), DacSyntaxError),
    "pass after a cluster": (script(*CLUSTER_A, "  pass"), DacSyntaxError),
    "pass in an open cluster": (script(CLUSTER_A[0], "  pass"), DacSyntaxError),
    "node outside a cluster": (script(CLUSTER_A[1]), DacSyntaxError),
    "node after an edge": (script(*CLUSTER_A, "  a - a", CLUSTER_B[1]), DacSyntaxError),
    "empty cluster before a cluster": (script(CLUSTER_V[0], *CLUSTER_A), DacSyntaxError),
    "empty cluster before an edge": (script(*CLUSTER_A, CLUSTER_V[0], "  a - a"), DacSyntaxError),
    "empty cluster at the end": (script(*CLUSTER_A, CLUSTER_V[0]), DacSyntaxError),
    "malformed node line": (script(CLUSTER_A[0], '    a = Thing("a")'), DacSyntaxError),
    "malformed body line": (script(*CLUSTER_A, "  a -> a"), DacSyntaxError),
    "unindented line": (script(*CLUSTER_A, "a - a"), DacSyntaxError),
    "duplicate identifier": (
        script(*CLUSTER_A, CLUSTER_V[0], '    a = Storage("v")'),
        DuplicateIdentError,
    ),
    "undeclared source": (script(*CLUSTER_A, "  b - a"), UndeclaredIdentError),
    "undeclared destination": (script(*CLUSTER_A, "  a >> b"), UndeclaredIdentError),
    "malformed annotation": (server_with("image"), DacSyntaxError),
    "empty annotation": (server_with(""), DacSyntaxError),
    "bad annotation key": (server_with("1x=y"), DacSyntaxError),
    "empty annotation key": (server_with("image=x,=y"), DacSyntaxError),
    "bad edge annotation key": (script(*CLUSTER_A, "  a - a  # tar-get=/x"), DacSyntaxError),
    "duplicate annotation key": (server_with("image=x,image=y"), DacSyntaxError),
    "duplicate unknown key": (server_with("foo=x,foo=y"), DacSyntaxError),
    "duplicate before malformed": (server_with("image=x,image=y,z"), DacSyntaxError),
    "malformed before duplicate": (server_with("image=x,z,image=y"), DacSyntaxError),
    "unknown server key": (server_with("foo=1"), LiftError),
    "unknown storage key": (
        script(*CLUSTER_A, CLUSTER_V[0], '    v = Storage("v")  # image=x'),
        LiftError,
    ),
    "unknown network key": (
        script(*CLUSTER_A, CLUSTER_N[0], '    n = Network("n")  # target=x'),
        LiftError,
    ),
    "unknown edge key": (script(*CLUSTER_A, *CLUSTER_V, "  a - v  # foo=1"), LiftError),
    "unknown edge key beside target": (
        script(*CLUSTER_A, *CLUSTER_V, "  a - v  # target=/x,foo=1"),
        LiftError,
    ),
    "phantom=false": (server_with("phantom=false"), LiftError),
    "phantom=false on a volume": (
        script(*CLUSTER_A, CLUSTER_V[0], '    v = Storage("v")  # phantom=false'),
        LiftError,
    ),
    "dockerfile without context": (server_with("build_dockerfile=D"), LiftError),
    ">> to a volume": (script(*CLUSTER_A, *CLUSTER_V, "  a >> v"), LiftError),
    ">> from a network": (script(*CLUSTER_A, *CLUSTER_N, "  n >> a"), LiftError),
    "- between volumes": (
        script(*CLUSTER_V, '  with Cluster("w volume"):', '    w = Storage("w")', "  v - w"),
        LiftError,
    ),
    "target on a dependency": (script(*CLUSTER_A, "  a >> a  # target=/x"), LiftError),
    "target on a link": (script(*CLUSTER_A, *CLUSTER_B, "  a - b  # target=/x"), LiftError),
    "target on an attachment": (script(*CLUSTER_A, *CLUSTER_N, "  n - a  # target=/x"), LiftError),
    "target on a phantom link": (script(*CLUSTER_A, "  a - ghost  # target=/x"), LiftError),
    "image and build": (server_with("image=x,build_context=."), DadError),
    "duplicate service name": (script(*CLUSTER_A, CLUSTER_B[0], CLUSTER_A[1]), DadError),
    "dependency cycle": (script(*CLUSTER_A, *CLUSTER_B, "  a >> b", "  b >> a"), DadError),
}
# read with strict off, since strict parsing would stop at the undeclared identifier
LENIENT = {"target on a phantom link"}


@pytest.mark.parametrize("name", MALFORMED)
def test_each_error_branch_reads_like_the_reference(name):
    text, error = MALFORMED[name]
    outcome = assert_reads_like_reference(text, strict=name not in LENIENT)
    raised = outcome[-1][0]
    assert outcome[0] != "ok" and issubclass(raised, error), outcome


ACCEPTED = {
    "pass": script("  pass"),
    "every annotation": script(
        CLUSTER_A[0],
        '    a = Server("a %25 \\"q\\"")  # build_context=./a%2Cb,build_dockerfile=D,'
        "container_name=c,phantom=true",
        '  with Cluster("b service"):',
        '    b = Server("b")  # image=x:1',
        *CLUSTER_V,
        *CLUSTER_N,
        "  a >> b",
        "  v - a  # target=/data%0Ax",
        "  n - b",
        "  a - b",
        "  b - v",
    ),
    "phantom nodes": script(
        CLUSTER_A[0],
        '    a = Server("a")',
        '  with Cluster("v volume"):',
        '    v = Storage("v")  # phantom=true',
        '  with Cluster("n network"):',
        '    n = Network("n")  # phantom=true',
        "  a - v  # target=/v",
        "  a - n",
    ),
    "undeclared endpoints": script(*CLUSTER_A, "  a >> ghost", "  ghost - ghost_2", "  spook - v"),
    "edges between clusters": script(*CLUSTER_A, "  a - a", *CLUSTER_V, "  a - v  # target=/x"),
    "unknown key on a good edge": script(*CLUSTER_A, "  a - a  # Zed_1=q"),
}


@pytest.mark.parametrize("name", ACCEPTED)
@pytest.mark.parametrize("strict", [True, False])
def test_accepted_scripts_read_like_the_reference(name, strict):
    assert_reads_like_reference(ACCEPTED[name], strict)


def lift_outcome(lift_, ast: DacAst):
    try:
        return lift_(ast)
    except DadError as exc:
        return _error(exc)


def test_hand_built_ast_lifts_like_the_reference():
    # an AST need not come from parse_dac; lift must read it the same way
    nodes = (
        DacNode("a", "Server", "a", (("image", "x"),), 2),
        DacNode("v", "Storage", "v", (), 3),
    )
    for annotations in [
        (("target", "/1"), ("target", "/2")),
        (("target", "/1"), ("other", "x")),
        (("other", "x"),),
    ]:
        edge = DacEdge("-", "a", "v", annotations, 4)
        ast = DacAst("t", "TB", (DacCluster("c", nodes, 1),), (edge,))
        got, want = lift_outcome(lift, ast), lift_outcome(reference_lift, ast)
        assert got == want, annotations


MUTATION_BASES = [
    *ACCEPTED.values(),
    *(emit_dac(gen_model(random.Random(seed), max_services=6)).text for seed in range(6)),
]
# characters that matter to the grammar, plus a few that do not
EDIT_CHARS = list(' "\\=,#>-()%:_\nazAZ09') + [""]

mutations = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("dup"), st.integers(0, 99)),
    st.tuples(st.just("edit"), st.integers(0, 9999), st.sampled_from(EDIT_CHARS)),
    st.tuples(st.just("insert"), st.integers(0, 9999), st.sampled_from(EDIT_CHARS)),
)


def mutate(text: str, ops) -> str:
    for op in ops:
        if op[0] == "edit" or op[0] == "insert":
            if not text:
                continue
            at = op[1] % len(text)
            rest = text[at + 1 :] if op[0] == "edit" else text[at:]
            text = text[:at] + op[2] + rest
            continue
        lines = text.split("\n")
        i = op[1] % len(lines)
        if op[0] == "drop":
            del lines[i]
        elif op[0] == "dup":
            lines.insert(i, lines[i])
        else:
            j = op[2] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(MUTATION_BASES),
    ops=st.lists(mutations, min_size=1, max_size=4),
    strict=st.booleans(),
)
def test_mutated_scripts_read_like_the_reference(base, ops, strict):
    outcome = assert_reads_like_reference(mutate(base, ops), strict)
    if outcome[0] != "ok":
        assert issubclass(outcome[-1][0], DadError), outcome


def scaled_script(n: int) -> str:
    """n services; each but the first has a dependency, a link, a mount and an attachment."""
    services = tuple(
        ServiceNode(f"s{i}", build=BuildRef(f"./s{i}", "D")) if i % 2 else ServiceNode(f"s{i}", "x")
        for i in range(n)
    )
    volumes = tuple(VolumeNode(f"v{i}") for i in range(n // 4))
    networks = tuple(NetworkNode(f"n{i}") for i in range(n // 8))
    edges = []
    for i in range(1, n):
        edges.append(Edge(EdgeKind.DEPENDENCY, f"s{i}", f"s{i - 1}"))
        edges.append(Edge(EdgeKind.LINK, f"s{i}", f"s{i // 2}"))
        edges.append(Edge(EdgeKind.MOUNT, f"s{i}", f"v{i % len(volumes)}", f"/data/{i}"))
        edges.append(Edge(EdgeKind.ATTACHMENT, f"s{i}", f"n{i % len(networks)}"))
    model = ArchModel("scale", services, volumes, networks, tuple(edges))
    return emit_dac(model).text


def test_reader_cost_is_linear_in_services():
    def best_of_3(text: str) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            lift(parse_dac(text))
            times.append(time.perf_counter() - start)
        return min(times)

    small_text, large_text = scaled_script(200), scaled_script(4000)
    assert lift(parse_dac(large_text)) == reference_lift(reference_parse_dac(large_text))
    small, large = best_of_3(small_text), best_of_3(large_text)
    # 20x the services: linear cost is ~20x
    assert large < 100 * small, (
        f"200 services {small * 1e3:.1f} ms, 4000 services {large * 1e3:.1f} ms"
    )
