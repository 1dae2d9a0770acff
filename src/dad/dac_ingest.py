"""Diagram script ingestion: DaC text -> AST -> ArchModel -> descriptor text.

This is the inverse pipeline. parse_dac accepts exactly the grammar that
dac_emit writes (see the grammar block there); lift turns the AST back into
the graph model; emit_compose renders the model as descriptor text containing
exactly the retained subset. It is ``serialize_compose(unlower(model))`` from
``compose``, so it writes mounts and builds as every descriptor is written.
Columns are fixed by the indentation grammar (clusters and edges start at
column 3, nodes at column 5), so elements track their line number only.

The reader is a single pass. parse_dac checks the header, then scans the
body with one line pattern, one match at a time: a match per line, back to
back, holding the fields of a node, an edge or a cluster line, or else the
whole line, which is "  pass" or is handed to _diagnose for the error.
Quoted spans never cross a line end, so a match never does either, and a
line's number is its match's place. The pattern reads a mount's lone target
itself; other annotations are split by _parse_annotations, each distinct
node annotation text once per script. lift then visits each node and edge
once.

The AST is flat: DacAst holds the title, the direction, the nodes in script
order and the edges. A cluster header is layout only. The reader checks that
each cluster holds a node, but keeps neither its name nor its grouping, so
regrouping a script's nodes never changes its model.
"""

from __future__ import annotations

import re

from .errors import (
    DacSyntaxError,
    DuplicateIdentError,
    EmitError,
    LiftError,
    ModelError,
    UndeclaredIdentError,
)
from .model import (
    _EDGE_DST,
    _SERVICE_ATTRS,
    ArchModel,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    _service_node,
    record,
)

# the constructor word of each node class, for the emitters and this reader
_KIND_BY_NODE = {ServiceNode: "Server", VolumeNode: "Storage", NetworkNode: "Network"}
# the named escapes of a quoted span; dac_emit writes them by inverting this
_NAMED_CONTROLS = {"n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(x[0-9a-f]{2}|.)", re.DOTALL)


def _unescape_one(match: re.Match) -> str:
    seq = match.group(1)
    return chr(int(seq[1:], 16)) if len(seq) == 3 else _NAMED_CONTROLS.get(seq, seq)


def unescape_quoted(value: str) -> str:
    """Exact inverse of dac_emit.escape_quoted; any other ``\\c`` reads as ``c``."""
    if "\\" not in value:
        return value
    return _ESCAPE_RE.sub(_unescape_one, value)


def decode_annot_value(value: str) -> str:
    if "%" not in value:
        return value
    return (
        value.replace("%20", " ")
        .replace("%0A", "\n")
        .replace("%0D", "\r")
        .replace("%2C", ",")
        .replace("%25", "%")
    )


# a quoted span never crosses a line end, so the body scan below stays per line
_QUOTED = r'"([^"\\\n]*(?:\\.[^"\\\n]*)*)"'
_IDENT = r"([a-z_][a-z0-9_]*)"
_ANNOT = r"(  # .*)?"  # None when absent; the text after "  # " may itself be empty
_HEADER_RE = re.compile(rf"with DaC\({_QUOTED}, direction=\"(TB|LR)\"\):")
# the node constructor words, as alternatives
_KINDS = "|".join(_KIND_BY_NODE.values())
# One body line per match, matches back to back from the line after the
# header: a node, an edge or a cluster line, or else the whole line with its
# newline in the last group ("  pass", or a line _diagnose explains). An
# edge's annotation that is one target with no "%" or "," in its value, the
# common mount, is read here as that value; every other annotation is left
# to _parse_annotations.
_LINE_RE = re.compile(
    rf"    {_IDENT} = ({_KINDS})\({_QUOTED}\){_ANNOT}\n"
    rf"|  {_IDENT} (>>|-) {_IDENT}(?:  # target=([^,%\n]*)|{_ANNOT})\n"
    rf"|  with Cluster\({_QUOTED}\):\n"
    r"|(.*\n)"
)
_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Annotations = tuple[tuple[str, str], ...]


@record
class DacNode:
    ident: str
    kind: str  # a constructor word of _KIND_BY_NODE
    label: str
    annotations: Annotations = ()
    line: int = 0


@record
class DacEdge:
    op: str  # ">>" | "-"
    src: str
    dst: str
    annotations: Annotations = ()
    line: int = 0


@record
class DacAst:
    title: str
    direction: str
    nodes: tuple[DacNode, ...] = ()  # in script order; cluster headers are layout only
    edges: tuple[DacEdge, ...] = ()


# the annotation keys each constructor word's node understands
_NODE_ANNOT_KEYS = {
    kind: frozenset(("phantom", *(_SERVICE_ATTRS if node_type is ServiceNode else ())))
    for node_type, kind in _KIND_BY_NODE.items()
}
# keys lift understands are well formed; only other keys need _KEY_RE
_EDGE_ANNOT_KEYS = frozenset({"target"})
_KNOWN_ANNOT_KEYS = _EDGE_ANNOT_KEYS.union(*_NODE_ANNOT_KEYS.values())


def _parse_annotations(raw: str, lineno: int) -> Annotations:
    parts = raw.split(",")
    # a single pair cannot repeat a key
    seen: set[str] | None = set() if len(parts) > 1 else None
    pairs: list[tuple[str, str]] = []
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            raise DacSyntaxError(
                f"malformed annotation {part!r}", lineno, expected="key=value"
            )
        if key not in _KNOWN_ANNOT_KEYS and not _KEY_RE.fullmatch(key):
            raise DacSyntaxError(f"bad annotation key {key!r}", lineno, expected="key=value")
        if seen is not None:
            if key in seen:
                raise DacSyntaxError(f"duplicate annotation key {key!r}", lineno)
            seen.add(key)
        pairs.append((key, decode_annot_value(value)))
    return tuple(pairs)


def _diagnose(line: str, lineno: int) -> DacSyntaxError:
    if not line.strip():
        return DacSyntaxError("blank line", lineno, expected="cluster, node or edge line")
    if line.startswith("    "):
        return DacSyntaxError(
            f"malformed node line {line.strip()!r}",
            lineno,
            col=5,
            expected=f'ident = {_KINDS}("label")',
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


def _empty_cluster(name: str, line: int) -> DacSyntaxError:
    return DacSyntaxError(
        f"cluster {unescape_quoted(name)!r} has no nodes", line, col=3, expected="node line"
    )


def parse_dac(text: str, strict: bool = True) -> DacAst:
    """Parse a diagram script into its AST.

    Strict mode requires every edge identifier to be declared in a cluster;
    with strict off, unknown identifiers are left for lift to resolve as
    phantom services. Everything else about the grammar is always enforced,
    including the one-pass-only empty body and nonempty clusters. The AST
    lists the nodes in script order; cluster names are checked, not kept.
    """
    if not text.endswith("\n"):
        raise DacSyntaxError("missing trailing newline", max(text.count("\n") + 1, 1))
    body = text.find("\n") + 1
    header = _HEADER_RE.fullmatch(text, 0, body - 1)
    if header is None:
        raise DacSyntaxError(
            "malformed header",
            1,
            expected='with DaC("title", direction="TB|LR"):',
        )
    title, direction = unescape_quoted(header.group(1)), header.group(2)

    edges: list[DacEdge] = []
    declared: dict[str, DacNode] = {}
    # a node annotation text -> its pairs; scripts repeat most of them
    node_annots: dict[str, Annotations] = {}
    # the open cluster: its quoted name, its line (0 while none is open) and
    # how many nodes were declared when it opened
    cluster_name, cluster_line, opened_at = "", 0, 0
    saw_pass = False
    # a match's groups are None where they did not take part
    for lineno, match in enumerate(_LINE_RE.finditer(text, body), 2):
        ident, kind, label, annot, src, op, dst, target, edge_annot, name, other = match.groups()
        if saw_pass:
            raise DacSyntaxError("content after pass", lineno, expected="end of script")
        if kind:
            if not cluster_line:
                raise DacSyntaxError(
                    "node outside a cluster", lineno, col=5, expected="cluster header first"
                )
            if ident in declared:
                raise DuplicateIdentError(ident, lineno)
            if annot:
                pairs = node_annots.get(annot)
                if pairs is None:
                    pairs = node_annots[annot] = _parse_annotations(annot[4:], lineno)
            else:
                pairs = ()
            declared[ident] = DacNode(ident, kind, unescape_quoted(label), pairs, lineno)
        elif op:
            if cluster_line and len(declared) == opened_at:
                raise _empty_cluster(cluster_name, cluster_line)
            cluster_line = 0
            if strict:
                if src not in declared:
                    raise UndeclaredIdentError(src, lineno)
                if dst not in declared:
                    raise UndeclaredIdentError(dst, lineno)
            if target is not None:
                pairs = (("target", target),)
            elif edge_annot:
                pairs = _parse_annotations(edge_annot[4:], lineno)
            else:
                pairs = ()
            edges.append(DacEdge(op, src, dst, pairs, lineno))
        elif not other:
            if cluster_line and len(declared) == opened_at:
                raise _empty_cluster(cluster_name, cluster_line)
            cluster_name, cluster_line, opened_at = name, lineno, len(declared)
        elif other == "  pass\n":
            # every body line before it opened a cluster or is an edge
            if cluster_line or edges:
                raise DacSyntaxError(
                    "pass is allowed only as the sole body line", lineno, col=3
                )
            saw_pass = True
        else:
            raise _diagnose(other[:-1], lineno)
    if cluster_line and len(declared) == opened_at:
        raise _empty_cluster(cluster_name, cluster_line)

    if not declared and not edges and not saw_pass:
        raise DacSyntaxError("empty body", text.count("\n") + 1, expected="cluster, edge or pass")
    return DacAst(title, direction, tuple(declared.values()), tuple(edges))


_NODE_TYPE = {kind: node_type for node_type, kind in _KIND_BY_NODE.items()}
# The kind of a "-" edge by the class of its second end, lift having put a
# service end first: the model's _EDGE_DST read backwards, less ">>"'s Dependency.
_UNDIRECTED = {cls: kind for kind, cls in _EDGE_DST.items() if kind is not EdgeKind.DEPENDENCY}


def _understood(annotations: Annotations, allowed: frozenset[str], what: str, line: int) -> dict[str, str]:
    annots = dict(annotations)
    if not annots.keys() <= allowed:
        unknown = sorted(annots.keys() - allowed)
        raise LiftError(f"line {line}: {what} annotation keys {unknown} not understood")
    return annots


def _lift_node(kind: str, label: str, annotations: Annotations, line: int):
    node_type = _NODE_TYPE[kind]
    if not annotations:
        return node_type(label)
    annots = _understood(annotations, _NODE_ANNOT_KEYS[kind], kind, line)
    phantom = annots.pop("phantom", None)
    if phantom is not None and phantom != "true":
        raise LiftError(f"line {line}: phantom must be 'true', got {phantom!r}")
    if node_type is not ServiceNode:
        return node_type(label, phantom is not None)
    try:
        return _service_node(label, annots, phantom is not None)
    except ModelError as exc:
        raise LiftError(f"line {line}: {exc}") from exc


def lift(ast: DacAst) -> ArchModel:
    """Turn a parsed script into the graph model.

    Nodes are read in script order, whatever clusters held them, and labels
    become node names. ``>>`` maps to Dependency; ``-`` is read off
    the endpoint kinds through ``_UNDIRECTED``, the model's edge table read
    backwards: service-service is Link, service-volume is Mount (normalized
    service first), service-network is Attachment. Identifiers that were
    never declared become phantom services named by their identifier. A
    volume mounted twice at one target by one service raises, at the line of
    the second mount. The result is validated, so cyclic dependencies raise
    here.
    """
    services: list[ServiceNode] = []
    volumes: list[VolumeNode] = []
    networks: list[NetworkNode] = []
    by_ident: dict[str, tuple[type, str]] = {}  # ident -> (node class, node name)
    nodes_of = {ServiceNode: services, VolumeNode: volumes, NetworkNode: networks}
    for ident, kind, label, annotations, line in ast.nodes:
        node = _lift_node(kind, label, annotations, line)
        by_ident[ident] = (node.__class__, label)  # a node is named by its label
        nodes_of[node.__class__].append(node)

    def phantom(ident: str) -> tuple[type, str]:
        # an identifier never declared is a phantom service, added on first use
        services.append(ServiceNode(ident, phantom=True))
        end = by_ident[ident] = (ServiceNode, ident)
        return end

    edges: list[Edge] = []
    # a mount is one volume at one target; compose._parse_mounts refuses a
    # repeat, so a descriptor could not hold the model
    mounts: set[tuple[str, str, str]] = set()
    # bound once, not read off the Enum class per edge
    dependency, mount = EdgeKind.DEPENDENCY, EdgeKind.MOUNT
    for op, src_ident, dst_ident, annotations, line in ast.edges:
        if not annotations:
            target = None
        elif len(annotations) == 1 and annotations[0][0] == "target":
            target = annotations[0][1]
        else:
            target = _understood(annotations, _EDGE_ANNOT_KEYS, "edge", line).get("target")
        src_type, src_name = by_ident.get(src_ident) or phantom(src_ident)
        dst_type, dst_name = by_ident.get(dst_ident) or phantom(dst_ident)
        if op == ">>":
            if src_type is not ServiceNode or dst_type is not ServiceNode:
                raise LiftError(f"line {line}: >> requires service endpoints")
            kind = dependency
        else:
            if src_type is not ServiceNode and dst_type is ServiceNode:
                # symmetric operator: put the service on the left
                src_type, dst_type = dst_type, src_type
                src_name, dst_name = dst_name, src_name
            if src_type is not ServiceNode:
                raise LiftError(f"line {line}: - requires at least one service endpoint")
            kind = _UNDIRECTED[dst_type]
        if target is not None:
            if kind is not mount:
                raise LiftError(f"line {line}: target annotation is only for mounts")
            placed = (src_name, dst_name, target)
            if placed in mounts:
                raise LiftError(f"line {line}: mounts {dst_name}:{target} twice")
            mounts.add(placed)
        edges.append(Edge(kind, src_name, dst_name, target))

    model = ArchModel(ast.title, tuple(services), tuple(volumes), tuple(networks), tuple(edges))
    model.validate()
    return model


def _checked(model: ArchModel) -> ArchModel:
    """The guard of every emitter: the model, once valid and free of repeated mounts."""
    try:
        model.validate()
    except ModelError as exc:
        raise EmitError(f"refusing to emit invalid model: {exc}") from exc
    # lift and compose._parse_mounts refuse a volume mounted twice at one
    # target, so no script or descriptor holding it would read back
    mount = EdgeKind.MOUNT
    mounts: set[tuple[str, str, str]] = set()
    for kind, src, dst, target in model.edges:
        if kind is mount and target is not None:
            if (src, dst, target) in mounts:
                raise EmitError(f"{src} mounts {dst}:{target} twice; a descriptor cannot hold it")
            mounts.add((src, dst, target))
    return model


def emit_compose(model: ArchModel) -> str:
    """Render the model as descriptor text holding exactly the retained subset.

    This is ``serialize_compose(unlower(model))``, so mounts and builds are
    written as ``dad`` writes them from any descriptor. Key order follows
    model order. As ``unlower`` says, a phantom node stays undeclared only
    where a lenient reparse gives it back, and an edge no descriptor can hold
    is refused (EmitError). So is a model that fails the emitters' guard:
    one that fails ``ArchModel.validate`` or mounts a volume twice at one
    target.
    """
    from . import compose

    return compose.serialize_compose(compose.unlower(_checked(model)))
