"""Diagram script ingestion: DaC text -> AST -> ArchModel -> descriptor text.

This is the inverse pipeline. parse_dac accepts exactly the grammar that
dac_emit writes (see the grammar block there); lift turns the AST back into
the graph model; emit_compose renders the model as descriptor text containing
exactly the retained subset. Columns are fixed by the indentation grammar
(clusters and edges start at column 3, nodes at column 5), so elements track
their line number only.

The reader is a single pass: parse_dac visits each line once, matching it
against one pattern chosen by its indentation (node lines) or against the
edge and then the cluster pattern, and lift visits each node and edge once.
"""

from __future__ import annotations

import re
from itertools import islice

from .dac_emit import decode_annot_value, unescape_quoted
from .errors import (
    DacSyntaxError,
    DuplicateIdentError,
    EmitError,
    LiftError,
    ModelError,
    UndeclaredIdentError,
)
from .model import (
    ArchModel,
    BuildRef,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    record,
)
from . import compose

_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_IDENT = r"([a-z_][a-z0-9_]*)"
_ANNOT = r"(?:  # (.*))?"
_HEADER_RE = re.compile(rf"with DaC\({_QUOTED}, direction=\"(TB|LR)\"\):")
_CLUSTER_RE = re.compile(rf"  with Cluster\({_QUOTED}\):")
_NODE_RE = re.compile(rf"    {_IDENT} = (Server|Storage|Network)\({_QUOTED}\){_ANNOT}")
_EDGE_RE = re.compile(rf"  {_IDENT} (>>|-) {_IDENT}{_ANNOT}")
_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

Annotations = tuple[tuple[str, str], ...]


@record
class DacNode:
    ident: str
    kind: str  # Server | Storage | Network
    label: str
    annotations: Annotations = ()
    line: int = 0


@record
class DacCluster:
    name: str
    nodes: tuple[DacNode, ...] = ()
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
    clusters: tuple[DacCluster, ...] = ()
    edges: tuple[DacEdge, ...] = ()

    def nodes(self) -> tuple[DacNode, ...]:
        return tuple(node for cluster in self.clusters for node in cluster.nodes)


_NODE_ANNOT_KEYS = {
    "Server": frozenset(
        {"image", "build_context", "build_dockerfile", "container_name", "phantom"}
    ),
    "Storage": frozenset({"phantom"}),
    "Network": frozenset({"phantom"}),
}
# keys lift understands are well formed; only other keys need _KEY_RE
_KNOWN_ANNOT_KEYS = frozenset({"target"}).union(*_NODE_ANNOT_KEYS.values())


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


def _close_cluster(clusters: list[DacCluster], name: str, line: int, nodes: list[DacNode]) -> None:
    if not nodes:
        raise DacSyntaxError(f"cluster {name!r} has no nodes", line, col=3, expected="node line")
    clusters.append(DacCluster(name, tuple(nodes), line))


def parse_dac(text: str, strict: bool = True) -> DacAst:
    """Parse a diagram script into its AST.

    Strict mode requires every edge identifier to be declared in a cluster;
    with strict off, unknown identifiers are left for lift to resolve as
    phantom services. Everything else about the grammar is always enforced,
    including the one-pass-only empty body and nonempty clusters.
    """
    if not text.endswith("\n"):
        raise DacSyntaxError("missing trailing newline", max(text.count("\n") + 1, 1))
    lines = text.split("\n")
    lines.pop()  # the empty string after the final newline
    header = _HEADER_RE.fullmatch(lines[0]) if lines else None
    if header is None:
        raise DacSyntaxError(
            "malformed header",
            1,
            expected='with DaC("title", direction="TB|LR"):',
        )
    title, direction = unescape_quoted(header.group(1)), header.group(2)

    match_node, match_edge, match_cluster = (
        _NODE_RE.fullmatch,
        _EDGE_RE.fullmatch,
        _CLUSTER_RE.fullmatch,
    )
    clusters: list[DacCluster] = []
    edges: list[DacEdge] = []
    declared: dict[str, DacNode] = {}
    # the open cluster; nodes is None while no cluster is open
    cluster_name, cluster_line, nodes = "", 0, None
    saw_pass = False
    for lineno, line in enumerate(islice(lines, 1, None), 2):
        if saw_pass:
            raise DacSyntaxError("content after pass", lineno, expected="end of script")
        # node lines are the only ones indented twice; edge and cluster lines
        # are told apart by their own patterns, which never both match
        if line.startswith("    "):
            match = match_node(line)
            if match is None:
                raise _diagnose(line, lineno)
            if nodes is None:
                raise DacSyntaxError(
                    "node outside a cluster", lineno, col=5, expected="cluster header first"
                )
            ident, kind, label, annot = match.groups()
            if ident in declared:
                raise DuplicateIdentError(ident, lineno)
            node = declared[ident] = DacNode(
                ident,
                kind,
                unescape_quoted(label),
                () if annot is None else _parse_annotations(annot, lineno),
                lineno,
            )
            nodes.append(node)
        elif match := match_edge(line):
            if nodes is not None:
                _close_cluster(clusters, cluster_name, cluster_line, nodes)
                nodes = None
            src, op, dst, annot = match.groups()
            if strict:
                if src not in declared:
                    raise UndeclaredIdentError(src, lineno)
                if dst not in declared:
                    raise UndeclaredIdentError(dst, lineno)
            edges.append(
                DacEdge(
                    op,
                    src,
                    dst,
                    () if annot is None else _parse_annotations(annot, lineno),
                    lineno,
                )
            )
        elif match := match_cluster(line):
            if nodes is not None:
                _close_cluster(clusters, cluster_name, cluster_line, nodes)
            cluster_name, cluster_line, nodes = unescape_quoted(match.group(1)), lineno, []
        elif line == "  pass":
            if clusters or edges or nodes is not None:
                raise DacSyntaxError(
                    "pass is allowed only as the sole body line", lineno, col=3
                )
            saw_pass = True
        else:
            raise _diagnose(line, lineno)
    if nodes is not None:
        _close_cluster(clusters, cluster_name, cluster_line, nodes)

    if not clusters and not edges and not saw_pass:
        raise DacSyntaxError("empty body", len(lines) + 1, expected="cluster, edge or pass")
    return DacAst(title, direction, tuple(clusters), tuple(edges))


def _lift_node(node: DacNode):
    kind = node.kind
    annots = dict(node.annotations)
    allowed = _NODE_ANNOT_KEYS[kind]
    if not annots.keys() <= allowed:
        unknown = sorted(annots.keys() - allowed)
        raise LiftError(f"line {node.line}: {kind} annotation keys {unknown} not understood")
    phantom = annots.pop("phantom", None)
    if phantom is not None and phantom != "true":
        raise LiftError(f"line {node.line}: phantom must be 'true', got {phantom!r}")
    if kind == "Storage":
        return VolumeNode(node.label, phantom is not None)
    if kind == "Network":
        return NetworkNode(node.label, phantom is not None)
    if "build_dockerfile" in annots and "build_context" not in annots:
        raise LiftError(f"line {node.line}: build_dockerfile without build_context")
    build = None
    if "build_context" in annots:
        build = BuildRef(annots["build_context"], annots.get("build_dockerfile"))
    return ServiceNode(
        node.label,
        annots.get("image"),
        build,
        annots.get("container_name"),
        phantom is not None,
    )


def _edge_target(edge: DacEdge) -> str | None:
    annots = dict(edge.annotations)
    unknown = annots.keys() - {"target"}
    if unknown:
        raise LiftError(f"line {edge.line}: edge annotation keys {sorted(unknown)} not understood")
    return annots.get("target")


def lift(ast: DacAst) -> ArchModel:
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
    for cluster in ast.clusters:
        for node in cluster.nodes:
            kind = node.kind
            lifted = _lift_node(node)
            by_ident[node.ident] = (kind, lifted.name)
            if kind == "Server":
                services.append(lifted)
            elif kind == "Storage":
                volumes.append(lifted)
            else:
                networks.append(lifted)

    edges: list[Edge] = []
    for edge in ast.edges:
        annots = edge.annotations
        if not annots:
            target = None
        elif len(annots) == 1 and annots[0][0] == "target":
            target = annots[0][1]
        else:
            target = _edge_target(edge)
        # an identifier never declared is a phantom service, added on first use
        src = by_ident.get(edge.src)
        if src is None:
            services.append(ServiceNode(edge.src, phantom=True))
            src = by_ident[edge.src] = ("Server", edge.src)
        dst = by_ident.get(edge.dst)
        if dst is None:
            services.append(ServiceNode(edge.dst, phantom=True))
            dst = by_ident[edge.dst] = ("Server", edge.dst)
        src_kind, src_name = src
        dst_kind, dst_name = dst
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
        if dst_kind == "Storage":
            edges.append(Edge(EdgeKind.MOUNT, src_name, dst_name, target))
            continue
        if target is not None:
            raise LiftError(f"line {edge.line}: target annotation is only for mounts")
        kind = EdgeKind.LINK if dst_kind == "Server" else EdgeKind.ATTACHMENT
        edges.append(Edge(kind, src_name, dst_name))

    model = ArchModel(ast.title, tuple(services), tuple(volumes), tuple(networks), tuple(edges))
    model.validate()
    return model


def _mount_item(edge: Edge) -> str | dict:
    if compose.needs_long_mount(edge.target):
        return {"type": "volume", "source": edge.dst, "target": edge.target}
    return f"{edge.dst}:{edge.target}"


def emit_compose(model: ArchModel) -> str:
    """Render the model as descriptor text holding exactly the retained subset.

    Key order follows model order. Phantom nodes are not declared (they were
    never declared in any descriptor) but edges to them remain, so a lenient
    reparse resynthesizes them. Mount edges need their target path back;
    refusing to invent one keeps the round trip honest.
    """
    try:
        model.validate()
    except ModelError as exc:
        raise EmitError(f"refusing to emit invalid model: {exc}") from exc

    by_service: dict[str, dict[EdgeKind, list[Edge]]] = {}
    for edge in model.edges:
        if edge.kind is EdgeKind.MOUNT and edge.target is None:
            raise EmitError(
                f"mount {edge.src} - {edge.dst} has no target path; cannot place it in a descriptor"
            )
        by_service.setdefault(edge.src, {}).setdefault(edge.kind, []).append(edge)

    services: dict[str, dict | None] = {}
    for node in model.services:
        if node.phantom and not by_service.get(node.name):
            continue  # pure reference targets stay undeclared, as in the source
        body: dict = {}
        if node.image is not None:
            body["image"] = node.image
        if node.build is not None:
            if node.build.dockerfile is None:
                body["build"] = node.build.context
            else:
                body["build"] = {
                    "context": node.build.context,
                    "dockerfile": node.build.dockerfile,
                }
        if node.container_name is not None:
            body["container_name"] = node.container_name
        mine = by_service.get(node.name, {})
        if EdgeKind.DEPENDENCY in mine:
            body["depends_on"] = [e.dst for e in mine[EdgeKind.DEPENDENCY]]
        if EdgeKind.LINK in mine:
            body["links"] = [e.dst for e in mine[EdgeKind.LINK]]
        if EdgeKind.MOUNT in mine:
            body["volumes"] = [_mount_item(e) for e in mine[EdgeKind.MOUNT]]
        if EdgeKind.ATTACHMENT in mine:
            body["networks"] = [e.dst for e in mine[EdgeKind.ATTACHMENT]]
        services[node.name] = body or None

    doc: dict = {"services": services}
    declared_volumes = [v.name for v in model.volumes if not v.phantom]
    declared_networks = [n.name for n in model.networks if not n.phantom]
    if declared_volumes:
        doc["volumes"] = {name: None for name in declared_volumes}
    if declared_networks:
        doc["networks"] = {name: None for name in declared_networks}
    return compose.dump_yaml(doc)
