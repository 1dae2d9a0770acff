"""Diagram script ingestion: DaC text -> AST -> ArchModel -> descriptor text.

This is the inverse pipeline. parse_dac accepts exactly the grammar that
dac_emit writes (see the grammar block there); lift turns the AST back into
the graph model; emit_compose renders the model as descriptor text containing
exactly the retained subset. Columns are fixed by the indentation grammar
(clusters and edges start at column 3, nodes at column 5), so elements track
their line number only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class DacNode:
    ident: str
    kind: str  # Server | Storage | Network
    label: str
    annotations: Annotations = ()
    line: int = 0


@dataclass(frozen=True)
class DacCluster:
    name: str
    nodes: tuple[DacNode, ...] = ()
    line: int = 0


@dataclass(frozen=True)
class DacEdge:
    op: str  # ">>" | "-"
    src: str
    dst: str
    annotations: Annotations = ()
    line: int = 0


@dataclass(frozen=True)
class DacAst:
    title: str
    direction: str
    clusters: tuple[DacCluster, ...] = ()
    edges: tuple[DacEdge, ...] = ()

    def nodes(self) -> tuple[DacNode, ...]:
        return tuple(node for cluster in self.clusters for node in cluster.nodes)


def _parse_annotations(raw: str | None, lineno: int) -> Annotations:
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
        if not _KEY_RE.fullmatch(key):
            raise DacSyntaxError(f"bad annotation key {key!r}", lineno, expected="key=value")
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


def parse_dac(text: str, strict: bool = True) -> DacAst:
    """Parse a diagram script into its AST.

    Strict mode requires every edge identifier to be declared in a cluster;
    with strict off, unknown identifiers are left for lift to resolve as
    phantom services. Everything else about the grammar is always enforced,
    including the one-pass-only empty body and nonempty clusters.
    """
    if not text.endswith("\n"):
        raise DacSyntaxError("missing trailing newline", max(text.count("\n") + 1, 1))
    lines = text.split("\n")[:-1]
    header = _HEADER_RE.fullmatch(lines[0]) if lines else None
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
            match = _NODE_RE.fullmatch(line)
            if match is None:
                raise _diagnose(line, lineno)
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
                annotations=_parse_annotations(annot, lineno),
                line=lineno,
            )
            declared[ident] = node
            open_cluster[2].append(node)
            continue
        if match := _CLUSTER_RE.fullmatch(line):
            close_cluster()
            open_cluster = (unescape_quoted(match.group(1)), lineno, [])
            continue
        if match := _EDGE_RE.fullmatch(line):
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
                    annotations=_parse_annotations(annot, lineno),
                    line=lineno,
                )
            )
            continue
        raise _diagnose(line, lineno)
    close_cluster()

    if not clusters and not edges and not saw_pass:
        raise DacSyntaxError("empty body", len(lines) + 1, expected="cluster, edge or pass")
    return DacAst(title=title, direction=direction, clusters=tuple(clusters), edges=tuple(edges))


_NODE_ANNOT_KEYS = {
    "Server": {"image", "build_context", "build_dockerfile", "container_name", "phantom"},
    "Storage": {"phantom"},
    "Network": {"phantom"},
}


def _lift_node(node: DacNode):
    annots = dict(node.annotations)
    unknown = set(annots) - _NODE_ANNOT_KEYS[node.kind]
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
    for node in ast.nodes():
        lifted = _lift_node(node)
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
