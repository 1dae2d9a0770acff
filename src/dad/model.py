"""Architecture meta-model: service/volume/network nodes plus typed edges.

The model keeps two orders at once. Node and edge tuples preserve the order in
which elements appeared in the source text, so emission is order-faithful.
``keyed`` projects a model onto unsorted lookup tables of names and edges,
and ``canonicalize`` sorts those into a :class:`CanonicalForm`, which is the
equality oracle: two models are "the same architecture" exactly when their
canonical forms are equal. The diff compares lookup tables directly.

All values are immutable records, made by :func:`record`, and every operation
here is a pure function. A record keeps its fields' order, defaults and
keyword construction, prints as ``Name(field=value, ...)``, hashes by value,
and copies and pickles by value. Assigning to one raises ``AttributeError``.
It equals only a record of its own type, so ``VolumeNode("a")`` differs from
``NetworkNode("a")`` and an ``Edge`` from the plain tuple of its fields.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum
from itertools import chain

from .errors import CycleError, ModelError


def record(cls: type) -> type:
    """Class decorator: make the annotated class body an immutable record.

    The annotations name the fields in order, and a class attribute of the
    same name is that field's default. The record is a ``collections.namedtuple``
    underneath with the guarantees the module docstring lists; unlike a plain
    named tuple it equals no other type. It still iterates, indexes and orders
    as a tuple. A record runs no check when built, since ``tuple.__new__``
    would build one past any check; the code that reads a value checks it.
    So a body that defines ``__post_init__`` is refused. The body's methods
    and properties carry over, but cannot call ``super()`` without arguments.
    """
    body = dict(vars(cls))
    if "__post_init__" in body:
        raise TypeError(f"{cls.__name__}: records run no __post_init__; check values where they are read")
    names = tuple(cls.__annotations__)
    has_default = [name in body for name in names]
    if has_default != sorted(has_default):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    base = namedtuple(
        cls.__name__,
        names,
        defaults=[body.pop(name) for name in names if name in body],
        module=cls.__module__,
    )
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(__slots__=(), __eq__=_record_eq, __ne__=object.__ne__, __hash__=tuple.__hash__)
    return type(cls.__name__, (base,), body)


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    # A tuple subclass's reflected __eq__ runs first, even with a plain tuple
    # on the left, so NotImplemented here would let tuple equality decide.
    return False if isinstance(other, tuple) else NotImplemented


class EdgeKind(Enum):
    DEPENDENCY = "dependency"
    LINK = "link"
    MOUNT = "mount"
    ATTACHMENT = "attachment"

    # members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is a Python function, and kinds key every edge lookup
    __hash__ = object.__hash__


@record
class BuildRef:
    """Image build source: a context directory and an optional dockerfile."""

    context: str
    dockerfile: str | None = None


@record
class ServiceNode:
    name: str
    image: str | None = None
    build: BuildRef | None = None
    container_name: str | None = None
    phantom: bool = False


# A service's retained attributes, in script order. The keys are the words of
# the script's node annotations and of diff subjects; _attr_pairs and
# _service_node are each other's inverse.
_SERVICE_ATTRS = ("image", "build_context", "build_dockerfile", "container_name")
_IMAGE, _BUILD_CONTEXT, _BUILD_DOCKERFILE, _CONTAINER_NAME = _SERVICE_ATTRS


def _attr_pairs(service: ServiceNode) -> tuple[tuple[str, str], ...]:
    """The service's set attributes as (key, value) pairs, in script order."""
    _, image, build, container_name, _ = service
    pairs = [] if image is None else [(_IMAGE, image)]
    if build is not None:
        context, dockerfile = build
        pairs.append((_BUILD_CONTEXT, context))
        if dockerfile is not None:
            pairs.append((_BUILD_DOCKERFILE, dockerfile))
    if container_name is not None:
        pairs.append((_CONTAINER_NAME, container_name))
    return tuple(pairs)


def _service_node(name: str, attrs: dict[str, str], phantom: bool = False) -> ServiceNode:
    """The service whose _attr_pairs ``attrs`` holds; ModelError if no service can hold them."""
    get = attrs.get
    context = get(_BUILD_CONTEXT)
    if context is None and _BUILD_DOCKERFILE in attrs:
        raise ModelError(f"{_BUILD_DOCKERFILE} without {_BUILD_CONTEXT}")
    build = None if context is None else BuildRef(context, get(_BUILD_DOCKERFILE))
    return ServiceNode(name, get(_IMAGE), build, get(_CONTAINER_NAME), phantom)


@record
class VolumeNode:
    name: str
    phantom: bool = False


@record
class NetworkNode:
    name: str
    phantom: bool = False


# Endpoint typing: the node class of an edge's destination, per edge kind.
# Sources are always services. Kinds keep separate namespaces, so a service
# and a volume may share a name.
_EDGE_DST = {
    EdgeKind.DEPENDENCY: ServiceNode,
    EdgeKind.LINK: ServiceNode,
    EdgeKind.MOUNT: VolumeNode,
    EdgeKind.ATTACHMENT: NetworkNode,
}
_NODE_NOUN = {ServiceNode: "service", VolumeNode: "volume", NetworkNode: "network"}


@record
class Edge:
    """Typed relation between named nodes.

    ``target`` is the one permitted annotation and is only meaningful on mount
    edges, where it holds the in-container mount path. A dependency edge points
    from the dependent service to the service it depends on.
    """

    kind: EdgeKind
    src: str
    dst: str
    target: str | None = None


@record
class ArchModel:
    """The architecture graph, in source order.

    ``title`` is diagram metadata (defaults to the descriptor file stem at the
    CLI); it does not participate in canonical equality. Phantom nodes are
    synthesized placeholders for dangling references and are likewise excluded
    from equality, but kept on the graph so diagrams can show them.
    """

    title: str = "system"
    services: tuple[ServiceNode, ...] = ()
    volumes: tuple[VolumeNode, ...] = ()
    networks: tuple[NetworkNode, ...] = ()
    edges: tuple[Edge, ...] = ()

    @property
    def phantom_names(self) -> tuple[str, ...]:
        nodes = (*self.services, *self.volumes, *self.networks)
        return tuple(n.name for n in nodes if n.phantom)

    def validate(self) -> None:
        """Check every structural invariant; raise ModelError/CycleError on the first hit."""
        nodes_of = {ServiceNode: self.services, VolumeNode: self.volumes, NetworkNode: self.networks}
        names_of_type = {
            node_type: _unique_names(_NODE_NOUN[node_type], nodes)
            for node_type, nodes in nodes_of.items()
        }
        service_names = names_of_type[ServiceNode]
        names_of = {kind: names_of_type[node_type] for kind, node_type in _EDGE_DST.items()}
        mount = EdgeKind.MOUNT  # bound once, not read off the Enum class per edge

        for name, image, build, _, _ in self.services:
            if image is not None and build is not None:
                raise ModelError(f"service {name!r} declares both image and build")

        for kind, src, dst, target in self.edges:
            if src not in service_names:
                raise ModelError(f"{kind.value} edge source {src!r} is not a declared service")
            if dst not in names_of[kind]:
                noun = _NODE_NOUN[_EDGE_DST[kind]]
                raise ModelError(f"{kind.value} edge destination {dst!r} is not a declared {noun}")
            if target is not None and kind is not mount:
                raise ModelError(f"target annotation is only valid on mount edges, not {kind.value}")

        assert_acyclic(self)


def _unique_names(kind: str, nodes: tuple) -> set[str]:
    names = {node.name for node in nodes}
    if len(names) == len(nodes) and all(names):
        return names
    # some name is empty or repeated: name the first offender, in node order
    seen: set[str] = set()
    for node in nodes:
        if not node.name:
            raise ModelError(f"{kind} with empty name")
        if node.name in seen:
            raise ModelError(f"duplicate {kind} name {node.name!r}")
        seen.add(node.name)


def assert_acyclic(model: ArchModel) -> None:
    """Raise CycleError with a witness path if the dependency subgraph has a cycle.

    Only dependency edges are considered; link/mount/attachment edges carry no
    ordering semantics. The search starts at each service with dependency
    edges in model order, so the witness is the first cycle met that way.
    """
    adjacency: dict[str, list[str]] = {}
    dependency = EdgeKind.DEPENDENCY
    for kind, src, dst, _ in model.edges:
        if kind is dependency:
            targets = adjacency.get(src)
            if targets is None:
                adjacency[src] = [dst]
            else:
                targets.append(dst)
    if not adjacency:
        return

    done: set[str] = set()
    # a source that is no declared service, which validate refuses, comes last
    for start in chain([svc.name for svc in model.services], adjacency):
        if start in done or start not in adjacency:
            continue
        # Iterative DFS keeping the current path for the witness. A service
        # without dependencies is on no cycle, so the search does not enter it.
        path = [start]
        on_path = {start}
        unvisited = [iter(adjacency[start])]  # the dependencies left, per path node
        while unvisited:
            for nxt in unvisited[-1]:
                if nxt in on_path:
                    raise CycleError(path[path.index(nxt):] + [nxt])
                if nxt not in done and nxt in adjacency:
                    path.append(nxt)
                    on_path.add(nxt)
                    unvisited.append(iter(adjacency[nxt]))
                    break
            else:
                unvisited.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)


@record
class CanonicalForm:
    """Order-free projection of a model onto the retained subset.

    Node lists are sorted by name within their kind, edges by ``edge_order``,
    attribute pairs by key. Title and phantom flags are excluded: the former
    is diagram metadata, the latter provenance.
    canonicalize(canonicalize(x)) == canonicalize(x) by construction.
    """

    services: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()
    volumes: tuple[str, ...] = ()
    networks: tuple[str, ...] = ()
    edges: tuple[tuple[str, str, str, str | None], ...] = ()

    def as_text(self) -> str:
        """Stable one-line-per-element rendering, handy for byte-level comparisons."""
        lines = []
        for name, attrs in self.services:
            rendered = " ".join(f"{k}={v}" for k, v in attrs)
            lines.append(f"service {name}" + (f" {rendered}" if rendered else ""))
        lines.extend(f"volume {name}" for name in self.volumes)
        lines.extend(f"network {name}" for name in self.networks)
        for kind, src, dst, target in self.edges:
            suffix = "" if target is None else f" target={target}"
            lines.append(f"edge {kind} {src} -> {dst}{suffix}")
        return "\n".join(lines) + "\n"


_KIND_VALUE = {kind: kind.value for kind in EdgeKind}


def edge_order(edge: tuple[str, str, str, str | None]) -> tuple:
    """Sort key of a keyed edge: by kind, src, dst, then target, no target first."""
    kind, src, dst, target = edge
    return kind, src, dst, target is not None, target or ""


def keyed(model: ArchModel | CanonicalForm) -> tuple[dict, dict, dict, Counter]:
    """Project a model, or a canonical form, onto its lookup tables in one linear pass.

    Returns ``(services, volumes, networks, edges)``, unsorted. Each node table
    maps a name to its attribute pairs, so the diff walks the three alike:
    ``services`` in script order (sorted by key from a canonical form; the
    diff reads them as mappings), each volume and network to ``()``.
    ``edges`` counts each (kind value, src, dst, target) tuple, so a repeated
    edge counts twice and a mount with no target (None) differs from one at
    ``""``. A node name listed twice, which ``ArchModel.validate`` refuses,
    counts once.
    """
    if isinstance(model, CanonicalForm):
        services, volumes, networks, edges = model
        return dict(services), dict.fromkeys(volumes, ()), dict.fromkeys(networks, ()), Counter(edges)
    return (
        {service.name: _attr_pairs(service) for service in model.services},
        {v.name: () for v in model.volumes},
        {n.name: () for n in model.networks},
        Counter((_KIND_VALUE[kind], src, dst, target) for kind, src, dst, target in model.edges),
    )


def canonicalize(model: ArchModel | CanonicalForm) -> CanonicalForm:
    """Sort the lookup tables of a model into its canonical form; idempotent on canonical forms."""
    if isinstance(model, CanonicalForm):
        return model
    services, volumes, networks, edges = keyed(model)
    return CanonicalForm(
        tuple(sorted((name, tuple(sorted(pairs))) for name, pairs in services.items())),
        tuple(sorted(volumes)),
        tuple(sorted(networks)),
        tuple(sorted(edges.elements(), key=edge_order)),
    )


def model_equal(a: ArchModel, b: ArchModel) -> bool:
    """True iff the two models have identical canonical forms."""
    return canonicalize(a) == canonicalize(b)
