"""Architecture meta-model: service/volume/network nodes plus typed edges.

The model keeps two orders at once. Node and edge tuples preserve the order in
which elements appeared in the source text, so emission is order-faithful.
``canonicalize`` projects a model onto a fully sorted :class:`CanonicalForm`,
which is the equality oracle used by every consistency check: two models are
"the same architecture" exactly when their canonical forms are equal.

All values are immutable records, made by :func:`record`, and every operation
here is a pure function. A record keeps its fields' order, defaults and
keyword construction, prints as ``Name(field=value, ...)``, hashes by value,
and copies and pickles by value. Assigning to one raises ``AttributeError``.
It equals only a record of its own type, so ``VolumeNode("a")`` differs from
``NetworkNode("a")`` and an ``Edge`` from the plain tuple of its fields.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import CycleError, ModelError


def record(cls: type) -> type:
    """Class decorator: make the annotated class body an immutable record.

    The annotations name the fields in order, and a class attribute of the
    same name is that field's default. The record is a ``collections.namedtuple``
    underneath with the guarantees the module docstring lists; unlike a plain
    named tuple it equals no other type. It still iterates, indexes and orders
    as a tuple. A ``__post_init__`` method runs after every construction, so
    it can refuse bad values. The body's methods and properties carry over,
    but cannot call ``super()`` without arguments.
    """
    body = dict(vars(cls))
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
    body.update(__slots__=(), __eq__=_record_eq, __ne__=_record_ne, __hash__=tuple.__hash__)
    post_init = body.get("__post_init__")
    if post_init is not None:

        def __new__(klass, *args, **kwargs):
            self = base.__new__(klass, *args, **kwargs)
            post_init(self)
            return self

        body["__new__"] = __new__
    return type(cls.__name__, (base,), body)


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    # A tuple subclass's reflected __eq__ runs first, even with a plain tuple
    # on the left, so NotImplemented here would let tuple equality decide.
    return False if isinstance(other, tuple) else NotImplemented


def _record_ne(self, other):
    equal = _record_eq(self, other)
    return equal if equal is NotImplemented else not equal


class EdgeKind(Enum):
    DEPENDENCY = "dependency"
    LINK = "link"
    MOUNT = "mount"
    ATTACHMENT = "attachment"

    # members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is a Python function, and kinds key every edge lookup
    __hash__ = object.__hash__


# Endpoint typing: (source kind, destination kind) per edge kind. Sources are
# always services; only the destination varies.
_EDGE_DST = {
    EdgeKind.DEPENDENCY: "service",
    EdgeKind.LINK: "service",
    EdgeKind.MOUNT: "volume",
    EdgeKind.ATTACHMENT: "network",
}


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


@record
class VolumeNode:
    name: str
    phantom: bool = False


@record
class NetworkNode:
    name: str
    phantom: bool = False


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
        service_names = _unique_names("service", self.services)
        volume_names = _unique_names("volume", self.volumes)
        network_names = _unique_names("network", self.networks)
        by_kind = {"service": service_names, "volume": volume_names, "network": network_names}

        for svc in self.services:
            if svc.image is not None and svc.build is not None:
                raise ModelError(f"service {svc.name!r} declares both image and build")

        for edge in self.edges:
            if edge.src not in service_names:
                raise ModelError(f"{edge.kind.value} edge source {edge.src!r} is not a declared service")
            dst_kind = _EDGE_DST[edge.kind]
            if edge.dst not in by_kind[dst_kind]:
                raise ModelError(
                    f"{edge.kind.value} edge destination {edge.dst!r} is not a declared {dst_kind}"
                )
            if edge.target is not None and edge.kind is not EdgeKind.MOUNT:
                raise ModelError(f"target annotation is only valid on mount edges, not {edge.kind.value}")

        assert_acyclic(self)


def _unique_names(kind: str, nodes: tuple) -> set[str]:
    seen: set[str] = set()
    for node in nodes:
        if not node.name:
            raise ModelError(f"{kind} with empty name")
        if node.name in seen:
            raise ModelError(f"duplicate {kind} name {node.name!r}")
        seen.add(node.name)
    return seen


def assert_acyclic(model: ArchModel) -> None:
    """Raise CycleError with a witness path if the dependency subgraph has a cycle.

    Only dependency edges are considered; link/mount/attachment edges carry no
    ordering semantics.
    """
    adjacency: dict[str, list[str]] = {svc.name: [] for svc in model.services}
    for edge in model.edges:
        if edge.kind is EdgeKind.DEPENDENCY:
            adjacency.setdefault(edge.src, []).append(edge.dst)

    done: set[str] = set()
    for start in adjacency:
        if start in done:
            continue
        # Iterative DFS keeping the current path for the witness.
        path: list[str] = []
        on_path: set[str] = set()
        stack: list[tuple[str, int]] = [(start, 0)]
        while stack:
            node, edge_idx = stack.pop()
            if edge_idx == 0:
                path.append(node)
                on_path.add(node)
            neighbors = adjacency.get(node, [])
            if edge_idx < len(neighbors):
                stack.append((node, edge_idx + 1))
                nxt = neighbors[edge_idx]
                if nxt in on_path:
                    raise CycleError(path[path.index(nxt):] + [nxt])
                if nxt not in done:
                    stack.append((nxt, 0))
            else:
                done.add(node)
                on_path.discard(node)
                path.pop()


@record
class CanonicalForm:
    """Order-free projection of a model onto the retained subset.

    Node lists are sorted by name within their kind, edges by
    (kind, src, dst, target), attribute pairs by key. Title and phantom flags
    are excluded: the former is diagram metadata, the latter provenance.
    canonicalize(canonicalize(x)) == canonicalize(x) by construction.
    """

    services: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()
    volumes: tuple[str, ...] = ()
    networks: tuple[str, ...] = ()
    edges: tuple[tuple[str, str, str, str], ...] = ()

    def node_count(self) -> int:
        return len(self.services) + len(self.volumes) + len(self.networks)

    def edge_count(self) -> int:
        return len(self.edges)

    def as_text(self) -> str:
        """Stable one-line-per-element rendering, handy for byte-level comparisons."""
        lines = []
        for name, attrs in self.services:
            rendered = " ".join(f"{k}={v}" for k, v in attrs)
            lines.append(f"service {name}" + (f" {rendered}" if rendered else ""))
        lines.extend(f"volume {name}" for name in self.volumes)
        lines.extend(f"network {name}" for name in self.networks)
        for kind, src, dst, target in self.edges:
            lines.append(f"edge {kind} {src} -> {dst}" + (f" target={target}" if target else ""))
        return "\n".join(lines) + "\n"


def _service_attrs(svc: ServiceNode) -> tuple[tuple[str, str], ...]:
    attrs: dict[str, str] = {}
    if svc.image is not None:
        attrs["image"] = svc.image
    if svc.build is not None:
        attrs["build_context"] = svc.build.context
        if svc.build.dockerfile is not None:
            attrs["build_dockerfile"] = svc.build.dockerfile
    if svc.container_name is not None:
        attrs["container_name"] = svc.container_name
    return tuple(sorted(attrs.items()))


_KIND_VALUE = {kind: kind.value for kind in EdgeKind}


def canonicalize(model: ArchModel | CanonicalForm) -> CanonicalForm:
    """Project a model onto its canonical form; idempotent on canonical forms."""
    if isinstance(model, CanonicalForm):
        return model
    return CanonicalForm(
        services=tuple(sorted((s.name, _service_attrs(s)) for s in model.services)),
        volumes=tuple(sorted(v.name for v in model.volumes)),
        networks=tuple(sorted(n.name for n in model.networks)),
        edges=tuple(
            sorted((_KIND_VALUE[e.kind], e.src, e.dst, e.target or "") for e in model.edges)
        ),
    )


def model_equal(a: ArchModel, b: ArchModel) -> bool:
    """True iff the two models have identical canonical forms."""
    return canonicalize(a) == canonicalize(b)
