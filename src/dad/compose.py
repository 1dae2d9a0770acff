"""Descriptor ingestion: compose text -> ComposeSpec -> ArchModel.

A ComposeSpec keeps the descriptor faithfully but split in two: the retained
fields that the architecture model can express (services with image/build/
container_name, depends_on, links, named-volume mounts, networks) and an
opaque ``residue`` holding every other key verbatim under its full path.
Residue is preserved for reporting and re-serialization but never reaches a
diagram, so two descriptors differing only in residue lower to equal models.
``unlower`` goes the other way, from a model to a spec with no residue, so
``serialize_compose`` is the one writer of descriptor text. ``load_model`` is
the one gate from descriptor text to a checked model.

All functions are pure; distinct files can be parsed concurrently.
"""

from __future__ import annotations

import re

from .errors import EmitError, LoweringError, SchemaError
from .model import (
    _EDGE_DST,
    _NODE_NOUN,
    ArchModel,
    BuildRef,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    _attr_pairs,
    assert_acyclic,
    record,
)
from .yaml_io import dump as dump_yaml
from .yaml_io import load as _load_yaml

# Source part of a mount that names a volume rather than a host path.
_NAMED_VOLUME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*$")

# The relation table: the service field that holds each edge kind, in edge
# order. What an entry points at is model._EDGE_DST[kind]; a volumes entry is
# a MountRef, the one that also carries the edge's target.
_RELATIONS = (
    ("depends_on", EdgeKind.DEPENDENCY),
    ("links", EdgeKind.LINK),
    ("volumes", EdgeKind.MOUNT),
    ("networks", EdgeKind.ATTACHMENT),
)
_FIELD_OF = {kind: field for field, kind in _RELATIONS}

ResiduePath = tuple[object, ...]


class _Fields:
    """Mutable value over ``__slots__``: ``==`` and ``repr`` go field by field."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


@record
class MountRef:
    """Named-volume mount: volume name plus in-container target path."""

    volume: str
    target: str


class ServiceEntry(_Fields):
    __slots__ = ("image", "build", "container_name", "depends_on", "links", "volumes", "networks")

    def __init__(
        self,
        image: str | None = None,
        build: BuildRef | None = None,
        container_name: str | None = None,
        depends_on: list[str] | None = None,
        links: list[str] | None = None,
        volumes: list[MountRef] | None = None,
        networks: list[str] | None = None,
    ):
        self.image = image
        self.build = build
        self.container_name = container_name
        # a fresh list per entry when not given
        self.depends_on = [] if depends_on is None else depends_on
        self.links = [] if links is None else links
        self.volumes = [] if volumes is None else volumes
        self.networks = [] if networks is None else networks


class ComposeSpec(_Fields):
    """In-memory descriptor: retained fields plus everything else as residue."""

    __slots__ = ("services", "volumes", "networks", "residue")

    def __init__(
        self,
        services: dict[str, ServiceEntry] | None = None,
        volumes: list[str] | None = None,
        networks: list[str] | None = None,
        residue: dict[ResiduePath, object] | None = None,
    ):
        self.services = {} if services is None else services
        self.volumes = [] if volumes is None else volumes
        self.networks = [] if networks is None else networks
        self.residue = {} if residue is None else residue

    def residue_paths(self) -> list[str]:
        return [".".join(str(part) for part in path) for path in self.residue]


@record
class ValidationIssue:
    code: str  # EmptyName | DanglingReference | ConflictingSource | MissingSource
    path: str
    message: str
    severity: str  # error | warning

    def __str__(self) -> str:
        return f"{self.severity}: {self.code}({self.path}): {self.message}"


def issues_ok(issues: list[ValidationIssue]) -> bool:
    return not any(issue.severity == "error" for issue in issues)


def _require_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"must be a string, got {type(value).__name__}")
    return value


def _require_map(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SchemaError(path, f"must be a mapping, got {type(value).__name__}")
    return value


def parse_compose(text: str) -> ComposeSpec:
    """Parse descriptor text; retained keys populate the spec, the rest is residue.

    Source order of services/volumes/networks is preserved. Raises
    ComposeSyntaxError for malformed YAML and SchemaError when a retained key
    has the wrong shape. Unknown keys never error: they land in residue.
    """
    doc = _load_yaml(text)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise SchemaError("", f"top level must be a mapping, got {type(doc).__name__}")

    spec = ComposeSpec()
    for key, value in doc.items():
        if key == "services":
            _parse_services(_require_map(value, "services"), spec)
        elif key in ("volumes", "networks"):
            _parse_top_level_named(key, _require_map(value, key), spec)
        else:
            spec.residue[(key,)] = value
    return spec


def _parse_top_level_named(section: str, mapping: dict, spec: ComposeSpec) -> None:
    names = getattr(spec, section)
    for name, body in mapping.items():
        name = _require_str(name, f"{section} key {name!r}")
        names.append(name)
        body = _require_map(body, f"{section}.{name}")
        for key, value in body.items():
            spec.residue[(section, name, key)] = value


def _parse_services(mapping: dict, spec: ComposeSpec) -> None:
    for name, body in mapping.items():
        name = _require_str(name, f"services key {name!r}")
        body = _require_map(body, f"services.{name}")
        entry = ServiceEntry()
        spec.services[name] = entry
        for key, value in body.items():
            path = f"services.{name}.{key}"
            if key == "image":
                entry.image = _require_str(value, path)
            elif key == "build":
                entry.build = _parse_build(value, name, path, spec)
            elif key == "container_name":
                entry.container_name = _require_str(value, path)
            elif key in ("depends_on", "networks"):
                setattr(entry, key, _parse_names(value, name, key, path, spec))
            elif key == "links":
                entry.links = _parse_links(value, name, path, spec)
            elif key == "volumes":
                entry.volumes = _parse_mounts(value, name, path, spec)
            else:
                spec.residue[("services", name, key)] = value


def _parse_build(value, svc: str, path: str, spec: ComposeSpec) -> BuildRef:
    if isinstance(value, str):
        return BuildRef(context=value)
    if isinstance(value, dict):
        if "context" not in value:
            raise SchemaError(path, "build mapping requires a context")
        context = _require_str(value["context"], f"{path}.context")
        dockerfile = None
        if "dockerfile" in value:
            dockerfile = _require_str(value["dockerfile"], f"{path}.dockerfile")
        for key, sub in value.items():
            if key not in ("context", "dockerfile"):
                spec.residue[("services", svc, "build", key)] = sub
        return BuildRef(context=context, dockerfile=dockerfile)
    raise SchemaError(path, f"must be a string or mapping, got {type(value).__name__}")


def _parse_names(value, svc: str, key: str, path: str, spec: ComposeSpec) -> list[str]:
    # depends_on or networks: the long (map) syntax is normalized to the name
    # list; per-name bodies such as {condition: ...} are residue.
    if isinstance(value, list):
        return [_require_str(item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, dict):
        names = []
        for name, body in value.items():
            name = _require_str(name, f"{path} key {name!r}")
            names.append(name)
            if body is not None:
                spec.residue[("services", svc, key, name)] = body
        return names
    raise SchemaError(path, f"must be a list or mapping, got {type(value).__name__}")


def _parse_links(value, svc: str, path: str, spec: ComposeSpec) -> list[str]:
    if not isinstance(value, list):
        raise SchemaError(path, f"must be a list, got {type(value).__name__}")
    names = []
    for i, item in enumerate(value):
        item = _require_str(item, f"{path}[{i}]")
        name, sep, alias = item.partition(":")
        names.append(name)
        if sep:
            spec.residue[("services", svc, "links", i)] = alias
    return names


def _parse_mounts(value, svc: str, path: str, spec: ComposeSpec) -> list[MountRef]:
    """Keep named-volume mounts; bind mounts and anything unrecognized are residue.

    The syntaxes differ only in the split: ``VOLUME:TARGET[:MODE]`` needs a
    non-empty target, ``type: volume`` a string source and target. MODE and the
    long form's other keys are residue under ``VOLUME:TARGET``, so repeats are refused.
    """
    if not isinstance(value, list):
        raise SchemaError(path, f"must be a list, got {type(value).__name__}")
    mounts: list[MountRef] = []
    passthrough: list[object] = []
    seen: set[MountRef] = set()
    for item in value:
        source = None
        if isinstance(item, str):
            head, _, rest = item.partition(":")
            target, sep, mode = rest.partition(":")
            if target:
                source, options = head, ({"mode": mode} if sep else None)
        elif isinstance(item, dict) and item.get("type") == "volume":
            target, options = item.get("target"), item
            if isinstance(target, str):
                source = item.get("source")
        if not isinstance(source, str) or not _NAMED_VOLUME_RE.fullmatch(source):
            passthrough.append(item)
            continue
        mount = MountRef(source, target)
        if mount in seen:
            raise SchemaError(path, f"mounts {source}:{target} twice")
        seen.add(mount)
        mounts.append(mount)
        if options:
            key = f"{source}:{target}"
            for option, sub in options.items():
                if option not in ("type", "source", "target"):
                    spec.residue[("services", svc, "volumes", key, option)] = sub
    if passthrough:
        spec.residue[("services", svc, "volumes")] = passthrough
    return mounts


def validate(spec: ComposeSpec, strict: bool = False) -> list[ValidationIssue]:
    """Check names, cross-references and image/build conflicts.

    Strict mode reports errors; lenient mode downgrades them to warnings
    (lowering then synthesizes phantom nodes for dangling references). An
    empty name is an error in both modes, since no model node can carry it.
    """
    severity = "error" if strict else "warning"
    issues: list[ValidationIssue] = []
    names_of = {
        ServiceNode: spec.services,
        VolumeNode: set(spec.volumes),
        NetworkNode: set(spec.networks),
    }
    for node_type, names in names_of.items():
        if "" in names:
            noun = _NODE_NOUN[node_type]
            issues.append(
                ValidationIssue(
                    code="EmptyName",
                    path=f"{noun}s",  # the section that declares them
                    message=f"declares a {noun} with an empty name",
                    severity="error",
                )
            )

    # per relation field: the names its entries must be among, and their noun
    relations = [
        (field, kind is EdgeKind.MOUNT, names_of[_EDGE_DST[kind]], _NODE_NOUN[_EDGE_DST[kind]])
        for field, kind in _RELATIONS
    ]
    for name, entry in spec.services.items():
        base = f"services.{name}"
        if entry.image is not None and entry.build is not None:
            issues.append(
                ValidationIssue(
                    code="ConflictingSource",
                    path=base,
                    message="declares both image and build",
                    severity=severity,
                )
            )
        if entry.image is None and entry.build is None:
            issues.append(
                ValidationIssue(
                    code="MissingSource",
                    path=base,
                    message="declares neither image nor build",
                    severity=severity,
                )
            )
        for field, mounts, names, noun in relations:
            for ref in getattr(entry, field):
                if mounts:
                    ref = ref.volume
                if ref not in names:
                    issues.append(
                        ValidationIssue(
                            code="DanglingReference",
                            path=f"{base}.{field} -> {ref}",
                            message=f"references undeclared {noun} {ref!r}",
                            # a phantom node for an empty name could not exist either
                            severity=severity if ref else "error",
                        )
                    )
    return issues


def load_model(
    text: str, strict: bool = False, fallback_title: str = "system"
) -> tuple[ArchModel, ComposeSpec, list[ValidationIssue]]:
    """The one gate from descriptor text to a checked model: (model, spec, issues).

    Parse, ``validate``, ``lower``, then ``assert_acyclic``: ``lower`` keeps
    every other ``ArchModel.validate`` rule for a spec ``validate`` passes.
    Raises LoweringError when any issue is an error and CycleError for a
    dependency cycle; parse errors pass through.
    """
    spec = parse_compose(text)
    issues = validate(spec, strict)
    if not issues_ok(issues):
        raise LoweringError(issues)
    model = lower(spec, fallback_title=fallback_title)
    assert_acyclic(model)
    return model, spec, issues


def lower(spec: ComposeSpec, fallback_title: str = "system") -> ArchModel:
    """Map the retained fields onto the architecture graph; the mirror of ``unlower``.

    One node per service/volume/network in source order, then one edge per
    entry of each relation field, walking ``_RELATIONS`` field by field and
    each field over the services in order. Dangling references get phantom
    nodes (flagged on the node, listed by ``ArchModel.phantom_names``) and a
    service with both sources keeps its image. Nothing is checked here; see
    ``load_model``. The title is the top-level ``name`` key, else ``fallback_title``.
    """
    services: list[ServiceNode] = []
    for name, entry in spec.services.items():
        services.append(
            ServiceNode(
                name=name,
                image=entry.image,
                build=entry.build if entry.image is None else None,  # image wins in lenient mode
                container_name=entry.container_name,
            )
        )
    volumes = [VolumeNode(name) for name in spec.volumes]
    networks = [NetworkNode(name) for name in spec.networks]
    # per node class: the names so far and the node list a phantom joins
    known = {
        ServiceNode: (set(spec.services), services),
        VolumeNode: (set(spec.volumes), volumes),
        NetworkNode: (set(spec.networks), networks),
    }

    edges: list[Edge] = []
    for field, kind in _RELATIONS:
        node_type = _EDGE_DST[kind]
        names, nodes = known[node_type]
        mounts = kind is EdgeKind.MOUNT
        for name, entry in spec.services.items():
            for dst in getattr(entry, field):
                target = None
                if mounts:
                    dst, target = dst.volume, dst.target
                if dst not in names:
                    names.add(dst)
                    nodes.append(node_type(dst, phantom=True))
                edges.append(Edge(kind, name, dst, target))

    title = spec.residue.get(("name",))
    if not isinstance(title, str) or not title:
        title = fallback_title
    return ArchModel(
        title=title,
        services=tuple(services),
        volumes=tuple(volumes),
        networks=tuple(networks),
        edges=tuple(edges),
    )


def unlower(model: ArchModel) -> ComposeSpec:
    """The spec without residue that lowers back to ``model``, which must be valid.

    Services follow model order; each edge goes, in edge order, to the
    relation field ``_RELATIONS`` pairs with its kind, a mount as a MountRef.
    A phantom node stays undeclared only where a lenient reparse synthesizes
    it again as it is: an edge points at it, it has no edges of its own and,
    for a service, no attributes. Every other node is declared. EmitError
    refuses an edge a descriptor would read back as another, which keeps the
    round trip honest: a mount without a target path, a mount of a volume whose
    name ``_NAMED_VOLUME_RE`` does not match (a host path), and a link to a name
    holding ``:`` (an alias). A repeated mount is the emitters' guard's to refuse.
    """
    entries = {
        svc.name: ServiceEntry(svc.image, svc.build, svc.container_name) for svc in model.services
    }
    # node class -> the names edges point at
    pointed_at: dict[type, set[str]] = {node_type: set() for node_type in _NODE_NOUN}
    mount, link = EdgeKind.MOUNT, EdgeKind.LINK
    for kind, src, dst, target in model.edges:
        pointed_at[_EDGE_DST[kind]].add(dst)
        if kind is mount:
            if target is None:
                raise EmitError(
                    f"mount {src} - {dst} has no target path; cannot place it in a descriptor"
                )
            if not _NAMED_VOLUME_RE.fullmatch(dst):
                raise EmitError(f"mount {src} - {dst}: a descriptor reads {dst!r} as a host path")
            dst = MountRef(dst, target)
        elif kind is link and ":" in dst:
            raise EmitError(f"link {src} - {dst}: a descriptor reads what follows ':' as an alias")
        getattr(entries[src], _FIELD_OF[kind]).append(dst)
    sources = {edge.src for edge in model.edges}

    def declared(node) -> bool:
        return not node.phantom or node.name not in pointed_at[node.__class__]

    return ComposeSpec(
        services={
            svc.name: entries[svc.name]
            for svc in model.services
            if declared(svc) or svc.name in sources or _attr_pairs(svc)
        },
        volumes=[v.name for v in model.volumes if declared(v)],
        networks=[n.name for n in model.networks if declared(n)],
    )


def spec_to_mapping(spec: ComposeSpec) -> dict:
    """Rebuild the descriptor document tree, retained fields and residue, from a spec."""
    groups = _group_residue(spec.residue)
    doc: dict = dict(groups.get((), {}))
    doc["services"] = {
        name: _service_body(groups, name, entry) for name, entry in spec.services.items()
    }
    for section in ("volumes", "networks"):
        names = getattr(spec, section)
        if names:
            doc[section] = {name: groups.get((section, name)) or None for name in names}
    return doc


def _group_residue(residue: dict[ResiduePath, object]) -> dict[ResiduePath, dict]:
    """Index residue by owner in one pass: parent path -> {last path part: value}."""
    groups: dict[ResiduePath, dict] = {}
    for path, value in residue.items():
        groups.setdefault(path[:-1], {})[path[-1]] = value
    return groups


def _names_value(groups: dict[ResiduePath, dict], owner: ResiduePath, key: str, names: list[str]):
    # the map form when any name has a body in residue, else the name list
    bodies = groups.get((*owner, key))
    if bodies:
        return {name: bodies.get(name) for name in names}
    return list(names)


def _service_body(groups: dict[ResiduePath, dict], name: str, entry: ServiceEntry) -> dict | None:
    owner = ("services", name)
    body: dict = {}
    if entry.image is not None:
        body["image"] = entry.image
    if entry.build is not None:
        extras = groups.get((*owner, "build"), {})
        if entry.build.dockerfile is None and not extras:
            body["build"] = entry.build.context
        else:
            build_map: dict = {"context": entry.build.context}
            if entry.build.dockerfile is not None:
                build_map["dockerfile"] = entry.build.dockerfile
            build_map.update(extras)
            body["build"] = build_map
    if entry.container_name is not None:
        body["container_name"] = entry.container_name
    if entry.depends_on:
        body["depends_on"] = _names_value(groups, owner, "depends_on", entry.depends_on)
    if entry.links:
        aliases = groups.get((*owner, "links"), {})
        body["links"] = [
            f"{link}:{aliases[i]}" if i in aliases else link for i, link in enumerate(entry.links)
        ]
    own = groups.get(owner, {})
    volume_items = [_mount_item(groups, owner, mount) for mount in entry.volumes]
    volume_items.extend(own.get("volumes", []))
    if volume_items:
        body["volumes"] = volume_items
    if entry.networks:
        body["networks"] = _names_value(groups, owner, "networks", entry.networks)
    for key, value in own.items():
        # the "volumes" entry holds the mount passthrough merged above
        if key != "volumes":
            body[key] = value
    return body or None


def _mount_item(groups: dict[ResiduePath, dict], owner: ResiduePath, mount: MountRef):
    extras = groups.get((*owner, "volumes", f"{mount.volume}:{mount.target}"), {})
    # the short form volume:target[:mode] would drop an empty target or split one holding ":"
    if mount.target and ":" not in mount.target:
        if not extras:
            return f"{mount.volume}:{mount.target}"
        if set(extras) == {"mode"}:
            return f"{mount.volume}:{mount.target}:{extras['mode']}"
    item = {"type": "volume", "source": mount.volume, "target": mount.target}
    item.update(extras)
    return item


def serialize_compose(spec: ComposeSpec) -> str:
    """Render the full spec (retained + residue) back to descriptor text.

    Reparsing the output yields an equivalent ComposeSpec; key order inside a
    service body is normalized, service order is preserved.
    """
    return dump_yaml(spec_to_mapping(spec))
