"""Descriptor ingestion: compose text -> ComposeSpec -> ArchModel.

A ComposeSpec keeps the descriptor faithfully but split in two: the retained
fields that the architecture model can express (services with image/build/
container_name, depends_on, links, named-volume mounts, networks) and an
opaque ``residue`` holding every other key verbatim under its full path.
Residue is preserved for reporting and re-serialization but never reaches a
diagram, so two descriptors differing only in residue lower to equal models.

All functions are pure; distinct files can be parsed concurrently.
"""

from __future__ import annotations

import re

from .errors import LoweringError, SchemaError
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

# Source part of a mount that names a volume rather than a host path.
_NAMED_VOLUME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*$")

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


class MountRef(_Fields):
    """Named-volume mount: volume name plus in-container target path."""

    __slots__ = ("volume", "target")

    def __init__(self, volume: str, target: str):
        self.volume = volume
        self.target = target


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


def _load_yaml(text: str):
    """The single YAML document in ``text`` (None when there is none)."""
    from . import yaml_io  # PyYAML is imported with the first YAML read or written

    return yaml_io.load(text)


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
    names = spec.volumes if section == "volumes" else spec.networks
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
            elif key == "depends_on":
                entry.depends_on = _parse_depends_on(value, name, path, spec)
            elif key == "links":
                entry.links = _parse_links(value, name, path, spec)
            elif key == "volumes":
                entry.volumes = _parse_mounts(value, name, path, spec)
            elif key == "networks":
                entry.networks = _parse_service_networks(value, name, path, spec)
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
        for key, sub in value.items():
            if key == "context":
                continue
            if key == "dockerfile":
                dockerfile = _require_str(sub, f"{path}.dockerfile")
            else:
                spec.residue[("services", svc, "build", key)] = sub
        return BuildRef(context=context, dockerfile=dockerfile)
    raise SchemaError(path, f"must be a string or mapping, got {type(value).__name__}")


def _parse_depends_on(value, svc: str, path: str, spec: ComposeSpec) -> list[str]:
    # Long (map) syntax is normalized to the name list; per-name bodies such
    # as {condition: ...} are residue.
    if isinstance(value, list):
        return [_require_str(item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, dict):
        names = []
        for dep_name, body in value.items():
            dep_name = _require_str(dep_name, f"{path} key {dep_name!r}")
            names.append(dep_name)
            if body is not None:
                spec.residue[("services", svc, "depends_on", dep_name)] = body
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


def _parse_service_networks(value, svc: str, path: str, spec: ComposeSpec) -> list[str]:
    if isinstance(value, list):
        return [_require_str(item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, dict):
        names = []
        for net_name, body in value.items():
            net_name = _require_str(net_name, f"{path} key {net_name!r}")
            names.append(net_name)
            if body is not None:
                spec.residue[("services", svc, "networks", net_name)] = body
        return names
    raise SchemaError(path, f"must be a list or mapping, got {type(value).__name__}")


def _parse_mounts(value, svc: str, path: str, spec: ComposeSpec) -> list[MountRef]:
    """Keep named-volume mounts; bind mounts and anything unrecognized are residue."""
    if not isinstance(value, list):
        raise SchemaError(path, f"must be a list, got {type(value).__name__}")
    mounts: list[MountRef] = []
    passthrough: list[object] = []
    for item in value:
        mount = None
        if isinstance(item, str):
            mount = _parse_short_mount(item, svc, spec)
        elif isinstance(item, dict):
            mount = _parse_long_mount(item, svc, spec)
        if mount is not None:
            mounts.append(mount)
        else:
            passthrough.append(item)
    if passthrough:
        spec.residue[("services", svc, "volumes")] = passthrough
    return mounts


def _parse_short_mount(item: str, svc: str, spec: ComposeSpec) -> MountRef | None:
    source, sep, rest = item.partition(":")
    if not sep or not _NAMED_VOLUME_RE.fullmatch(source):
        return None
    target, sep, mode = rest.partition(":")
    if not target:
        return None
    if sep:
        spec.residue[("services", svc, "volumes", f"{source}:{target}", "mode")] = mode
    return MountRef(volume=source, target=target)


def _parse_long_mount(item: dict, svc: str, spec: ComposeSpec) -> MountRef | None:
    if item.get("type") != "volume":
        return None
    source = item.get("source")
    target = item.get("target")
    if not isinstance(source, str) or not isinstance(target, str):
        return None
    if not _NAMED_VOLUME_RE.fullmatch(source):
        return None
    for key, sub in item.items():
        if key in ("type", "source", "target"):
            continue
        spec.residue[("services", svc, "volumes", f"{source}:{target}", key)] = sub
    return MountRef(volume=source, target=target)


def validate(spec: ComposeSpec, strict: bool = False) -> list[ValidationIssue]:
    """Check names, cross-references and image/build conflicts.

    Strict mode reports errors; lenient mode downgrades them to warnings
    (lowering then synthesizes phantom nodes for dangling references). An
    empty name is an error in both modes, since no model node can carry it.
    """
    severity = "error" if strict else "warning"
    issues: list[ValidationIssue] = []
    volumes = set(spec.volumes)
    networks = set(spec.networks)

    for section, kind, names in (
        ("services", "service", spec.services),
        ("volumes", "volume", volumes),
        ("networks", "network", networks),
    ):
        if "" in names:
            issues.append(
                ValidationIssue(
                    code="EmptyName",
                    path=section,
                    message=f"declares a {kind} with an empty name",
                    severity="error",
                )
            )

    def dangling(path: str, ref: str, kind: str) -> None:
        issues.append(
            ValidationIssue(
                code="DanglingReference",
                path=f"{path} -> {ref}",
                message=f"references undeclared {kind} {ref!r}",
                # a phantom node for an empty name could not exist either
                severity=severity if ref else "error",
            )
        )

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
        for ref in entry.depends_on:
            if ref not in spec.services:
                dangling(f"{base}.depends_on", ref, "service")
        for ref in entry.links:
            if ref not in spec.services:
                dangling(f"{base}.links", ref, "service")
        for mount in entry.volumes:
            if mount.volume not in volumes:
                dangling(f"{base}.volumes", mount.volume, "volume")
        for ref in entry.networks:
            if ref not in networks:
                dangling(f"{base}.networks", ref, "network")
    return issues


def lower(spec: ComposeSpec, strict: bool = False, fallback_title: str = "system") -> ArchModel:
    """Map the retained fields onto the architecture graph.

    One node per service/volume/network in source order, one edge per
    depends_on/links/mount/networks entry. In lenient mode, dangling
    references get phantom nodes (flagged on the node, listed by
    ``ArchModel.phantom_names``); in strict mode they raise LoweringError.
    The title comes from the descriptor's top-level ``name`` key when present,
    else ``fallback_title``.
    """
    unresolved = [
        issue for issue in validate(spec, strict=True) if issue.code == "DanglingReference"
    ]
    if strict and unresolved:
        raise LoweringError(
            "unresolved references: " + "; ".join(issue.path for issue in unresolved)
        )

    services: list[ServiceNode] = []
    for name, entry in spec.services.items():
        build = entry.build
        if entry.image is not None and build is not None:
            build = None  # image wins on conflict in lenient mode
        services.append(
            ServiceNode(
                name=name,
                image=entry.image,
                build=build,
                container_name=entry.container_name,
            )
        )
    volumes = [VolumeNode(name) for name in spec.volumes]
    networks = [NetworkNode(name) for name in spec.networks]

    service_names = set(spec.services)
    volume_names = set(spec.volumes)
    network_names = set(spec.networks)

    def phantom_service(name: str) -> None:
        if name not in service_names:
            service_names.add(name)
            services.append(ServiceNode(name, phantom=True))

    edges: list[Edge] = []
    for name, entry in spec.services.items():
        for ref in entry.depends_on:
            phantom_service(ref)
            edges.append(Edge(EdgeKind.DEPENDENCY, name, ref))
    for name, entry in spec.services.items():
        for ref in entry.links:
            phantom_service(ref)
            edges.append(Edge(EdgeKind.LINK, name, ref))
    for name, entry in spec.services.items():
        for mount in entry.volumes:
            if mount.volume not in volume_names:
                volume_names.add(mount.volume)
                volumes.append(VolumeNode(mount.volume, phantom=True))
            edges.append(Edge(EdgeKind.MOUNT, name, mount.volume, target=mount.target))
    for name, entry in spec.services.items():
        for ref in entry.networks:
            if ref not in network_names:
                network_names.add(ref)
                networks.append(NetworkNode(ref, phantom=True))
            edges.append(Edge(EdgeKind.ATTACHMENT, name, ref))

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


def spec_to_mapping(spec: ComposeSpec, retained: bool = True, residue: bool = True) -> dict:
    """Rebuild the descriptor document tree from a spec.

    With both halves enabled this is the faithful document used by
    ``serialize_compose``. Either half can be rendered alone, which is how the
    retained/residue partition is checked.
    """
    groups = _group_residue(spec.residue) if residue else {}
    doc: dict = dict(groups.get((), {}))
    if retained:
        doc["services"] = {
            name: _service_body(groups, name, entry) for name, entry in spec.services.items()
        }
        if spec.volumes:
            doc["volumes"] = {name: groups.get(("volumes", name)) or None for name in spec.volumes}
        if spec.networks:
            doc["networks"] = {name: groups.get(("networks", name)) or None for name in spec.networks}
    if residue and not retained:
        for path, value in spec.residue.items():
            if len(path) > 1:
                _splice(doc, path, value)
    return doc


def _group_residue(residue: dict[ResiduePath, object]) -> dict[ResiduePath, dict]:
    """Index residue by owner in one pass: parent path -> {last path part: value}."""
    groups: dict[ResiduePath, dict] = {}
    for path, value in residue.items():
        groups.setdefault(path[:-1], {})[path[-1]] = value
    return groups


def _splice(doc: dict, path: ResiduePath, value: object) -> None:
    node = doc
    for part in path[:-1]:
        node = node.setdefault(part, {})
    node[path[-1]] = value


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
        conditions = groups.get((*owner, "depends_on"))
        if conditions:
            body["depends_on"] = {dep: conditions.get(dep) for dep in entry.depends_on}
        else:
            body["depends_on"] = list(entry.depends_on)
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
        bodies = groups.get((*owner, "networks"))
        if bodies:
            body["networks"] = {net: bodies.get(net) for net in entry.networks}
        else:
            body["networks"] = list(entry.networks)
    for key, value in own.items():
        # the "volumes" entry holds the mount passthrough merged above
        if key != "volumes":
            body[key] = value
    return body or None


def needs_long_mount(target: str) -> bool:
    """The short form ``volume:target[:mode]`` would drop this target or split it."""
    return not target or ":" in target


def _mount_item(groups: dict[ResiduePath, dict], owner: ResiduePath, mount: MountRef):
    extras = groups.get((*owner, "volumes", f"{mount.volume}:{mount.target}"), {})
    if not needs_long_mount(mount.target):
        if not extras:
            return f"{mount.volume}:{mount.target}"
        if set(extras) == {"mode"}:
            return f"{mount.volume}:{mount.target}:{extras['mode']}"
    item = {"type": "volume", "source": mount.volume, "target": mount.target}
    item.update(extras)
    return item


def dump_yaml(doc: dict) -> str:
    """``doc`` as block-style YAML: the bytes ``yaml.dump`` writes with ``yaml_io._ComposeDumper``."""
    from . import yaml_io

    return yaml_io.dump(doc)


def serialize_compose(spec: ComposeSpec) -> str:
    """Render the full spec (retained + residue) back to descriptor text.

    Reparsing the output yields an equivalent ComposeSpec; key order inside a
    service body is normalized, service order is preserved.
    """
    return dump_yaml(spec_to_mapping(spec))
