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

import io
import re
from dataclasses import dataclass, field
from itertools import chain, count

import yaml
from yaml.constructor import SafeConstructor
from yaml.events import (
    AliasEvent,
    DocumentEndEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import MappingNode, ScalarNode, SequenceNode
from yaml.resolver import Resolver

from .errors import ComposeSyntaxError, LoweringError, SchemaError
from .model import (
    ArchModel,
    BuildRef,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
)

# Source part of a mount that names a volume rather than a host path.
_NAMED_VOLUME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*$")

ResiduePath = tuple[object, ...]


@dataclass
class MountRef:
    """Named-volume mount: volume name plus in-container target path."""

    volume: str
    target: str


@dataclass
class ServiceEntry:
    image: str | None = None
    build: BuildRef | None = None
    container_name: str | None = None
    depends_on: list[str] = field(default_factory=list)
    links: list[str] = field(default_factory=list)
    volumes: list[MountRef] = field(default_factory=list)
    networks: list[str] = field(default_factory=list)


@dataclass
class ComposeSpec:
    """In-memory descriptor: retained fields plus everything else as residue."""

    services: dict[str, ServiceEntry] = field(default_factory=dict)
    volumes: list[str] = field(default_factory=list)
    networks: list[str] = field(default_factory=list)
    residue: dict[ResiduePath, object] = field(default_factory=dict)

    def residue_paths(self) -> list[str]:
        return [".".join(str(part) for part in path) for path in self.residue]


@dataclass(frozen=True)
class ValidationIssue:
    code: str  # EmptyName | DanglingReference | ConflictingSource | MissingSource
    path: str
    message: str
    severity: str  # error | warning

    def __str__(self) -> str:
        return f"{self.severity}: {self.code}({self.path}): {self.message}"


def issues_ok(issues: list[ValidationIssue]) -> bool:
    return not any(issue.severity == "error" for issue in issues)


if yaml.__with_libyaml__:
    from yaml._yaml import CParser

    class _LoaderBase(CParser, SafeConstructor, Resolver):
        """libyaml's event parser with PyYAML's scalar constructors and resolver."""

        def __init__(self, stream):
            CParser.__init__(self, stream)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

    _DumperBase = yaml.CSafeDumper
else:
    _LoaderBase = yaml.SafeLoader
    _DumperBase = yaml.SafeDumper


class _UniqueKeyLoader(_LoaderBase):
    """Event source of ``_load_yaml``; ``_build`` makes the objects itself.

    Only its parser, its resolver (tags of plain scalars) and its scalar
    constructors are used; PyYAML's composer and collection constructors are not.
    """


# Collections open at once. The limit keeps deep input from exhausting the
# Python stack of whoever walks the loaded document recursively (the
# representer does, for the sets and pair lists ``dump_yaml`` hands it).
_MAX_DEPTH = 100

_STR_TAG = "tag:yaml.org,2002:str"
_BOOL_TAG = "tag:yaml.org,2002:bool"
_INT_TAG = "tag:yaml.org,2002:int"
_NULL_TAG = "tag:yaml.org,2002:null"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_MAP_TAGS = (None, "!", "tag:yaml.org,2002:map")
_SEQ_TAGS = (None, "!", "tag:yaml.org,2002:seq")
_SET_TAG = "tag:yaml.org,2002:set"
_PAIR_LIST_TAGS = ("tag:yaml.org,2002:omap", "tag:yaml.org,2002:pairs")
# What a collection tag on a scalar asks for. Their constructors in
# SafeConstructor are generators that would not raise on a scalar.
_COLLECTION_KINDS = {
    _MAP_TAGS[-1]: "mapping",
    _SET_TAG: "mapping",
    _SEQ_TAGS[-1]: "sequence",
    **dict.fromkeys(_PAIR_LIST_TAGS, "sequence"),
}

_ITEM = object()  # the key of every open sequence
_KEY = object()  # an open mapping waits for a key
_MERGE = object()  # an open mapping waits for the value of a merge key (<<)


class _Open:
    """A collection whose end event has not come yet.

    ``value`` is the object the collection loads as; an alias inside the
    collection already returns it. Children go into ``items``, which is the
    same object except for ``!!set``, whose keys are gathered in a dict first.
    ``key`` is ``_ITEM`` for sequences; a mapping holds ``_KEY``, ``_MERGE`` or
    the key whose value comes next. ``check`` maps each item of a sequence before
    it is appended. ``cycle_ok`` is true where an alias below may point to a
    mapping still open above (PyYAML filled these collections last).
    """

    __slots__ = ("value", "items", "mark", "key", "unique", "check", "cycle_ok", "merges")

    def __init__(self, value, items, mark, key, unique=True, check=None, cycle_ok=True):
        self.value = value
        self.items = items
        self.mark = mark
        self.key = key
        self.unique = unique
        self.check = check
        self.cycle_ok = cycle_ok
        self.merges = None


def _syntax_error(problem: str, mark) -> ComposeSyntaxError:
    return ComposeSyntaxError(problem, mark.line + 1, mark.column + 1)


def _kind(value) -> str:
    if isinstance(value, (dict, set)):
        return "mapping"
    return "sequence" if isinstance(value, list) else "scalar"


def _merge_source(item, mark):
    if type(item) is not dict:
        raise _syntax_error(f"expected a mapping for merging, but found {_kind(item)}", mark)
    return item


def _single_pair(item, mark):
    """An item of ``!!omap`` or ``!!pairs``: a one-key mapping, kept as a tuple."""
    if type(item) is not dict:
        raise _syntax_error(f"expected a mapping of length 1, but found {_kind(item)}", mark)
    if len(item) != 1:
        raise _syntax_error(f"expected a single mapping item, but found {len(item)} items", mark)
    return next(iter(item.items()))


def _open(event, parent: _Open | None) -> _Open:
    """The collection a start event opens; its tag picks what it loads as."""
    tag, mark = event.tag, event.start_mark
    merge_value = parent is not None and parent.key is _MERGE
    if event.__class__ is MappingStartEvent:
        if tag in _MAP_TAGS:
            # the sources of a merge key (<<) may repeat keys, as PyYAML allowed
            unique = not (merge_value or (parent is not None and parent.check is _merge_source))
            mapping: dict = {}
            return _Open(mapping, mapping, mark, _KEY, unique=unique, cycle_ok=False)
        if tag == _SET_TAG:
            return _Open(set(), {}, mark, _KEY, unique=False)
        kind = "mapping"
    else:
        if tag in _SEQ_TAGS:
            sequence: list = []
            if merge_value:
                return _Open(sequence, sequence, mark, _ITEM, check=_merge_source, cycle_ok=False)
            return _Open(sequence, sequence, mark, _ITEM)
        if tag in _PAIR_LIST_TAGS:
            pairs: list = []
            return _Open(pairs, pairs, mark, _ITEM, check=_single_pair)
        kind = "sequence"
    raise _syntax_error(f"could not determine a constructor for the tag {tag!r} on a {kind}", mark)


def _construct_scalar(loader: _UniqueKeyLoader, tag: str, event):
    if tag in _COLLECTION_KINDS:
        kind = _COLLECTION_KINDS[tag]
        raise _syntax_error(f"expected a {kind} node, but found scalar", event.start_mark)
    construct = SafeConstructor.yaml_constructors.get(tag, SafeConstructor.construct_undefined)
    node = ScalarNode(tag, event.value, event.start_mark, event.end_mark, style=event.style)
    try:
        return construct(loader, node)
    except yaml.YAMLError:
        raise
    except Exception as exc:  # e.g. int("abc") for !!int 'abc': the input is at fault
        raise _syntax_error(f"cannot read {event.value!r} as {tag}", event.start_mark) from exc


def _add_merge(mapping: _Open, value, mark) -> None:
    """Queue the sources of a merge key; ``_apply_merges`` runs at the mapping's end."""
    if type(value) is dict:
        sources = [value]
    elif type(value) is list:
        sources = [_merge_source(item, mark) for item in value]
        sources.reverse()  # the earlier mapping of a list wins
    else:
        raise _syntax_error(
            f"expected a mapping or list of mappings for merging, but found {_kind(value)}", mark
        )
    if mapping.merges is None:
        mapping.merges = sources
    else:
        mapping.merges.extend(sources)


def _apply_merges(mapping: _Open) -> None:
    # merged keys come first; a later source overrides an earlier one and
    # the mapping's own keys override them all (https://yaml.org/type/merge.html)
    merged: dict = {}
    for source in mapping.merges:
        merged.update(source)
    merged.update(mapping.items)
    mapping.items.clear()
    mapping.items.update(merged)


def _refuse_cycle(stack: list[_Open], target: _Open, merging: bool) -> None:
    """Refuse an alias to an open collection that cannot hold it yet.

    That is an open mapping reached through mappings only, or any open
    collection as the value of a merge key, whose items are not all known.
    """
    for frame in reversed(stack):
        if frame is target:
            if merging or not target.cycle_ok:
                raise _syntax_error("found unconstructable recursive node", target.mark)
            return
        if frame.cycle_ok and not merging:
            return


def _build(loader: _UniqueKeyLoader):
    """Build the stream's one document from its events on an explicit stack.

    Mapping keys must be hashable and unique; aliases return the anchored
    object itself. Nothing recurses, and more than ``_MAX_DEPTH`` open
    collections raise ``ComposeSyntaxError("nesting too deep")``.
    """
    get_event, resolve = loader.get_event, loader.resolve
    get_event()  # StreamStartEvent
    if get_event().__class__ is StreamEndEvent:  # else it was the DocumentStartEvent
        return None
    anchors: dict[str, tuple] = {}  # name -> (object, start mark, _Open of a collection)
    plain_tags: dict[str, str] = {}  # text of a plain scalar -> its resolved tag
    stack: list[_Open] = []
    top = None
    while True:
        event = get_event()
        cls = event.__class__
        if cls is ScalarEvent:
            value, tag, mark = event.value, event.tag, event.start_mark
            if tag is None or tag == "!":
                implicit = event.implicit
                if implicit[0]:  # the tag of a plain scalar depends on its text alone
                    tag = plain_tags.get(value)
                    if tag is None:
                        tag = plain_tags[value] = resolve(ScalarNode, value, implicit)
                else:
                    tag = resolve(ScalarNode, value, implicit)
            anchor = event.anchor
            if anchor is not None and anchor in anchors:
                raise _syntax_error(f"found duplicate anchor {anchor!r}", mark)
            if tag != _STR_TAG:
                if tag == _MERGE_TAG and top is not None and top.key is _KEY:
                    top.key = _MERGE
                    continue
                value = _construct_scalar(loader, tag, event)
            if anchor is not None:
                anchors[anchor] = (value, mark, None)
        elif cls is MappingEndEvent or cls is SequenceEndEvent:
            done = stack.pop()
            if done.merges is not None:
                _apply_merges(done)
            value, mark = done.value, done.mark
            if value is not done.items:
                value.update(done.items)  # !!set
            top = stack[-1] if stack else None
        elif cls is AliasEvent:
            try:
                value, mark, target = anchors[event.anchor]
            except KeyError:
                raise _syntax_error(f"found undefined alias {event.anchor!r}", event.start_mark) from None
            if target is not None:
                _refuse_cycle(stack, target, top is not None and top.key is _MERGE)
        else:  # MappingStartEvent or SequenceStartEvent
            if len(stack) == _MAX_DEPTH:
                raise ComposeSyntaxError("nesting too deep")
            anchor = event.anchor
            if anchor is not None and anchor in anchors:
                raise _syntax_error(f"found duplicate anchor {anchor!r}", event.start_mark)
            top = _open(event, top)
            stack.append(top)
            if anchor is not None:
                anchors[anchor] = (top.value, top.mark, top)
            continue

        # hand the finished node to the collection that holds it
        if top is None:
            break
        key = top.key
        if key is _ITEM:
            if top.check is not None:
                value = top.check(value, mark)
            top.items.append(value)
        elif key is _KEY:
            try:
                duplicate = value in top.items
            except TypeError:
                raise _syntax_error(f"unhashable mapping key {value!r}", mark) from None
            if duplicate and top.unique:
                raise _syntax_error(f"duplicate mapping key {value!r}", mark)
            top.key = value
        else:
            top.key = _KEY
            if key is _MERGE:
                _add_merge(top, value, mark)
            else:
                top.items[key] = value

    get_event()  # DocumentEndEvent
    event = get_event()
    if event.__class__ is not StreamEndEvent:
        raise _syntax_error("expected a single document in the stream", event.start_mark)
    return value


def _load_yaml(text: str):
    """The single YAML document in ``text`` (None when there is none)."""
    loader = None
    try:
        loader = _UniqueKeyLoader(text)  # the pure-Python reader refuses non-printable text here
        return _build(loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or "invalid YAML"
        if mark is not None:
            raise ComposeSyntaxError(problem, mark.line + 1, mark.column + 1) from exc
        raise ComposeSyntaxError(problem) from exc
    finally:
        if loader is not None:
            loader.dispose()


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


class _ComposeDumper(_DumperBase):
    pass


# Compose style: empty values render as a bare key rather than an explicit null.
_ComposeDumper.add_representer(
    type(None), lambda dumper, _: dumper.represent_scalar(_NULL_TAG, "")
)


def _represent_set(dumper: _ComposeDumper, data: set) -> yaml.Node:
    # a set iterates in string-hash order, which changes from run to run
    return dumper.represent_set(sorted(data, key=lambda item: (type(item).__name__, repr(item))))


def _represent_list(dumper: _ComposeDumper, data: list) -> yaml.Node:
    # !!omap and !!pairs load as a list of 2-tuples; !!pairs brings one back
    # as that list, where a plain sequence would bring back lists
    if (
        data
        and type(data[0]) is tuple
        and len(data[0]) == 2
        and all(type(item) is tuple and len(item) == 2 for item in data)
    ):
        return dumper.represent_sequence(
            "tag:yaml.org,2002:pairs", [{key: value} for key, value in data]
        )
    return dumper.represent_sequence("tag:yaml.org,2002:seq", data)


_ComposeDumper.add_representer(set, _represent_set)
_ComposeDumper.add_representer(list, _represent_list)


_PLAIN = (True, False)  # resolve() reads the text as a plain scalar
_MAP_TAG, _SEQ_TAG = _MAP_TAGS[-1], _SEQ_TAGS[-1]


class _Repeated(Exception):
    """The walk reached an object again after its first events had been emitted."""


def _walk(dumper: _ComposeDumper, doc, events: list | None) -> None:
    """Emit the events PyYAML's serializer emits for ``doc``, without its node tree.

    One walk on an explicit stack turns str, int, bool, None, dict and list
    into events itself. Any other object goes through the dumper's
    representer (``_represent_set``, ``_represent_list`` for pair lists,
    floats, dates, bytes) and its node becomes events. An object reached
    again is an alias of the first; its anchor is numbered at that second
    visit, as the serializer numbers them, and belongs on the first events.
    So the walk either emits straight away and raises ``_Repeated`` at a
    second visit, or, given ``events``, collects them there to be emitted
    afterwards.
    """
    resolve, represent = dumper.resolve, dumper.represent_data
    out = dumper.emit if events is None else events.append
    # id of a walked dict or list -> its first event; the representer keeps
    # its nodes here too, so an object it reaches as well is one node
    firsts = dumper.represented_objects
    node_firsts: dict = {}  # node from the representer -> its first event
    plain_tags: dict[str, str] = {}  # text of a scalar -> the tag it reads as when plain
    anchor_ids = count(1)

    def alias(first) -> AliasEvent:
        if first.anchor is None:
            if events is None:
                raise _Repeated
            first.anchor = f"id{next(anchor_ids):03d}"
        return AliasEvent(first.anchor)

    def scalar(tag: str, text: str) -> ScalarEvent:
        plain = plain_tags.get(text)
        if plain is None:
            plain = plain_tags[text] = resolve(ScalarNode, text, _PLAIN)
        return ScalarEvent(None, tag, (plain == tag, False), text)

    def first_event(node, event) -> None:
        node_firsts[node] = event
        out(event)

    def node_events(node) -> None:
        # Serializer.serialize_node
        if not isinstance(node, (ScalarNode, SequenceNode, MappingNode)):
            out(alias(node))  # the first event of a dict or list walked below
            return
        if node in node_firsts:
            out(alias(node_firsts[node]))
            return
        tag, value = node.tag, node.value
        if node.__class__ is ScalarNode:
            implicit = (
                tag == resolve(ScalarNode, value, _PLAIN),
                tag == resolve(ScalarNode, value, (False, True)),
            )
            first_event(node, ScalarEvent(None, tag, implicit, value, style=node.style))
            return
        implicit = tag == resolve(node.__class__, value, True)
        if node.__class__ is SequenceNode:
            first_event(node, SequenceStartEvent(None, tag, implicit, flow_style=node.flow_style))
            for item in value:
                node_events(item)
            out(SequenceEndEvent())
        else:
            first_event(node, MappingStartEvent(None, tag, implicit, flow_style=node.flow_style))
            for key, item in value:
                node_events(key)
                node_events(item)
            out(MappingEndEvent())

    stack = [(iter((doc,)), None)]
    while stack:
        items, end = stack[-1]
        for value in items:
            cls = value.__class__
            if cls is str:
                plain = plain_tags.get(value)
                if plain is None:
                    plain = plain_tags[value] = resolve(ScalarNode, value, _PLAIN)
                # a quoted scalar always reads as a string
                out(ScalarEvent(None, _STR_TAG, (plain == _STR_TAG, True), value))
            # a list that starts with a tuple may be a pair list: _represent_list decides
            elif cls is dict or (cls is list and not (value and value[0].__class__ is tuple)):
                first = firsts.get(id(value))
                if first is not None:
                    out(alias(node_firsts.get(first, first)))
                    continue
                if cls is dict:
                    first = MappingStartEvent(None, _MAP_TAG, True, flow_style=False)
                    stack.append((chain.from_iterable(value.items()), MappingEndEvent))
                else:
                    first = SequenceStartEvent(None, _SEQ_TAG, True, flow_style=False)
                    stack.append((iter(value), SequenceEndEvent))
                firsts[id(value)] = first
                out(first)
                break
            elif cls is bool:
                out(scalar(_BOOL_TAG, "true" if value else "false"))
            elif cls is int:
                out(scalar(_INT_TAG, str(value)))
            elif value is None:  # a bare key, as the representer of _ComposeDumper writes it
                out(scalar(_NULL_TAG, ""))
            else:
                node_events(represent(value))
        else:
            stack.pop()
            if end is not None:
                out(end())


def dump_yaml(doc: dict) -> str:
    """``doc`` as block-style YAML: the bytes ``yaml.dump`` writes with ``_ComposeDumper``."""
    try:
        return _dump(doc, None)
    except _Repeated:  # a shared object: its anchor goes on events already emitted
        return _dump(doc, [])


def _dump(doc: dict, events: list | None) -> str:
    stream = io.StringIO()
    dumper = _ComposeDumper(
        stream, default_flow_style=False, allow_unicode=True, width=4096, sort_keys=False
    )
    try:
        dumper.open()
        dumper.emit(DocumentStartEvent())
        _walk(dumper, doc, events)
        for event in events or ():
            dumper.emit(event)
        dumper.emit(DocumentEndEvent())
        dumper.close()
    finally:
        dumper.dispose()
    return stream.getvalue()


def serialize_compose(spec: ComposeSpec) -> str:
    """Render the full spec (retained + residue) back to descriptor text.

    Reparsing the output yields an equivalent ComposeSpec; key order inside a
    service body is normalized, service order is preserved.
    """
    return dump_yaml(spec_to_mapping(spec))
