"""The YAML layer of ``dad.compose``: descriptor text in, documents out.

``load`` builds a document straight from the parser's events and ``dump``
writes one by handing events straight to the emitter, so neither runs
PyYAML's composer, constructor, representer or serializer on the hot path.
Both use libyaml when PyYAML was built with it and PyYAML's pure-Python
parser and emitter otherwise. ``dad.compose`` imports this module on its
first load or dump, so a command that reads no YAML never imports PyYAML.
"""

from __future__ import annotations

import io
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

from .errors import ComposeSyntaxError

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
    """Event source of ``load``; ``_build`` makes the objects itself.

    Only its parser, its resolver (tags of plain scalars) and its scalar
    constructors are used; PyYAML's composer and collection constructors are not.
    """


# Collections open at once. The limit keeps deep input from exhausting the
# Python stack of whoever walks the loaded document recursively (the
# representer does, for the sets and pair lists ``dump`` hands it).
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


def load(text: str):
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


def _anchors(dumper: _ComposeDumper, doc) -> dict[int, str]:
    """Name the anchors of ``doc`` before ``_walk`` emits any event.

    This pass walks ``doc`` in ``_walk``'s order and emits nothing. It numbers
    the first event of each dict, list and representer node in that order,
    and names each one the walk reaches again. Names go in the order of
    those second visits, as PyYAML's serializer gives them. The result maps
    first-event number to anchor name. The representer's state is reset
    afterwards, so ``_walk`` starts afresh.
    """
    represent = dumper.represent_data
    # id of a walked dict or list -> the number of its first event; the
    # representer keeps its nodes here too, as in _walk
    numbered = dumper.represented_objects
    node_numbers: dict = {}  # node from the representer -> the number of its first event
    anchors: dict[int, str] = {}
    numbers = count()

    def again(number: int) -> None:
        if number not in anchors:
            anchors[number] = f"id{len(anchors) + 1:03d}"

    def visit(node) -> None:
        if node.__class__ is int:  # a dict or list walked below, by its number
            again(node)
            return
        number = node_numbers.get(node)
        if number is not None:
            again(number)
            return
        node_numbers[node] = next(numbers)
        if node.__class__ is SequenceNode:
            for item in node.value:
                visit(item)
        elif node.__class__ is MappingNode:
            for key, item in node.value:
                visit(key)
                visit(item)

    stack = [iter((doc,))]
    while stack:
        for value in stack[-1]:
            cls = value.__class__
            if cls is str or cls is bool or cls is int or value is None:
                continue
            if cls is dict or (cls is list and not (value and value[0].__class__ is tuple)):
                seen = numbered.get(id(value))
                if seen is None:
                    numbered[id(value)] = next(numbers)
                    stack.append(chain.from_iterable(value.items()) if cls is dict else iter(value))
                    break
                again(seen if seen.__class__ is int else node_numbers[seen])
            else:
                visit(represent(value))
        else:
            stack.pop()
    dumper.represented_objects = {}
    dumper.object_keeper = []
    return anchors


def _walk(dumper: _ComposeDumper, doc, anchors: dict[int, str]) -> None:
    """Emit the events PyYAML's serializer emits for ``doc``, without its node tree.

    One walk on an explicit stack turns str, int, bool, None, dict and list
    into events itself. Any other object goes through the dumper's
    representer (``_represent_set``, ``_represent_list`` for pair lists,
    floats, dates, bytes) and its node becomes events. An object reached
    again is an alias of the first. ``anchors`` (from ``_anchors``) names the
    anchor of each first event by its number in walk order, so every event
    is emitted as soon as it is made.
    """
    resolve, represent, emit = dumper.resolve, dumper.represent_data, dumper.emit
    # id of a walked dict or list -> its first event; the representer keeps
    # its nodes here too, so an object it reaches as well is one node
    firsts = dumper.represented_objects
    node_firsts: dict = {}  # node from the representer -> its first event
    plain_tags: dict[str, str] = {}  # text of a scalar -> the tag it reads as when plain
    # The emitters only read events, so one event serves every occurrence of
    # a string, and one every start without an anchor and every end.
    str_events: dict[str, ScalarEvent] = {}
    map_start = MappingStartEvent(None, _MAP_TAG, True, flow_style=False)
    seq_start = SequenceStartEvent(None, _SEQ_TAG, True, flow_style=False)
    map_end, seq_end = MappingEndEvent(), SequenceEndEvent()
    numbers = count()

    def scalar(tag: str, text: str) -> ScalarEvent:
        plain = plain_tags.get(text)
        if plain is None:
            plain = plain_tags[text] = resolve(ScalarNode, text, _PLAIN)
        return ScalarEvent(None, tag, (plain == tag, False), text)

    def first_event(node, event) -> None:
        node_firsts[node] = event
        emit(event)

    def node_events(node) -> None:
        # Serializer.serialize_node
        if not isinstance(node, (ScalarNode, SequenceNode, MappingNode)):
            emit(AliasEvent(node.anchor))  # the first event of a dict or list walked below
            return
        if node in node_firsts:
            emit(AliasEvent(node_firsts[node].anchor))
            return
        anchor = anchors.get(next(numbers))
        tag, value = node.tag, node.value
        if node.__class__ is ScalarNode:
            implicit = (
                tag == resolve(ScalarNode, value, _PLAIN),
                tag == resolve(ScalarNode, value, (False, True)),
            )
            first_event(node, ScalarEvent(anchor, tag, implicit, value, style=node.style))
            return
        implicit = tag == resolve(node.__class__, value, True)
        if node.__class__ is SequenceNode:
            first_event(node, SequenceStartEvent(anchor, tag, implicit, flow_style=node.flow_style))
            for item in value:
                node_events(item)
            emit(seq_end)
        else:
            first_event(node, MappingStartEvent(anchor, tag, implicit, flow_style=node.flow_style))
            for key, item in value:
                node_events(key)
                node_events(item)
            emit(map_end)

    stack = [(iter((doc,)), None)]
    while stack:
        items, end = stack[-1]
        for value in items:
            cls = value.__class__
            if cls is str:
                event = str_events.get(value)
                if event is None:
                    plain = resolve(ScalarNode, value, _PLAIN)
                    # a quoted scalar always reads as a string
                    implicit = (plain == _STR_TAG, True)
                    event = str_events[value] = ScalarEvent(None, _STR_TAG, implicit, value)
                emit(event)
            # a list that starts with a tuple may be a pair list: _represent_list decides
            elif cls is dict or (cls is list and not (value and value[0].__class__ is tuple)):
                first = firsts.get(id(value))
                if first is not None:
                    emit(AliasEvent(node_firsts.get(first, first).anchor))
                    continue
                anchor = anchors.get(next(numbers))
                if cls is dict:
                    first = map_start
                    if anchor is not None:
                        first = MappingStartEvent(anchor, _MAP_TAG, True, flow_style=False)
                    stack.append((chain.from_iterable(value.items()), map_end))
                else:
                    first = seq_start
                    if anchor is not None:
                        first = SequenceStartEvent(anchor, _SEQ_TAG, True, flow_style=False)
                    stack.append((iter(value), seq_end))
                firsts[id(value)] = first
                emit(first)
                break
            elif cls is bool:
                emit(scalar(_BOOL_TAG, "true" if value else "false"))
            elif cls is int:
                emit(scalar(_INT_TAG, str(value)))
            elif value is None:  # a bare key, as the representer of _ComposeDumper writes it
                emit(scalar(_NULL_TAG, ""))
            else:
                node_events(represent(value))
        else:
            stack.pop()
            if end is not None:
                emit(end)


def dump(doc) -> str:
    """``doc`` as block-style YAML: the bytes ``yaml.dump`` writes with ``_ComposeDumper``."""
    stream = io.StringIO()
    dumper = _ComposeDumper(
        stream, default_flow_style=False, allow_unicode=True, width=4096, sort_keys=False
    )
    try:
        anchors = _anchors(dumper, doc)
        dumper.open()
        dumper.emit(DocumentStartEvent())
        _walk(dumper, doc, anchors)
        dumper.emit(DocumentEndEvent())
        dumper.close()
    finally:
        dumper.dispose()
    return stream.getvalue()
