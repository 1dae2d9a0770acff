"""The YAML layer of ``dad.compose``: descriptor text in, documents out.

``load`` builds a document straight from the parser's events, so it runs
none of PyYAML's composer or constructor; it uses libyaml's parser when
PyYAML was built with it and PyYAML's pure-Python parser otherwise. ``dump``
writes a document of dicts, lists, strings, ints, bools and None as text in
one pass, and hands any other document to ``yaml.dump`` with dad's dumper;
the bytes are the same either way. ``dad.compose`` imports this module on its
first load or dump, so a command that reads no YAML never imports PyYAML.
"""

from __future__ import annotations

import re

import yaml
from yaml.constructor import SafeConstructor
from yaml.events import (
    AliasEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode
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
# Python stack of whoever walks the loaded document recursively (yaml.dump
# does, for the documents ``dump`` hands it).
_MAX_DEPTH = 100

_STR_TAG = "tag:yaml.org,2002:str"
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
_resolve = Resolver().resolve
# The first characters that have implicit resolvers. Resolver has no wildcard
# resolver, so a text that starts with any other character reads as a string.
_RESOLVED_FIRSTS = frozenset(Resolver.yaml_implicit_resolvers)

# Non-ASCII text both emitters write as it is with allow_unicode: the
# printable part of the basic plane but for its line breaks (libyaml escapes
# the planes above it).
_WIDE = re.compile("[\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd]*")
_WIDTH = 4096  # the line width dump asks of the emitter
# ``_text`` leaves deeper documents to yaml.dump, so a value starts before
# column _MAX_INDENT + 248 (a key's text is at most 246 characters). A value
# with a space that fits in _MAX_SPACED characters then ends before _WIDTH,
# where the emitters would fold it.
_MAX_INDENT = 1000
_MAX_SPACED = _WIDTH - _MAX_INDENT - 248
# Keys of this length and longer are written as "? key" by PyYAML's emitter
# (from 123 characters) or libyaml's (from 129 UTF-8 bytes). PyYAML's writes
# the empty key that way too.
_LONG_KEY = 123


def _scalar(text: str) -> str | None:
    """``text`` as the emitters write it in block context: plain or single-quoted.

    None when they would write it some other way: double-quoted, for a line
    break or a character they escape, or folded at a space near ``_WIDTH``.
    """
    if text.isascii():
        if not text.isprintable():
            return None
    elif _WIDE.fullmatch(text) is None:
        return None
    # PyYAML's Emitter.analyze_scalar and libyaml's yaml_emitter_analyze_scalar
    # allow a plain scalar in block context unless it starts with a document
    # marker or an indicator, holds ": " or " #", ends in a colon or has a
    # space at either end. The empty text is quoted: "" is in any string.
    if (
        text[:1] in "#,[]{}&*!|>'\"%@` "
        or text.startswith(("---", "...", "- ", "? ", ": "))
        or text in ("-", "?")
        or text.endswith((" ", ":"))
        or ": " in text
        or " #" in text
        or (text[0] in _RESOLVED_FIRSTS and _resolve(ScalarNode, text, _PLAIN) != _STR_TAG)
    ):
        text = "'" + text.replace("'", "''") + "'"
    if len(text) > _MAX_SPACED and " " in text:
        return None
    return text


def _text(doc) -> str | None:
    """``doc`` written as block-style YAML in one pass, or None if it holds something else.

    The writer takes dicts with str keys, lists, str, int, bool and None.
    Empty collections are written as ``{}`` and ``[]``, and a list in a list
    in compact form (``- - a``). A dict or list reached again is an alias of
    its first occurrence, which left an empty slot in ``out`` for its anchor;
    anchors are named in the order of the second visits, as PyYAML's
    serializer names them. Any other value, a collection that holds itself,
    a key the emitters would write as ``? key`` and a string ``_scalar``
    cannot write give None.
    """
    cls = doc.__class__
    if cls is not dict and cls is not list:
        return None
    if not doc:
        return "{}\n" if cls is dict else "[]\n"
    out: list[str] = []
    write = out.append
    values: dict[str, str] = {}  # a string value -> its text
    keys: dict[str, str] = {}  # a key -> its text and colon
    # id of a dict or list written -> (index of its anchor slot in out, the
    # indent of the line after the anchor, or None when the line goes on)
    slots: dict[int, tuple] = {id(doc): (None, None)}
    names: dict[int, str] = {}  # id of a dict or list reached again -> its anchor name
    parents: list[tuple] = []  # the state of each open collection above the current one
    is_map, items, indent, current = cls is dict, iter(doc.items() if cls is dict else doc), "", id(doc)
    lead = ""  # what the next line starts with
    while True:
        # write scalar entries up to a dict or list, or to the end
        for entry in items:
            if is_map:
                key, value = entry
                text = keys.get(key)
                if text is None:
                    text = key.__class__ is str and _scalar(key)
                    if not key or not text or len(key.encode()) >= _LONG_KEY:
                        return None
                    text = keys[key] = text + ":"
                head = lead + text
            else:
                value = entry
                head = lead + "-"
            lead = indent
            cls = value.__class__
            if cls is str:
                written = values.get(value)
                if written is None:
                    written = values[value] = _scalar(value)
                    if written is None:
                        return None
                write(f"{head} {written}\n")
            elif cls is dict or cls is list:
                break
            elif value is None:  # a bare key, as the representer of _ComposeDumper writes it
                write(head + "\n")
            elif cls is bool:
                write(head + (" true\n" if value else " false\n"))
            elif cls is int:
                write(f"{head} {value}\n")
            else:
                return None
        else:  # the collection is written
            if not parents:
                return "".join(out)
            is_map, items, indent, current = parents.pop()
            lead = indent
            continue
        key = id(value)
        if key in slots:  # reached again: an alias
            name = names.get(key)
            if name is None:
                if key == current or any(parent[3] == key for parent in parents):
                    return None
                index, after = slots[key]
                name = names[key] = f"id{len(names) + 1:03d}"
                out[index] = f" &{name}" if after is None else f"&{name}\n{after}"
            write(f"{head} *{name}\n")
        elif not value:
            write(head)
            slots[key] = (len(out), None)
            write("")
            write(" {}\n" if cls is dict else " []\n")
        else:
            parents.append((is_map, items, indent, current))
            if is_map:  # the collection starts on the next line
                write(head)
                if cls is dict:
                    indent += "  "
                slots[key] = (len(out), None)
                lead = "\n" + indent
            else:  # it starts after the dash
                write(head + " ")
                indent += "  "
                slots[key] = (len(out), indent)
                lead = ""
            write("")
            if len(indent) > _MAX_INDENT:
                return None
            is_map, items, current = cls is dict, iter(value.items() if cls is dict else value), key


def dump(doc) -> str:
    """``doc`` as block-style YAML: the bytes ``yaml.dump`` writes with ``_ComposeDumper``.

    ``_text`` writes the documents it covers; everything else goes to that
    ``yaml.dump`` call itself.
    """
    text = _text(doc)
    if text is None:
        text = yaml.dump(
            doc,
            Dumper=_ComposeDumper,
            sort_keys=False,
            default_flow_style=False,
            allow_unicode=True,
            width=_WIDTH,
        )
    return text
