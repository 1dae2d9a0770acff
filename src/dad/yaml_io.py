"""The YAML layer of ``dad.compose``: descriptor text in, documents out.

``load`` first tries ``_read``, which reads a plain block-style document
(one-line scalars, no anchors, tags or flow collections but ``{}`` and ``[]``)
line by line, with no parser events, in one call per collection and so at
most ``_MAX_DEPTH`` calls deep. It declines every other document and every
malformed one, and a caller too deep in the Python stack for that
recursion; those go to the event path, which does not recurse: a document
built straight from the parser's events, with none of PyYAML's composer or
constructor, by libyaml's parser when PyYAML was built with it and by
PyYAML's pure-Python parser otherwise. Both paths, and the writer, type
plain scalars by PyYAML's YAML 1.1 rules, copied here: ``_resolve`` gives the
tag, and ``_CONSTRUCTORS`` the value of a null, bool, int or float, or of a
date through PyYAML's ``SafeConstructor``; ``_read`` declines the other
tags (``<<``, ``=``), and on the event path ``SafeConstructor`` builds every
explicit tag dad does not. So both paths give equal values; every syntax
error, with its line and column, comes from the event path.
``dump`` writes a document of dicts, lists, strings, ints, floats, bools and
None as text in one pass, and hands any other document to ``yaml.dump`` with
dad's dumper; the bytes are the same either way. Only the event path, a
date and that ``yaml.dump`` call import PyYAML (``_pyyaml``), so a command
that reads and writes block-style descriptors without dates never does.
"""

from __future__ import annotations

import functools
import re
import types

from .errors import ComposeSyntaxError, EmitError

_STR_TAG = "tag:yaml.org,2002:str"
_NULL_TAG = "tag:yaml.org,2002:null"
_BOOL_TAG = "tag:yaml.org,2002:bool"
_INT_TAG = "tag:yaml.org,2002:int"
_FLOAT_TAG = "tag:yaml.org,2002:float"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_TIMESTAMP_TAG = "tag:yaml.org,2002:timestamp"

# PyYAML's YAML 1.1 implicit resolvers (yaml/resolver.py) with their pattern
# text, by first character in Resolver's order, but for its "yaml" resolver of
# "!", "&" and "*": a plain scalar cannot start with those indicators.
_IMPLICIT: dict[str, list[tuple[str, re.Pattern]]] = {}
for _tag, _pattern, _firsts in (
    (_BOOL_TAG, re.compile(r'''^(?:yes|Yes|YES|no|No|NO
                    |true|True|TRUE|false|False|FALSE
                    |on|On|ON|off|Off|OFF)$''', re.X), "yYnNtTfFoO"),
    (_FLOAT_TAG, re.compile(r'''^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
                    |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
                    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
                    |[-+]?\.(?:inf|Inf|INF)
                    |\.(?:nan|NaN|NAN))$''', re.X), "-+0123456789."),
    (_INT_TAG, re.compile(r'''^(?:[-+]?0b[0-1_]+
                    |[-+]?0[0-7_]+
                    |[-+]?(?:0|[1-9][0-9_]*)
                    |[-+]?0x[0-9a-fA-F_]+
                    |[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+)$''', re.X), "-+0123456789"),
    (_MERGE_TAG, re.compile(r"^(?:<<)$"), "<"),
    (_NULL_TAG, re.compile(r'''^(?: ~
                    |null|Null|NULL
                    | )$''', re.X), ("~", "n", "N", "")),
    (_TIMESTAMP_TAG, re.compile(r'''^(?:[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
                    |[0-9][0-9][0-9][0-9] -[0-9][0-9]? -[0-9][0-9]?
                     (?:[Tt]|[ \t]+)[0-9][0-9]?
                     :[0-9][0-9] :[0-9][0-9] (?:\.[0-9]*)?
                     (?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?)$''', re.X), "0123456789"),
    ("tag:yaml.org,2002:value", re.compile(r"^(?:=)$"), "="),
):
    for _first in _firsts:
        _IMPLICIT.setdefault(_first, []).append((_tag, _pattern))


def _resolve(text: str) -> str:
    """The tag PyYAML's ``Resolver`` gives the plain scalar ``text``."""
    for tag, pattern in _IMPLICIT.get(text[:1], ()):
        if pattern.match(text):
            return tag
    return _STR_TAG


# The values of the plain tags dad constructs, as SafeConstructor's methods
# give them for any text, raising where they raise.
_INF = float("inf")
_NAN = -_INF / _INF  # SafeConstructor.nan_value, sign bit included
_BOOLS = {"yes": True, "no": False, "true": True, "false": False, "on": True, "off": False}


def _base60(digits: list, value):
    base = 1
    for digit in reversed(digits):
        value += digit * base
        base *= 60
    return value


def _int(text: str) -> int:
    value = text.replace("_", "")
    sign = -1 if value[0] == "-" else 1
    if value[0] in "+-":
        value = value[1:]
    if value == "0":
        return 0
    if value.startswith("0b"):
        return sign * int(value[2:], 2)
    if value.startswith("0x"):
        return sign * int(value[2:], 16)
    if value[0] == "0":
        return sign * int(value, 8)
    if ":" in value:
        return sign * _base60([int(part) for part in value.split(":")], 0)
    return sign * int(value)


def _float_value(text: str) -> float:
    value = text.replace("_", "").lower()
    sign = -1 if value[0] == "-" else 1
    if value[0] in "+-":
        value = value[1:]
    if value == ".inf":
        return sign * _INF
    if value == ".nan":
        return _NAN
    if ":" in value:
        return sign * _base60([float(part) for part in value.split(":")], 0.0)
    return sign * float(value)


def _timestamp(text: str):
    # dates are rare in descriptors, so PyYAML builds them, imported with the first
    pyyaml = _pyyaml()
    return pyyaml.constructor.construct_yaml_timestamp(pyyaml.yaml.ScalarNode(_TIMESTAMP_TAG, text))


_CONSTRUCTORS = {
    _NULL_TAG: lambda text: None,
    _BOOL_TAG: lambda text: _BOOLS[text.lower()],
    _INT_TAG: _int,
    _FLOAT_TAG: _float_value,
    _TIMESTAMP_TAG: _timestamp,
}


@functools.cache
def _pyyaml() -> types.SimpleNamespace:
    """PyYAML imported on first use (~12 ms of a cold start), and dad's objects made from it.

    ``Parser`` and ``Dumper`` are libyaml's when PyYAML was built with it and
    pure-Python otherwise; ``constructor`` builds dates and the explicit tags
    dad does not.
    """
    import yaml
    from yaml.constructor import SafeConstructor

    if yaml.__with_libyaml__:
        from yaml._yaml import CParser as parser

        dumper_base = yaml.CSafeDumper
    else:
        # only its Reader, Scanner and Parser are used; the Reader refuses
        # non-printable text when the parser is made
        parser, dumper_base = yaml.SafeLoader, yaml.SafeDumper

    class _ComposeDumper(dumper_base):
        pass

    # Compose style: empty values render as a bare key rather than an explicit null.
    _ComposeDumper.add_representer(type(None), lambda dumper, _: dumper.represent_scalar(_NULL_TAG, ""))
    _ComposeDumper.add_representer(set, _represent_set)
    _ComposeDumper.add_representer(list, _represent_list)
    return types.SimpleNamespace(yaml=yaml, Parser=parser, Dumper=_ComposeDumper, constructor=SafeConstructor())


# The printable part of the basic plane but for its line breaks and the byte
# order mark: non-ASCII text both emitters write as it is with allow_unicode
# (libyaml escapes the planes above it), and the text ``_read`` reads.
_PRINTABLE = "\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufefe\uff00-\ufffd"
# Its ASCII part and "\n": an ASCII text is one ``_read`` reads when deleting
# these bytes from it leaves none.
_ASCII_LINES = b"\n" + bytes(range(0x20, 0x7F))


@functools.cache
def _wide() -> tuple[re.Pattern, re.Pattern]:
    """The classes of ``_PRINTABLE`` without and with the line feed, compiled on first use.

    ``re`` builds a class over most of the basic plane code point by code
    point, which costs a descriptor command's cold start ~10 ms, so only the
    first non-ASCII text pays it.
    """
    return re.compile(f"[{_PRINTABLE}]*"), re.compile(f"[\n{_PRINTABLE}]*")


# Collections open at once. The limit keeps deep input from exhausting the
# Python stack of whoever walks the loaded document recursively (yaml.dump
# does, for the documents ``dump`` hands it, and ``_read`` itself).
_MAX_DEPTH = 100

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
    # each caller has taken a plain dict already, so a mapping never reaches it;
    # an item of !!omap or !!pairs is a (key, value) tuple
    if isinstance(value, set):
        return "set"
    if isinstance(value, tuple):
        return "pair"
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


def _open(event, is_mapping: bool, parent: _Open | None) -> _Open:
    """The collection a start event opens; its tag picks what it loads as."""
    tag, mark = event.tag, event.start_mark
    merge_value = parent is not None and parent.key is _MERGE
    if is_mapping:
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


def _construct_scalar(tag: str, event, pyyaml):
    if tag in _COLLECTION_KINDS:
        kind = _COLLECTION_KINDS[tag]
        raise _syntax_error(f"expected a {kind} node, but found scalar", event.start_mark)
    construct = _CONSTRUCTORS.get(tag)
    try:
        if construct is not None:
            return construct(event.value)
        safe = pyyaml.constructor  # the tags dad does not construct: !!binary, !!str, ...
        node = pyyaml.yaml.ScalarNode(tag, event.value, event.start_mark, event.end_mark, style=event.style)
        return safe.yaml_constructors.get(tag, type(safe).construct_undefined)(safe, node)
    except pyyaml.yaml.YAMLError:
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


def _build(parser, pyyaml):
    """Build the stream's one document from its events on an explicit stack.

    Mapping keys must be hashable and unique; aliases return the anchored
    object itself. Nothing recurses, and more than ``_MAX_DEPTH`` open
    collections raise ``ComposeSyntaxError("nesting too deep")``.
    """
    y = pyyaml.yaml
    ScalarEvent, AliasEvent, StreamEndEvent = y.ScalarEvent, y.AliasEvent, y.StreamEndEvent
    MappingStartEvent, MappingEndEvent, SequenceEndEvent = y.MappingStartEvent, y.MappingEndEvent, y.SequenceEndEvent
    get_event, resolve = parser.get_event, _resolve
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
                if event.implicit[0]:  # the tag of a plain scalar depends on its text alone
                    tag = plain_tags.get(value)
                    if tag is None:
                        tag = plain_tags[value] = resolve(value)
                else:
                    tag = _STR_TAG
            anchor = event.anchor
            if anchor is not None and anchor in anchors:
                raise _syntax_error(f"found duplicate anchor {anchor!r}", mark)
            if tag != _STR_TAG:
                if tag == _MERGE_TAG and top is not None and top.key is _KEY:
                    top.key = _MERGE
                    continue
                value = _construct_scalar(tag, event, pyyaml)
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
            top = _open(event, cls is MappingStartEvent, top)
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


# Characters a plain scalar may not start with; "-", "?" and ":" may start
# one when a non-space follows. The space is there for ``_scalar``: a token
# ``_read`` reads never starts with one.
_INDICATORS = frozenset("#,[]{}&*!|>'\"%@` ")
# Both parsers refuse a key whose ":" comes more than 1024 characters after
# its start, quotes included; ``_read`` leaves keys that long to them.
_SIMPLE_KEY = 1024
# Values PyYAML's representer never writes as an anchor and alias, so one
# object may stand for every occurrence of a scalar text.
_UNANCHORED = frozenset((str, int, float, bool, type(None)))
_NOTHING = object()  # no value: a text _read leaves to the event path


def _scalar_value(token: str, build: bool = True):
    """The value of ``token``, a one-line scalar in block context.

    Plain text gets its tag from ``_resolve`` and its value from that tag's
    entry in ``_CONSTRUCTORS``, as on the event path; a plain string is
    ``token`` itself. ``_NOTHING`` when the text is not a complete plain,
    single-quoted or backslash-free double-quoted scalar, or when its tag has
    no entry there (``<<``, ``=``) or the constructor fails: the event path
    reports those. With ``build`` false, any plain text of another tag than
    str is ``_NOTHING`` unconstructed, so writing a date-like string imports
    no PyYAML. The shape rules are those of PyYAML's
    ``Emitter.analyze_scalar`` and libyaml's ``yaml_emitter_analyze_scalar``
    but the document markers, so ``_scalar`` writes by them too.
    """
    first = token[0]
    if first == "'":
        if len(token) < 2 or token[-1] != "'":
            return _NOTHING
        text = token[1:-1]
        if "'" in text:
            if "'" in text.replace("''", ""):  # a quote that ends the scalar early
                return _NOTHING
            text = text.replace("''", "'")
        return text
    if first == '"':
        text = token[1:-1]
        if len(token) < 2 or token[-1] != '"' or '"' in text or "\\" in text:
            return _NOTHING
        return text
    if (
        first in _INDICATORS
        or (first in "-?:" and token[1:2] in ("", " "))
        or token[-1] in ": "  # a key "a :" or "a: b:"
        or ": " in token
        or " #" in token
    ):
        return _NOTHING
    if first not in _IMPLICIT:
        return token
    tag = _resolve(token)
    if tag == _STR_TAG:
        return token
    construct = _CONSTRUCTORS.get(tag)
    if construct is None or not build:
        return _NOTHING
    try:
        return construct(token)
    except Exception:  # e.g. 0b_, 2001-02-30, or a float whose base-60 sum overflows:
        return _NOTHING  # the event path reports it


def _split(content: str) -> tuple:
    """``content`` cut into the texts of its key and value, or (None, None) if it is no ``key:`` line."""
    first = content[0]
    if first == "'" or first == '"':
        end = content.find(first, 1)
        if first == "'":
            while end > 0 and content[end + 1 : end + 2] == "'":  # '' stands for '
                end = content.find("'", end + 2)
        if end < 0:
            return None, None
        tail = content[end + 1 :]
        if tail == ":":
            return content[: end + 1], ""
        if tail.startswith(": "):
            return content[: end + 1], tail[2:].lstrip(" ")
        return None, None
    colon = content.find(": ")
    if colon >= 0:
        return content[:colon], content[colon + 2 :].lstrip(" ")
    if content[-1] == ":":
        return content[:-1], ""
    return None, None


def _line_shape(line: str):
    """A line parsed: () if blank or a comment, or False to leave the text to the event path.

    ``(column, _ITEM, shape of the rest or None)`` for a list entry,
    ``(column, key text, value text)`` for a ``key:`` line (the value text is
    empty when the value starts on a later line) and ``(column, None, text)``
    for a scalar. It does not recurse, so a long ``- - - ...`` chain needs
    no stack.
    """
    content = line.lstrip(" ")
    if not content or content[0] == "#":
        return ()
    column = len(line) - len(content)
    if column == 0 and content.startswith(("---", "...")):
        return False
    content = content.rstrip(" ")
    dashes: list[int] = []  # the column of each leading "- "
    while content[0] == "-" and content[1:2] in ("", " "):
        if len(dashes) == _MAX_DEPTH:
            return False
        dashes.append(column)
        rest = content[1:].lstrip(" ")
        if not rest:
            shape = None
            break
        column += len(content) - len(rest)
        content = rest
    else:
        key, token = _split(content)
        if key is None:
            shape = (column, None, content)
        elif not key or len(key) >= _SIMPLE_KEY:  # ": v" or a key too long
            return False
        else:
            shape = (column, key, token)
    for column in reversed(dashes):
        shape = (column, _ITEM, shape)
    return shape


class _Decline(Exception):
    """``_read`` leaves the text to the event path."""


def _read(text: str):
    """``text`` read as block-style YAML line by line, or None to leave it to the event path.

    It reads block mappings and sequences (indentless ``key:`` + ``- item``,
    ``- k: v`` and ``- - a`` included) of one-line scalars: plain,
    single-quoted and double-quoted without a backslash, ``{}`` and ``[]``,
    with blank and comment lines between them. The values are those ``_build``
    gives. Anything else gives None: anchors, aliases, tags, other flow
    collections, block scalars, a scalar that goes on to a deeper line,
    ``? `` and ``<<`` keys, a key repeated or ``_SIMPLE_KEY`` characters long,
    a trailing comment, tabs, other line breaks, a byte order mark, document
    markers and directives, an indent no open collection has, nesting deeper
    than ``_MAX_DEPTH`` and the empty document. So it raises nothing: every
    error comes from the event path. One call of ``block`` reads each
    collection, so the recursion is bounded by ``_MAX_DEPTH``; a caller too
    deep in the stack for it gets None too, and the event path, which does
    not recurse, reads the text.
    """
    if text.isascii():
        if text.encode().translate(None, _ASCII_LINES):
            return None
    elif _wide()[1].fullmatch(text) is None:
        return None
    shapes: dict = {}  # a line -> its _line_shape; descriptors repeat most lines
    rows: list = []  # the shape of each line that is not blank or a comment
    for line in text.split("\n"):
        shape = shapes.get(line)
        if shape is None:
            shape = shapes[line] = _line_shape(line)
        if shape:
            rows.append(shape)
        elif shape is False:
            return None
    if not rows:
        return None
    end = len(rows)
    values: dict = {}  # text of a scalar -> its value, when _UNANCHORED

    def scalar(token: str):
        value = values.get(token, _NOTHING)
        if value is _NOTHING:
            value = _scalar_value(token)
            if value is _NOTHING:
                raise _Decline
            if value.__class__ in _UNANCHORED:
                values[token] = value
        return value

    def value_of(token: str, depth: int):
        if token == "{}" or token == "[]":
            if depth == _MAX_DEPTH:
                raise _Decline
            return {} if token == "{}" else []
        return scalar(token)

    def later(column: int, row: int, depth: int, indentless: bool):
        # the value of a bare "key:" or "-": the collection on the lines below,
        # or a list at the key's own column (key:\n- item), else None
        if row < end:
            shape = rows[row]
            if shape[0] > column or (indentless and shape[0] == column and shape[1] is _ITEM):
                return block(shape, row + 1, depth + 1)
        return None, row

    def block(shape, row: int, depth: int):
        # the collection whose first line has ``shape``, and the index of the
        # first row after it: the rows at its column and of its kind
        if depth > _MAX_DEPTH:
            raise _Decline
        column, kind, rest = shape
        entry = kind is _ITEM
        collection = [] if entry else {}
        while True:
            if entry:  # "-" alone, a scalar, or "- - ..." and "- k: ..." opening a collection
                if rest is None:
                    value, row = later(column, row, depth, False)
                elif rest[1] is None:
                    value = value_of(rest[2], depth)
                else:
                    value, row = block(rest, row, depth + 1)
                collection.append(value)
            elif kind is None:  # a scalar where a key belongs
                raise _Decline
            else:
                key = scalar(kind)
                if key in collection:
                    raise _Decline
                if rest:
                    collection[key] = value_of(rest, depth)
                else:
                    collection[key], row = later(column, row, depth, True)
            if row == end:
                return collection, row
            next_column, kind, rest = rows[row]
            if next_column != column or (kind is _ITEM) is not entry:
                return collection, row
            row += 1

    try:
        doc, row = block(rows[0], 1, 1)
    except (_Decline, RecursionError):
        return None
    return doc if row == end else None


def load(text: str):
    """The single YAML document in ``text`` (None when there is none)."""
    doc = _read(text)
    return _load_events(text) if doc is None else doc


def _load_events(text: str):
    """``load`` on the event path: the documents ``_read`` declines, and every syntax error."""
    pyyaml = _pyyaml()
    parser = None
    try:
        parser = pyyaml.Parser(text)  # the pure-Python reader refuses non-printable text here
        return _build(parser, pyyaml)
    except pyyaml.yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or "invalid YAML"
        if mark is not None:
            raise _syntax_error(problem, mark) from exc
        raise ComposeSyntaxError(problem) from exc
    finally:
        if parser is not None:
            parser.dispose()


def _represent_set(dumper, data: set):
    # a set iterates in string-hash order, which changes from run to run
    return dumper.represent_set(sorted(data, key=lambda item: (type(item).__name__, repr(item))))


def _represent_list(dumper, data: list):
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
    elif _wide()[0].fullmatch(text) is None:
        return None
    # the emitters quote the empty text, a document marker and a text that
    # _scalar_value would not read back plain as itself
    if not text or text.startswith(("---", "...")) or _scalar_value(text, build=False) is not text:
        text = "'" + text.replace("'", "''") + "'"
    if len(text) > _MAX_SPACED and " " in text:
        return None
    return text


def _float(value: float) -> str:
    """``value`` as ``SafeRepresenter.represent_float`` writes it.

    ``repr`` gives digits with a dot or a signed exponent, so the text reads
    back as a float.
    """
    if value != value:
        return ".nan"
    if value == _INF:
        return ".inf"
    if value == -_INF:
        return "-.inf"
    text = repr(value).lower()
    if "." not in text and "e" in text:  # 1e+17: a !!float needs the dot
        text = text.replace("e", ".0e", 1)
    return text


def _text(doc) -> str | None:
    """``doc`` written as block-style YAML in one pass, or None if it holds something else.

    The writer takes dicts with str keys, lists, str, int, float, bool and None.
    Empty collections are written as ``{}`` and ``[]``, and a list in a list
    in compact form (``- - a``). A dict or list reached again is an alias of
    its first occurrence, which left an empty slot in ``out`` for its anchor;
    anchors are named in the order of the second visits, as PyYAML's
    serializer names them. Without the anchors, one shared mapping (an
    ``x-logging`` block, say) would send the whole document to ``yaml.dump``:
    at 4000 services (``gen.scale_descriptor``) that took 1.17 s, against
    0.13 s here (Python 3.11, libyaml, a 2-core Xeon). Any other value, a
    collection that holds itself, a key the emitters would write as
    ``? key`` and a string ``_scalar`` cannot write give None.
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
            elif cls is float:
                write(f"{head} {_float(value)}\n")
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
    """``doc`` as block-style YAML: the bytes ``yaml.dump`` writes with dad's dumper.

    ``_text`` writes the documents it covers; everything else goes to that
    ``yaml.dump`` call itself, whose recursive walk raises ``EmitError`` for
    a document nested too deep for the Python stack.
    """
    text = _text(doc)
    if text is None:
        pyyaml = _pyyaml()
        try:
            text = pyyaml.yaml.dump(
                doc,
                Dumper=pyyaml.Dumper,
                sort_keys=False,
                default_flow_style=False,
                allow_unicode=True,
                width=_WIDTH,
            )
        except RecursionError as exc:
            raise EmitError("nesting too deep to dump") from exc
    return text
