"""The libyaml and pure-Python YAML backends of ``dad.compose`` agree.

``backends.python_backend`` reloads the module as if PyYAML had no libyaml,
so each test can compare the two. Only the wording of syntax errors may
differ between backends. On each backend, loading matches PyYAML's composer
and constructor, and dumping matches ``yaml.dump`` with dad's dumper; both
references are kept below.
"""

import datetime
import functools
import math
import random
import re
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

from dad import cli, compose, yaml_io
from dad.compose import ComposeSpec, MountRef, ServiceEntry, spec_to_mapping
from dad.dac_ingest import emit_compose
from dad.errors import ComposeSyntaxError, DadError, EmitError
from dad.model import BuildRef

from backends import on_both_backends, python_backend
from specgen import doc_to_yaml, gen_descriptor_doc, perfbench_gen

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


gen = perfbench_gen()


def test_backend_follows_libyaml_availability():
    parser, dumper = yaml_io._pyyaml().Parser, yaml_io._pyyaml().Dumper
    if yaml.__with_libyaml__:
        from yaml._yaml import CParser

        assert issubclass(parser, CParser)
        assert issubclass(dumper, yaml.CSafeDumper)
    with python_backend():
        assert issubclass(yaml_io._pyyaml().Parser, yaml.SafeLoader)
        assert issubclass(yaml_io._pyyaml().Dumper, yaml.SafeDumper)
    assert yaml_io._pyyaml().Parser is parser and yaml_io._pyyaml().Dumper is dumper


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_compose_follows_the_backend_switch_and_its_restore():
    # compose holds yaml_io's own load, whose lookups go to yaml_io's namespace
    # at call time: the reload switches it, and the restore switches it back
    def problem():
        with pytest.raises(ComposeSyntaxError) as caught:
            compose._load_yaml("a: b: c\n")
        return str(caught.value)

    assert compose._load_yaml is yaml_io.load and compose.dump_yaml is yaml_io.dump
    assert problem().startswith("mapping values are not allowed in this context")
    with python_backend():
        assert problem().startswith("mapping values are not allowed here")
    assert problem().startswith("mapping values are not allowed in this context")


def descriptor_texts() -> list[str]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.yml"))]
    rng = random.Random(11)
    for _ in range(60):
        doc = gen_descriptor_doc(rng, max_services=20, max_volumes=10, max_networks=10)
        texts.append(doc_to_yaml(doc))
    return texts


def outputs(text: str) -> tuple:
    """Loaded document, serialized descriptor, and the model's inverse descriptor."""
    spec = compose.parse_compose(text)
    try:
        inverse = emit_compose(compose.lower(spec))
    except DadError as exc:  # cyclic.yml: the emitter refuses an invalid model
        inverse = type(exc).__name__
    return compose._load_yaml(text), compose.serialize_compose(spec), inverse


def test_documents_and_output_bytes_match():
    texts = descriptor_texts()
    native, pure = on_both_backends(lambda: [outputs(text) for text in texts])
    assert len(native) == len(pure) == len(texts)
    for text, left, right in zip(texts, native, pure):
        assert left == right, text


MALFORMED = {
    "unterminated flow list": ("services: [a, b\n", 2, 1),
    "tab indent": ("services:\n\tweb:\n    image: a\n", 2, 1),
    "bad indentation": ("services:\n  web:\n    image: a\n   ports: []\n", 4, 4),
    "duplicate key": ("services:\n  web:\n    image: a\n  web:\n    image: b\n", 4, 3),
    "unhashable key": ("services:\n  ? [a]\n  : 1\n", 2, 5),
    "undefined alias": ("services:\n  web: *nope\n", 2, 8),
    "deep nesting": ("a: " + "[" * 5000 + "]" * 5000 + "\n", None, None),
    "deep block nesting": ("a:\n" + "- " * 5000 + "x\n", None, None),
}


@pytest.mark.parametrize("text,line,col", MALFORMED.values(), ids=MALFORMED.keys())
def test_syntax_error_position_matches(text, line, col):
    def position():
        with pytest.raises(ComposeSyntaxError) as err:
            compose.parse_compose(text)
        return err.value.line, err.value.col

    assert on_both_backends(position) == ((line, col), (line, col))


def residue_heavy_spec(n_services: int) -> ComposeSpec:
    """Services that carry every kind of residue the serializer places."""
    spec = ComposeSpec(volumes=["data"], networks=["back"])
    spec.residue[("version",)] = "3.8"
    spec.residue[("volumes", "data", "driver")] = "local"
    spec.residue[("networks", "back", "internal")] = True
    for i in range(n_services):
        name = f"svc{i}"
        earlier = [f"svc{i - 1}"] if i else []
        spec.services[name] = ServiceEntry(
            build=BuildRef(context=f"./{name}"),
            depends_on=earlier,
            links=earlier,
            volumes=[MountRef("data", f"/srv/{i}")],
            networks=["back"],
        )
        res = spec.residue
        res[("services", name, "build", "args")] = {"N": str(i)}
        for dep in earlier:
            res[("services", name, "depends_on", dep)] = {"condition": "service_started"}
            res[("services", name, "links", 0)] = "prev"
        res[("services", name, "volumes", f"data:/srv/{i}", "mode")] = "ro"
        res[("services", name, "volumes")] = ["./conf:/etc/conf"]
        res[("services", name, "networks", "back")] = {"aliases": [name]}
        res[("services", name, "ports")] = [f"{8000 + i}:80"]
        res[("services", name, "restart")] = "always"
    return spec


def test_spec_to_mapping_places_every_residue_kind():
    doc = spec_to_mapping(residue_heavy_spec(2))
    assert doc["version"] == "3.8"
    assert doc["volumes"] == {"data": {"driver": "local"}}
    assert doc["networks"] == {"back": {"internal": True}}
    assert doc["services"]["svc1"] == {
        "build": {"context": "./svc1", "args": {"N": "1"}},
        "depends_on": {"svc0": {"condition": "service_started"}},
        "links": ["svc0:prev"],
        "volumes": ["data:/srv/1:ro", "./conf:/etc/conf"],
        "networks": {"back": {"aliases": ["svc1"]}},
        "ports": ["8001:80"],
        "restart": "always",
    }


def test_spec_to_mapping_is_linear_in_services():
    def best_of_3(spec: ComposeSpec) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            spec_to_mapping(spec)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = best_of_3(residue_heavy_spec(200)), best_of_3(residue_heavy_spec(4000))
    # 20x the services: linear cost is ~20x, the old per-service residue scan ~400x
    assert large < 100 * small, f"200 services {small * 1e3:.1f} ms, 4000 services {large * 1e3:.1f} ms"


# The loader dad used before it built documents straight from parser events:
# PyYAML's composer and SafeConstructor with a duplicate-key check. It is the
# reference the event builder must agree with.
def _reference_construct_pairs(loader, pairs, unique: bool) -> dict:
    mapping = {}
    for key_node, value_node in pairs:
        key = loader.construct_object(key_node)
        try:
            duplicate = key in mapping
        except TypeError:
            raise ComposeSyntaxError(
                f"unhashable mapping key {key!r}",
                key_node.start_mark.line + 1,
                key_node.start_mark.column + 1,
            ) from None
        if duplicate and unique:
            raise ComposeSyntaxError(
                f"duplicate mapping key {key!r}",
                key_node.start_mark.line + 1,
                key_node.start_mark.column + 1,
            )
        mapping[key] = loader.construct_object(value_node)
    return mapping


def _reference_construct_mapping(loader, node):
    explicit = [pair for pair in node.value if pair[0].tag != "tag:yaml.org,2002:merge"]
    mapping = _reference_construct_pairs(loader, explicit, unique=True)
    if len(explicit) == len(node.value):
        return mapping
    loader.flatten_mapping(node)
    return _reference_construct_pairs(loader, node.value, unique=False)


class _ReferencePythonLoader(yaml.SafeLoader):
    pass


_REFERENCE_LOADERS = [_ReferencePythonLoader]
if yaml.__with_libyaml__:
    from yaml._yaml import CParser
    from yaml.composer import Composer

    class _ReferenceLibyamlLoader(CParser, Composer, SafeConstructor, Resolver):
        get_single_node = Composer.get_single_node

        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

    _REFERENCE_LOADERS.append(_ReferenceLibyamlLoader)

for _loader in _REFERENCE_LOADERS:
    _loader.add_constructor("tag:yaml.org,2002:map", _reference_construct_mapping)


def reference_load(text: str):
    """Load ``text`` with the reference loader of the backend now in use."""
    loader = _REFERENCE_LOADERS[-1] if yaml.__with_libyaml__ else _ReferencePythonLoader
    try:
        return yaml.load(text, Loader=loader)
    except ComposeSyntaxError:
        raise
    except RecursionError:
        raise ComposeSyntaxError("nesting too deep") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ComposeSyntaxError(str(exc.problem), mark.line + 1, mark.column + 1) from exc
        raise ComposeSyntaxError("invalid YAML") from exc


def assert_same(left, right, seen: dict | None = None) -> None:
    """Equal values of the same types, with shared objects (aliases) in the same places."""
    seen = {} if seen is None else seen
    assert type(left) is type(right), (left, right)
    if isinstance(left, (dict, list, set)):
        if id(left) in seen or id(right) in seen:
            assert seen.get(id(left)) is right and seen.get(id(right)) is left
            return
        seen[id(left)], seen[id(right)] = right, left
    if isinstance(left, dict):
        assert len(left) == len(right), (left, right)
        for (lkey, lvalue), (rkey, rvalue) in zip(left.items(), right.items()):
            assert_same(lkey, rkey, seen)
            assert_same(lvalue, rvalue, seen)
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), (left, right)
        for litem, ritem in zip(left, right):
            assert_same(litem, ritem, seen)
    elif isinstance(left, set):
        assert sorted(map(repr, left)) == sorted(map(repr, right))
    elif isinstance(left, float) and left != left:
        assert right != right
    else:
        assert left == right, (left, right)


def assert_loads_like_reference(text: str) -> None:
    try:
        expected = reference_load(text)
    except ComposeSyntaxError as exc:
        with pytest.raises(ComposeSyntaxError) as err:
            compose._load_yaml(text)
        assert (err.value.line, err.value.col) == (exc.line, exc.col), (text, str(err.value), str(exc))
        return
    assert_same(compose._load_yaml(text), expected)


PARITY_INPUTS = {
    "merge single": "base: &b {image: a, restart: always}\nweb:\n  <<: *b\n  image: c\n",
    "merge list": "a: &a {x: 1, p: 1}\nb: &b {y: 2, p: 2}\nc:\n  z: 3\n  <<: [*a, *b]\n",
    "merge repeated": "a: &a {x: 1}\nb: &b {x: 2, y: 2}\nc:\n  <<: *a\n  <<: *b\n  z: 3\n",
    "merge nested": "a: &a {x: 1}\nb: &b {<<: *a, y: 2}\nc: {<<: *b, z: 3}\n",
    "merge inline": "c:\n  <<: {<<: {x: 1, x: 2}, y: 1}\n  <<: [{p: 1, p: 2}, {q: 1}]\n",
    "merge keeps identity": "a: &a {x: [1]}\nb: {<<: *a}\nc: *a\n",
    "merge explicit duplicate": "a: &a {x: 1}\nb:\n  <<: *a\n  y: 1\n  y: 2\n",
    "merge scalar source": "a: &a 1\nb:\n  <<: *a\n",
    "merge sequence source": "b:\n  <<: [1, 2]\n",
    "merge non-mapping in list": "a: &a {x: 1}\nb:\n  <<: [*a, 3]\n",
    "merge null source": "b:\n  <<:\n",
    "quoted merge key": "a:\n  '<<': {x: 1}\n  \"<<\": 2\n",
    "merge tag as value": "a: <<\n",
    "recursive sequence": "a: &s [1, *s]\n",
    "recursive sequence in mapping": "a: &s [1, {b: *s}]\n",
    "recursive mapping": "a: &m {b: *m}\n",
    "recursive mapping as key": "a: &m {? *m : 1}\n",
    "recursive mapping two deep": "a: &m {b: {c: *m}}\n",
    "recursive mapping through sequence": "a: &m {b: [*m]}\n",
    "recursive mapping in sequence": "- &m {a: *m}\n",
    "shared anchors": "a: &x [1, 2]\nb: *x\nc: &y {k: *x}\nd: [*y, *y]\ne: &s text\nf: *s\n",
    "duplicate anchor": "a: &x 1\nb: &x 2\n",
    "duplicate collection anchor": "a: &x [1]\nb: &x {c: 1}\n",
    "undefined alias": "a: *nope\n",
    "alias before anchor": "- *x\n- &x 1\n",
    "two documents": "a: 1\n---\nb: 2\n",
    "two scalar documents": "--- 1\n--- 2\n",
    "second document unparsable": "a: 1\n...\n---\nb: [\n",
    "explicit empty document": "---\n",
    "document end only": "...\n",
    "empty": "",
    "comment only": "# nothing here\n",
    "scalar tags": (
        "a: !!str 12\nb: !!int '12'\nc: !!float 1\nd: !!bool yes\ne: !!null ''\n"
        "f: !!binary aGVsbG8=\ng: !!timestamp 2001-12-14\nh: !!str\ni: ! 12\nj: !!int 0x1F\n"
    ),
    "implicit scalars": (
        "a: [~, null, yes, No, on, 0o17, 017, 0x1f, 1_000, 1:30, -.inf, .NaN, 6.8e+3, 2001-12-14t21:59:43.10-05:00]\n"
    ),
    "set": "s: !!set {a, b, a}\n",
    "block set": "s: !!set\n  ? a\n  ? b\n",
    "set with merge": "a: &a {x: 1}\ns: !!set {<<: *a, y}\n",
    "omap": "o: !!omap [{a: 1}, {b: 2}, {a: 3}]\n",
    "omap two keys": "o: !!omap [{a: 1, b: 2}]\n",
    "omap scalar item": "o: !!omap [{a: 1}, 2]\n",
    "omap of mapping": "o: !!omap {a: 1}\n",
    "pairs": "p: !!pairs [{a: 1}, {a: 2}]\n",
    "explicit map and seq": "m: !!map {a: 1}\ns: !!seq [1, 2]\nn: !!map\n  k: !!seq\n    - v\n",
    "unknown scalar tag": "a: !foo bar\n",
    "unknown mapping tag": "a: !foo {b: 1}\n",
    "unknown sequence tag": "a: !foo [1]\n",
    "scalar tag on sequence": "a: !!str [a]\n",
    "sequence tag on mapping": "a: !!seq {b: 1}\n",
    "set tag on sequence": "a: !!set [a]\n",
    "sequence tag on scalar": "a: !!seq x\n",
    "set tag on scalar": "a: !!set x\n",
    "omap tag on scalar": "a: !!omap x\n",
    "pairs tag on scalar": "a: !!pairs x\n",
    "non-printable character": "a: b\x01\n",
    "value tag": "=: 1\n",
    "complex sequence key": "? [a, b]\n: 1\n",
    "complex mapping key": "x: 1\n? {a: 1}\n: 2\n",
    "flow sequence key": "[a]: 1\n",
    "aliased unhashable key": "a: &l [1]\n*l : 2\n",
    "hashable complex keys": "? !!binary aGk=\n: 1\n2001-12-14: d\n? !!float 1\n: f\n",
    "duplicate 1": "1: a\n1: b\n",
    "duplicate 1 and 1.0": "1: a\n1.0: b\n",
    "duplicate yes and true": "yes: a\ntrue: b\n",
    "duplicate 1 and true": "1: a\ntrue: b\n",
    "duplicate nan": ".nan: 1\n.NaN: 2\n",
    "duplicate aliased key": "&k a: 1\n*k : 2\n",
    "duplicate flow key": "{a: 1, a: 2}\n",
    "duplicate in sequence": "- {a: 1}\n- {b: 1, b: 2}\n",
}


@pytest.mark.parametrize("text", PARITY_INPUTS.values(), ids=PARITY_INPUTS.keys())
def test_loads_like_the_reference(yaml_backend, text):
    assert_loads_like_reference(text)


def test_descriptors_load_like_the_reference(yaml_backend):
    for text in descriptor_texts():
        assert_loads_like_reference(text)


def test_aliases_return_the_anchored_object(yaml_backend):
    doc = compose._load_yaml(PARITY_INPUTS["shared anchors"])
    assert doc["b"] is doc["a"] and doc["c"]["k"] is doc["a"]
    assert doc["d"][0] is doc["d"][1] is doc["c"]
    rec = compose._load_yaml(PARITY_INPUTS["recursive mapping through sequence"])
    assert rec["a"]["b"][0] is rec["a"]


# Plain scalars that the resolver reads as something other than a string.
LOOKALIKES = ["~", "null", "yes", "No", "on", "0o17", "0x1F", "1_000", "1:30", ".inf", "-.Inf",
              ".NaN", "6.8e+3", "2001-12-14", "2001-12-14 21:59:43.1", "<<", "=", "", "- a", "a: b"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.sampled_from(LOOKALIKES),
    st.binary(max_size=8),
    st.dates(),
    st.datetimes(),
)


def trees(depth: int):
    if depth == 0:
        return scalars
    children = trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(children, max_size=3),
        st.dictionaries(scalars, children, max_size=3),
    )


@pytest.mark.parametrize("backend", ["default", "python"])
def test_dumped_trees_load_like_the_reference(backend):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tree=trees(5), flow=st.sampled_from([False, True, None]), unicode=st.booleans())
    def check(tree, flow, unicode):
        text = yaml.dump(
            {"root": tree}, Dumper=yaml.SafeDumper, default_flow_style=flow, allow_unicode=unicode
        )
        assert_loads_like_reference(text)

    if backend == "python":
        with python_backend():
            check()
    else:
        check()


def nested(opener: str, depth: int) -> str:
    """A descriptor whose innermost node sits in ``depth`` collections, the top one included.

    ``[`` and ``{a: `` nest flow collections, which only the event path
    reads; ``a:`` nests block mappings, which the one-pass reader reads.
    """
    if opener == "a:":
        return "".join(" " * level + "a:\n" for level in range(depth - 1)) + " " * (depth - 1) + "a: x\n"
    closer = {"[": "]", "{a: ": "}"}[opener]
    return "a: " + opener * (depth - 1) + closer * (depth - 1) + "\n"


def under_frames(count: int, fn):
    """Call ``fn`` below ``count`` extra Python frames."""
    return fn() if count == 0 else under_frames(count - 1, fn)


@pytest.mark.parametrize("opener", ["[", "{a: ", "a:"])
# the last leaves too few frames for the one-pass reader's recursion, which
# then leaves the text to the event path
@pytest.mark.parametrize("frames", [0, 200, sys.getrecursionlimit() - 150])
def test_nesting_limit_depends_on_the_input_alone(yaml_backend, opener, frames):
    def round_trip():
        spec = compose.parse_compose(nested(opener, yaml_io._MAX_DEPTH))
        return spec, compose.parse_compose(compose.serialize_compose(spec))

    spec, again = under_frames(frames, round_trip)
    assert again.residue == spec.residue

    def too_deep():
        with pytest.raises(ComposeSyntaxError) as err:
            compose.parse_compose(nested(opener, yaml_io._MAX_DEPTH + 1))
        return err.value

    err = under_frames(frames, too_deep)
    assert str(err) == "nesting too deep" and (err.line, err.col) == (None, None)


@pytest.mark.parametrize("empty", ["{}", "[]"])
def test_an_empty_flow_collection_past_the_nesting_limit_is_too_deep(yaml_backend, tmp_path, capsys, empty):
    # the empty collection opens inside depth - 1 block mappings, the top one
    # included: as the 101st, the one-pass reader declines it and the event
    # path refuses it
    def nested(depth: int) -> str:
        return "".join(" " * level + "a:\n" for level in range(depth - 2)) + " " * (depth - 2) + f"a: {empty}\n"

    assert_same(yaml_io._read(nested(yaml_io._MAX_DEPTH)), reference_load(nested(yaml_io._MAX_DEPTH)))
    text = nested(yaml_io._MAX_DEPTH + 1)
    assert yaml_io._read(text) is None
    with pytest.raises(ComposeSyntaxError, match="^nesting too deep$"):
        yaml_io.load(text)
    path = tmp_path / "deep.yml"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", "-i", str(path)]) == 2
    assert capsys.readouterr().out == "verdict: Invalid\nerror: nesting too deep\n"


# A !!set where a mapping must be: as a merge value, as an item of a merge
# list and as an item of !!omap. PyYAML's constructor took the set's node
# for the mapping it is written as; dad refuses it, and names the set.
SET_REFUSALS = {
    "merge value": ("a:\n  <<: !!set {x}\n", "expected a mapping or list of mappings for merging", 2, 7),
    "merge list item": ("a:\n  <<: [!!set {x}]\n", "expected a mapping for merging", 2, 8),
    "omap item": ("o: !!omap [!!set {a}]\n", "expected a mapping of length 1", 1, 12),
}


@pytest.mark.parametrize("text, problem, line, col", SET_REFUSALS.values(), ids=SET_REFUSALS.keys())
def test_a_set_is_refused_as_a_set(yaml_backend, text, problem, line, col):
    with pytest.raises(ComposeSyntaxError) as err:
        compose._load_yaml(text)
    assert str(err.value) == f"{problem}, but found set (line {line}, col {col})"


# An item of !!omap or !!pairs loads as a (key, value) tuple. PyYAML merged
# both; dad refuses them as it refuses a !!set, since a merge source must
# load as a mapping, and names the pair.
PAIR_REFUSALS = {
    "omap": ("a:\n  <<: !!omap [{x: 1}]\n", 2, 7),
    "pairs": ("a:\n  <<: !!pairs [{x: 1}]\n", 2, 7),
    "omap through an alias": ("a: &o !!omap [{x: 1}]\nb:\n  <<: *o\n", 1, 4),
}


@pytest.mark.parametrize("text, line, col", PAIR_REFUSALS.values(), ids=PAIR_REFUSALS.keys())
def test_a_pair_list_merge_value_is_refused_as_pairs(yaml_backend, text, line, col):
    with pytest.raises(ComposeSyntaxError) as err:
        compose._load_yaml(text)
    assert str(err.value) == f"expected a mapping for merging, but found pair (line {line}, col {col})"


def test_parse_compose_is_linear_in_services():
    def best_of_3(text: str) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            compose.parse_compose(text)
            times.append(time.perf_counter() - start)
        return min(times)

    small = best_of_3(compose.serialize_compose(residue_heavy_spec(200)))
    large = best_of_3(compose.serialize_compose(residue_heavy_spec(4000)))
    # 20x the services: linear cost is ~20x
    assert large < 100 * small, f"200 services {small * 1e3:.1f} ms, 4000 services {large * 1e3:.1f} ms"


def test_plain_scalars_resolve_apart_from_quoted_ones(yaml_backend):
    expected = {"a": True, "b": "true", "c": 1, "d": "1", "e": None, "f": "~"}
    plain_first = "a: true\nb: 'true'\nc: 1\nd: \"1\"\ne: ~\nf: '~'\n"
    quoted_first = "b: 'true'\na: true\nd: \"1\"\nc: 1\nf: '~'\ne: ~\n"
    for text in (plain_first, quoted_first):
        doc = compose._load_yaml(text)
        assert doc == expected
        assert all(type(value) is type(expected[key]) for key, value in doc.items())


def test_plain_scalar_tags_are_cached_per_load(yaml_backend, monkeypatch):
    resolved = []
    resolve = yaml_io._resolve

    def counting(text):
        resolved.append(text)
        return resolve(text)

    monkeypatch.setattr(yaml_io, "_resolve", counting)
    text = "a: [x, x, 1, 1, 'x', 'x', ~, ~]\nx: 1\n"
    first = compose._load_yaml(text)
    calls = list(resolved)
    # a plain text resolves once per load; a quoted scalar is a string unresolved
    assert sorted(calls) == sorted(["a", "x", "1", "~"])
    resolved.clear()
    assert compose._load_yaml(text) == first
    assert resolved == calls  # the second load starts with an empty cache


def test_implicit_resolvers_are_pyyaml_s():
    def table(resolvers: dict) -> dict:
        return {
            first: [(tag, pattern.pattern, pattern.flags) for tag, pattern in entries]
            for first, entries in resolvers.items()
        }

    theirs = table(Resolver.yaml_implicit_resolvers)
    # the one gap: PyYAML's resolver for "!", "&" and "*", which only
    # documents that a plain scalar cannot start with those indicators
    gap = {first: theirs.pop(first) for first in "!&*"}
    assert gap == dict.fromkeys("!&*", [("tag:yaml.org,2002:yaml", r"^(?:!|&|\*)$", re.U)])
    assert table(yaml_io._IMPLICIT) == theirs
    assert all(yaml_io._scalar_value(first) is yaml_io._NOTHING for first in "!&*")


# Pieces of the int, float, bool, null and timestamp grammars and their
# near misses: 0b2, 08, 1_: and 2001-02-30 are among the texts they make.
SCALAR_PIECES = ["0", "1", "2", "5", "7", "8", "9", "_", "-", "+", ".", ":", "0b", "0x", "0o", "e", "E",
                 "e+", "e-", "a", "F", "inf", "Inf", "INF", "nan", "NaN", "NAN", ".inf", "-.Inf", ".NaN",
                 "yes", "No", "on", "OFF", "true", "null", "Null", "~", "<<", "=", "2001-02-30",
                 "2001-12-14", "T", "t", " ", "Z", "1:30"]
NEAR_SCALARS = st.one_of(
    st.sampled_from(LOOKALIKES[:-2]),
    st.lists(st.sampled_from(SCALAR_PIECES), min_size=1, max_size=6).map("".join),
    st.text(st.sampled_from("0123456789_+-.:bxeE"), min_size=1, max_size=8),
)


COPIED = ("null", "bool", "int", "float")  # dates dad builds with SafeConstructor itself


def _construct_outcome(construct, *args):
    try:
        value = construct(*args)
    except (ValueError, LookupError, OverflowError):  # what SafeConstructor's methods raise on text they refuse
        return "refused", None, None
    # repr: NaN equals NaN, and -0.0 is not 0.0; a NaN's sign shows only through copysign
    return type(value).__name__, repr(value), math.copysign(1.0, value) if type(value) is float else None


def _assert_loads_alike(text: str) -> None:
    try:
        reference_load(text)
    except ComposeSyntaxError:
        pass
    except (ValueError, LookupError, OverflowError):  # a constructor of the reference refused the text
        with pytest.raises(ComposeSyntaxError):
            compose._load_yaml(text)
        return
    assert_loads_like_reference(text)


@pytest.mark.parametrize("backend", ["default", "python"])
def test_plain_scalars_type_like_pyyaml(backend):
    resolver, constructor = Resolver(), SafeConstructor()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=NEAR_SCALARS)
    def check(text):
        tag = yaml_io._resolve(text)
        assert tag == resolver.resolve(yaml.ScalarNode, text, (True, False)), text
        # each tag dad keeps its own constructor of, implicit or explicit (!!int '...'), on any text
        for name in COPIED:
            own = f"tag:yaml.org,2002:{name}"
            theirs = SafeConstructor.yaml_constructors[own]
            node = yaml.ScalarNode(own, text)
            assert _construct_outcome(yaml_io._CONSTRUCTORS[own], text) == _construct_outcome(
                theirs, constructor, node
            ), (own, text)
            _assert_loads_alike(f"k: !!{name} '{text}'\n")
        _assert_loads_alike(f"k: {text}\n")
        _assert_loads_alike(f"{{k: {text}}}\n")

    if backend == "python":
        with python_backend():
            check()
    else:
        check()


# The dumper dad used before it turned documents into emitter events itself.
# It is the reference dump_yaml must match byte for byte.
def reference_dump(doc) -> str:
    return yaml.dump(
        doc,
        Dumper=yaml_io._pyyaml().Dumper,
        sort_keys=False,
        default_flow_style=False,
        allow_unicode=True,
        width=4096,
    )


@functools.cache
def dumped_documents() -> tuple:
    """Every document serialize_compose and emit_compose hand to dump_yaml.

    Their inputs are the corpus, 600 specgen descriptors and scale
    descriptors of seeds 1-3. The documents do not depend on the backend
    (``test_documents_and_output_bytes_match``), so both backends share them.
    """
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.yml"))]
    rng = random.Random(12)
    texts += [doc_to_yaml(gen_descriptor_doc(rng)) for _ in range(600)]
    for seed in (1, 2, 3):
        seeded = random.Random(seed)
        texts += [gen.scale_descriptor(seeded, n).text for n in (10, 60)]
    docs: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compose, "dump_yaml", lambda doc: docs.append(doc) or "")
        for text in texts:
            spec = compose.parse_compose(text)
            compose.serialize_compose(spec)
            try:
                emit_compose(compose.lower(spec))
            except DadError:  # cyclic.yml: the emitter refuses an invalid model
                pass
    assert len(docs) == 2 * len(texts) - 1
    return tuple(docs)


def test_dumps_like_the_reference(yaml_backend):
    for doc in dumped_documents():
        assert compose.dump_yaml(doc) == reference_dump(doc)


def _recursive_cases() -> dict:
    own_list: list = [1]
    own_list.append(own_list)
    own_map: dict = {"a": 1}
    own_map["self"] = own_map
    own_pairs: list = [("a", None)]
    own_pairs.append(("b", own_pairs))
    return {"recursive list": {"r": own_list}, "recursive map": {"r": own_map}, "recursive pairs": {"r": own_pairs}}


SHARED_MAP = {"driver": "local", "opts": {"o": "bind"}}
SHARED_LIST = ["a", 1, None]
DATE = datetime.date(2001, 12, 14)

DUMP_CASES = {
    "floats": {"a": [0.5, -1.0, 1e17, 1e-05, float("inf"), -float("inf"), float("nan"), 0.0]},
    "dates": {"d": datetime.date(2001, 12, 14), "t": datetime.datetime(2001, 12, 14, 21, 59, 43, 100000)},
    "binary": {"b": b"hello", "empty": b"", "lines": bytes(range(256))},
    "set": {"s": {"b", "a", 3, None, 1.5, DATE}},
    "pairs": {"p": [("a", 1), ("b", [1, 2]), ("a", {"k": None})], "empty": []},
    "pairs after a tuple": {"p": [("a", 1), ("b", 2, 3)], "q": [("a", 1), "x"]},
    "tuple": {"t": ("a", ("b", 1))},
    "shared dict and list": {"a": SHARED_MAP, "b": [SHARED_MAP, SHARED_LIST], "c": SHARED_LIST, "d": SHARED_MAP},
    "anchors numbered at the second visit": {"p": SHARED_LIST, "q": SHARED_MAP, "r": SHARED_MAP, "s": SHARED_LIST},
    "shared date": {"a": DATE, "b": [DATE], "s": {DATE}},
    "shared inside pairs": {"a": SHARED_MAP, "p": [("k", SHARED_MAP), ("l", SHARED_LIST)], "b": SHARED_LIST},
    "shared pair list": {"a": (pairs := [("k", "v")]), "b": pairs},
    "shared set": {"a": (members := {"x", "y"}), "b": members},
    "scalar keys": {1: "one", True: "yes", None: "nothing", 1.5: "f", DATE: "d", "": "empty"},
    "lookalike strings": {
        "values": ["true", "null", "~", "1", "0x1", "", "<<", "=", "yes", "1:30", ".nan", "2001-12-14", "- a", "a: b"],
        "true": "null",
        "~": "<<",
        "<<": 1,
    },
    "multi-line": {"a": "line one\nline two\n", "b": "trailing  \n\n", "c": "\ttab", "d": " lead"},
    "non-ASCII": {"ü": "naïve ☃", "emoji": "\U0001f600", "cjk": "漢字", "nbsp": "a\u00a0b"},
    "empty collections": {"m": {}, "l": [], "n": None, "nested": [[], {}, [[]]]},
    "empty mapping": {},
    "empty list": [],
    "top-level list": [1, "a", {"b": None}],
    "top-level scalar": "just text",
    **_recursive_cases(),
}


@pytest.mark.parametrize("doc", DUMP_CASES.values(), ids=DUMP_CASES.keys())
def test_dumps_residue_like_the_reference(yaml_backend, doc):
    assert compose.dump_yaml(doc) == reference_dump(doc)


def test_shared_objects_dump_as_anchor_and_alias(yaml_backend):
    text = compose.dump_yaml(DUMP_CASES["anchors numbered at the second visit"])
    assert text == "p: &id002\n- a\n- 1\n-\nq: &id001\n  driver: local\n  opts:\n    o: bind\nr: *id001\ns: *id002\n"
    loaded = compose._load_yaml(text)
    assert loaded["p"] is loaded["s"] and loaded["q"] is loaded["r"]


def test_dump_refuses_what_the_representer_refuses(yaml_backend):
    with pytest.raises(yaml.representer.RepresenterError):
        compose.dump_yaml({"a": object()})
    with pytest.raises(yaml.representer.RepresenterError):
        reference_dump({"a": object()})


@pytest.mark.parametrize("backend", ["default", "python"])
def test_dumped_trees_match_the_reference(backend):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tree=trees(5), shared=st.booleans())
    def check(tree, shared):
        # the same tree twice: its collections (and dates) come out as aliases
        doc = {"root": tree, "again": [tree]} if shared else {"root": tree}
        assert compose.dump_yaml(doc) == reference_dump(doc)

    if backend == "python":
        with python_backend():
            check()
    else:
        check()


def test_dump_yaml_is_linear_in_services():
    def best_of_3(doc: dict) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            compose.dump_yaml(doc)
            times.append(time.perf_counter() - start)
        return min(times)

    def doc(n_services: int) -> dict:
        text = gen.scale_descriptor(random.Random(1), n_services).text
        return spec_to_mapping(compose.parse_compose(text))

    small, large = best_of_3(doc(200)), best_of_3(doc(4000))
    # 20x the services: linear cost is ~20x
    assert large < 100 * small, f"200 services {small * 1e3:.1f} ms, 4000 services {large * 1e3:.1f} ms"


def test_shared_mapping_dumps_at_streaming_speed():
    # x-logging: &default-logging {...}, and the last service's logging: *default-logging
    logging = {"driver": "json-file", "options": {"max-size": "10m", "max-file": "3"}}
    text = gen.scale_descriptor(random.Random(1), 4000).text
    doc = {"x-logging": logging, **spec_to_mapping(compose.parse_compose(text))}
    last = list(doc["services"])[-1]
    body = doc["services"][last] = doc["services"][last] or {}

    def best_of_3() -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            compose.dump_yaml(doc)
            times.append(time.perf_counter() - start)
        return min(times)

    body["logging"] = {"driver": "json-file", "options": dict(logging["options"])}
    plain_s = best_of_3()
    body["logging"] = logging
    aliased_s = best_of_3()
    dumped = compose.dump_yaml(doc)
    assert dumped.startswith("x-logging: &id001\n") and dumped.count("logging: *id001\n") == 1
    assert aliased_s < 1.5 * plain_s, f"alias-free {plain_s * 1e3:.0f} ms, one alias {aliased_s * 1e3:.0f} ms"


# Probes of the emitters' choice between plain and single-quoted text.
WRITTEN_PLAIN = ["-x", "a#b", "a,b", "${A:-b}", "5432:5432", "?x", ":x", "it's", "ü ö"]
WRITTEN_QUOTED = ["-", "...x", "---", "a: b", "a #b", "{x}", "1:30", "", "x:", " a", "'a"]


def test_text_writer_quotes_like_the_emitters(yaml_backend):
    # the longest keys either emitter still writes as "key:"
    doc = {"plain": WRITTEN_PLAIN, "quoted": WRITTEN_QUOTED, "k" * 122: 1, "é" * 61: 2}
    text = yaml_io._text(doc)
    assert text == reference_dump(doc)
    lines = text.splitlines()
    assert lines[1:10] == [f"- {plain}" for plain in WRITTEN_PLAIN]
    assert lines[11:14] == ["- '-'", "- '...x'", "- '---'"] and lines[-3] == "- '''a'"


def test_ascii_check_agrees_with_the_wide_classes():
    # the text both read paths take, and the text _scalar writes as it is
    wide, lines = yaml_io._wide()
    for code in range(128):
        char = chr(code)
        read_ok = not char.encode().translate(None, yaml_io._ASCII_LINES)
        assert read_ok == (lines.fullmatch(char) is not None), code
        assert char.isprintable() == (wide.fullmatch(char) is not None), code
        if not read_ok:
            assert yaml_io._read(f"k: a{char}b\n") is None, code
        if not char.isprintable():
            assert yaml_io._scalar(f"a{char}b") is None, code


@pytest.mark.parametrize("char, printable", [("é", True), ("\u2028", False), ("\ufeff", False)])
def test_non_ascii_text_is_decided_by_the_wide_classes(char, printable):
    # each path compiles the classes on its own first non-ASCII text
    yaml_io._wide.cache_clear()
    read = yaml_io._read(f"k: a{char}b\n")
    assert (read == {"k": f"a{char}b"}) if printable else read is None
    assert yaml_io._wide.cache_info().misses == 1
    yaml_io._wide.cache_clear()
    written = yaml_io._scalar(f"a{char}b")
    assert written == (f"a{char}b" if printable else None)
    assert yaml_io._wide.cache_info().misses == 1


def test_read_declines_a_value_its_constructor_refuses(yaml_backend, tmp_path, capsys):
    # block style, but the plain scalar resolves to a date that does not
    # exist: the one-pass reader leaves it to the event path, which says where
    text = "services:\n  web:\n    image: nginx\n    labels:\n      built: 2001-02-30\n"
    assert yaml_io._read(text) is None
    path = tmp_path / "bad_date.yml"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", "-i", str(path)]) == 2
    assert capsys.readouterr().out == (
        "verdict: Invalid\n"
        "error: cannot read '2001-02-30' as tag:yaml.org,2002:timestamp (line 5, col 14)\n"
    )


def test_read_builds_dates_in_one_pass(yaml_backend):
    text = (
        "services:\n  web:\n    image: nginx\n    labels:\n      built: 2001-12-14\n"
        "x-released: 2024-01-15\nx-when: 2001-12-14 21:59:43.10 -5\n"
    )
    read = yaml_io._read(text)
    assert read is not None
    assert_same(read, reference_load(text))


# A sexagesimal float of 175 groups matches the float pattern, but summing it
# overflows a float, in dad's copy of the constructor as in SafeConstructor.
OVERFLOWING = "1" + ":0" * 174 + "."


def test_a_float_too_long_to_sum_is_a_syntax_error_and_dumps_quoted(yaml_backend):
    text = f"k: {OVERFLOWING}\n"
    assert yaml_io._read(text) is None
    with pytest.raises(ComposeSyntaxError) as raised:
        yaml_io.load(text)
    assert str(raised.value) == f"cannot read {OVERFLOWING!r} as tag:yaml.org,2002:float (line 1, col 4)"
    doc = {"k": OVERFLOWING}
    assert yaml_io.dump(doc) == reference_dump(doc)
    assert yaml_io.load(yaml_io.dump(doc)) == doc


# Floats the text writer writes as SafeRepresenter.represent_float does,
# among them the unquoted ``version: 3.8`` of many compose files.
WRITTEN_FLOATS = {
    "float": {"a": [1.5]},
    "version": {"version": 3.8},
    "special and exponent forms": DUMP_CASES["floats"],
    "extremes": {"a": [5e-324, -0.0, 1.7976931348623157e308, 123456789012345678.0, 1e16]},
}


@pytest.mark.parametrize("doc", WRITTEN_FLOATS.values(), ids=WRITTEN_FLOATS.keys())
def test_text_writer_writes_floats_like_the_representer(yaml_backend, doc):
    text = yaml_io._text(doc)
    assert text is not None and text == reference_dump(doc)


@pytest.mark.parametrize("backend", ["default", "python"])
def test_text_writer_writes_any_float_like_the_representer(backend):
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(value=st.floats())
    def check(value):
        doc = {"a": value}
        assert yaml_io._text(doc) == reference_dump(doc)

    if backend == "python":
        with python_backend():
            check()
    else:
        check()


def test_text_writer_leaves_a_document_past_the_indent_limit_to_yaml_dump(yaml_backend):
    # one level of mappings more than _text indents: its lines would start
    # past column _MAX_INDENT
    doc: dict = {"a": "x"}
    for _ in range(yaml_io._MAX_INDENT // 2 + 1):
        doc = {"a": doc}
    assert yaml_io._text(doc) is None
    assert yaml_io._text(doc["a"]) is not None
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))  # yaml.dump's representer recurses per level
    try:
        assert yaml_io.dump(doc) == reference_dump(doc)
    finally:
        sys.setrecursionlimit(limit)


def test_a_document_too_deep_for_yaml_dump_is_an_emit_error(yaml_backend):
    # yaml.dump's representer recurses per level; a load refuses this depth,
    # but a caller may build it
    doc: dict = {"a": "x"}
    for _ in range(600):
        doc = {"a": doc}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    try:
        with pytest.raises(EmitError, match="nesting too deep"):
            compose.dump_yaml(doc)
    finally:
        sys.setrecursionlimit(limit)


# Documents the text writer leaves to yaml.dump, each for one reason.
FALLBACKS = {
    "empty key": {"": 1},
    "key of 123 characters": {"k" * 123: 1},
    "key of 123 UTF-8 bytes": {"é" * 61 + "k": 1},
    "line break": {"a": "x\ny"},
    "line separator": {"a": "a\u2028b"},
    "next line": {"a": "a\x85b"},
    "beyond the basic plane": {"a": "\U0001f600"},
    "tab": {"a": "\tx"},
    "folded near the width": {"a": "x " * 1500},
    "tuple": {"a": ("b",)},
    "int key": {1: "a"},
    "str subclass": {"a": type("Name", (str,), {})("b")},
    "holds itself": _recursive_cases()["recursive map"],
}


@pytest.mark.parametrize("doc", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_text_writer_leaves_the_rest_to_yaml_dump(yaml_backend, doc):
    assert yaml_io._text(doc) is None
    if doc is FALLBACKS["str subclass"]:  # the representer refuses it
        with pytest.raises(yaml.representer.RepresenterError):
            compose.dump_yaml(doc)
    else:
        assert compose.dump_yaml(doc) == reference_dump(doc)


# Letters, digits, space, a few lookalike starters and every YAML indicator:
# the characters that decide between plain and single-quoted text.
ADVERSARIAL = "ab09 .~=<" + "-?:,[]{}#&*!|>'\"%@`"
# Texts at the edge of that decision, most of them written plain by one rule
# and quoted by the next.
EDGE_TEXTS = ["...x", "---", "-", "-x", "?", "?x", ":x", "x:", "a: b", "a #b", "a#b", "a,b",
              "${A:-b}", "5432:5432", "{x}", "0x1F", "1:30", "1_000", ".inf", "y", "on", "<<", "=",
              "", " a", "a ", "it's", "ü ö", "漢字"]

edge_strings = st.one_of(st.text(st.sampled_from(ADVERSARIAL), max_size=8), st.sampled_from(EDGE_TEXTS))
edge_keys = st.one_of(st.text(st.sampled_from(ADVERSARIAL), min_size=1, max_size=8), st.sampled_from(EDGE_TEXTS))
edge_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), edge_strings)


def edge_trees(depth: int):
    if depth == 0:
        return edge_scalars
    children = edge_trees(depth - 1)
    return st.one_of(
        edge_scalars,
        st.lists(children, max_size=3),
        st.dictionaries(edge_keys, children, max_size=3),
    )


def collections_in(tree) -> list:
    """Every dict and list in ``tree``, the tree included, in document order."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            found.append(node)
            stack.extend(reversed(list(node.values() if isinstance(node, dict) else node)))
    return found


@st.composite
def edge_documents(draw):
    """A tree of the text writer's types; some share sub-trees or carry a long key."""
    tree = draw(edge_trees(4))
    doc = {"root": tree}
    shared = collections_in(tree)
    if shared and draw(st.booleans()):
        doc["again"] = draw(st.lists(st.sampled_from(shared), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        length = draw(st.integers(120, 130))
        doc[draw(st.text(st.sampled_from(ADVERSARIAL), min_size=length, max_size=length))] = tree
    return doc


@pytest.mark.parametrize("backend", ["default", "python"])
def test_text_writer_matches_the_reference(backend):
    written = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=edge_documents())
    def check(doc):
        assert compose.dump_yaml(doc) == reference_dump(doc)
        written.append(yaml_io._text(doc) is not None)

    if backend == "python":
        with python_backend():
            check()
    else:
        check()
    # the property is about the writer: most documents must not reach yaml.dump
    assert sum(written) > 0.6 * len(written), f"{sum(written)} of {len(written)} written as text"


def test_benchmark_documents_take_the_text_path():
    docs: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compose, "dump_yaml", lambda doc: docs.append(doc) or "")
        # scale_check's largest descriptor
        spec = compose.parse_compose(gen.scale_descriptor(random.Random(1), 300).text)
        compose.serialize_compose(spec)
        emit_compose(compose.lower(spec))
    assert len(docs) == 2
    for doc in (*dumped_documents(), *docs):
        assert yaml_io._text(doc) is not None


def test_benchmark_and_corpus_texts_take_the_one_pass_reader():
    # the texts scale_check and corpus_cli load; a silent decline would send
    # them back to the event path
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.yml"))]
    for seed in (1, 2, 3):
        seeded = random.Random(seed)
        for n in (10, 30, 100, 300):
            text = gen.scale_descriptor(seeded, n).text
            texts += [text, compose.serialize_compose(compose.parse_compose(text))]
    rng = random.Random(13)
    for _ in range(200):
        texts.append(compose.serialize_compose(compose.parse_compose(doc_to_yaml(gen_descriptor_doc(rng)))))
    for text in texts:
        read = yaml_io._read(text)
        assert read is not None, text
        assert_same(read, reference_load(text))


# Pieces of text at the edge of the plain-scalar rule the reader and the writer
# share: every indicator, the characters neither path takes, and whole tokens
# that resolve to another tag or change a line's shape.
ROUND_TRIP_PIECES = [*"#,[]{}&*!|>'\"%@`-?: ", "\t", "\\", "\x85", "\xa0", "é", "a", "1", ".",
                     "---", "...", ": ", " #", "true", "null", "~", "1e3", "0x1f", "2001-12-14", "<<", "="]


@pytest.mark.parametrize("backend", ["default", "python"])
def test_one_pass_reader_reads_what_the_text_writer_writes(backend):
    written = []

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(s=st.lists(st.sampled_from(ROUND_TRIP_PIECES), max_size=8).map("".join))
    def check(s):
        doc = {"k": s, "l": [s]}
        if s and len(s.encode()) < yaml_io._LONG_KEY:
            doc[s] = 1
        text = yaml_io._text(doc)
        written.append(text is not None)
        if text is not None:
            read = yaml_io._read(text)
            assert read is not None, text
            assert_same(read, doc)
            assert_same(read, yaml.safe_load(text))

    if backend == "python":
        with python_backend():
            check()
    else:
        check()
    assert sum(written) > 0.6 * len(written), f"{sum(written)} of {len(written)} written as text"


# Line edits at the edges of what the one-pass reader reads. Any other edit
# inserts its text into the line. "long key" and "deep" add a top-level key:
# one of either side of the simple-key limit, and one whose value nests lists
# or mappings to either side of _MAX_DEPTH.
LINE_EDITS = ("indent +1", "indent -1", "trailing comment", "join", "split", "double quotes", "escape",
              "stray quote", "repeat", "long key", "deep", "---", "--- ", "\t", "\r", "\u2028", "\ufeff",
              "'", '"', ": ", "- ")


def edit_line(text: str, kind: str, index: int, at: int) -> str:
    lines = text.split("\n")
    i = index % len(lines)
    line = lines[i]
    indent = line[: len(line) - len(line.lstrip(" "))]
    cut = at % (len(line) + 1)
    if kind == "indent +1":
        lines[i] = " " + line
    elif kind == "indent -1":
        lines[i] = line[1:] if indent else line
    elif kind == "trailing comment":
        lines[i] = line + " #x"
    elif kind == "join":
        if i + 1 < len(lines):
            lines[i : i + 2] = [line + " " + lines[i + 1].lstrip(" ")]
    elif kind == "split":
        lines[i : i + 1] = [line[:cut], indent + "  " + line[cut:]]
    elif kind == "double quotes":
        lines[i] = line.replace("'", '"')
    elif kind == "escape":  # double quotes around an escape sequence
        lines[i] = line.replace("'", '"').replace('"', '"\\t', 1)
    elif kind == "stray quote":  # a quote just inside the first one
        quote = line.find("'") + 1
        lines[i] = line[: quote + cut % 2] + "'" + line[quote + cut % 2 :]
    elif kind == "repeat":  # a key line repeats its key
        lines.insert(i, line)
    elif kind == "long key":
        lines.insert(0, "k" * (yaml_io._SIMPLE_KEY - 1 + at % 3) + ": x")
    elif kind == "deep":
        depth = yaml_io._MAX_DEPTH - 2 + at % 3
        if at % 2:
            lines.insert(0, "deep:\n" + "- " * depth + "x")
        else:
            lines.insert(0, "deep:\n" + "\n".join(" " * level + "a:" for level in range(1, depth + 1)) + " x")
    elif kind == "---":
        lines.insert(i, "---")
    elif kind == "--- ":
        lines[i] = "--- " + line
    else:
        lines[i] = line[:cut] + kind + line[cut:]
    return "\n".join(lines)


@pytest.mark.parametrize("backend", ["default", "python"])
def test_one_pass_reader_reads_like_the_event_path(backend):
    read_plain = []

    def check_text(text: str) -> bool:
        read = yaml_io._read(text)
        try:
            expected = reference_load(text)
            yaml_io._load_events(text)  # unlike the reference, it refuses nesting past _MAX_DEPTH
        except ComposeSyntaxError:
            assert read is None, text
            return False
        if read is not None:
            assert_same(read, expected)
        return read is not None

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        doc=edge_documents(),
        third=st.integers(0, 2),
        places=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), min_size=len(LINE_EDITS), max_size=len(LINE_EDITS)),
        edits=st.lists(st.tuples(st.sampled_from(LINE_EDITS), st.integers(0, 999), st.integers(0, 999)), max_size=3),
    )
    def check(doc, third, places, edits):
        text = reference_dump(doc)
        read_plain.append(check_text(text))
        for kind, (index, at) in list(zip(LINE_EDITS, places))[third::3]:  # a third of the edits alone
            check_text(edit_line(text, kind, index, at))
        for kind, index, at in edits:  # and a few together
            text = edit_line(text, kind, index, at)
        check_text(text)

    if backend == "python":
        with python_backend():
            check()
    else:
        check()
    # the property is about the reader: most dumped documents must not reach the event path
    assert sum(read_plain) > 0.6 * len(read_plain), f"{sum(read_plain)} of {len(read_plain)} read in one pass"


def _outcome(load, text: str):
    try:
        return "value", load(text)
    except ComposeSyntaxError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "k: 'a'b'\n",
        "'abc: 1\n",
        "\n".join(" " * level + "a:" for level in range(101)) + " x\n",
        "\n".join(" " * level + "a:" for level in range(99)) + "\n" + " " * 99 + "- - x\n",
        "  a: 1\nb: 2\n",
        "a: 1\nb\n",
        "a: 1\na: 2\n",
        "a:\n    b: 1\n  c: 2\n",
        "a:\n- x\n  - y\n",  # loads as {'a': ['x - y']}
        "- a\nb: 1\n",
    ],
    ids=[
        "quote_inside_quotes",
        "unclosed_quoted_key",
        "101_mappings_deep",
        "99_mappings_then_a_nested_list",
        "dedent_past_the_root",
        "scalar_where_a_key_belongs",
        "repeated_key",
        "indent_no_collection_has",
        "plain_scalar_on_a_deeper_line",
        "key_at_a_list_column",
    ],
)
def test_one_pass_reader_declines_to_the_event_path(yaml_backend, text):
    assert yaml_io._read(text) is None
    assert _outcome(yaml_io.load, text) == _outcome(yaml_io._load_events, text)


def test_writer_declines_a_long_spaced_text(yaml_backend):
    doc = {"k": "a " * 1500}
    assert yaml_io._text(doc) is None
    assert yaml_io.dump(doc) == reference_dump(doc)


def test_a_service_entry_leaves_equality_with_other_types_to_them():
    assert ServiceEntry().__eq__(1) is NotImplemented
