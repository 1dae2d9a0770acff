"""The libyaml and pure-Python YAML backends of ``dad.compose`` agree.

``backends.python_backend`` reloads the module as if PyYAML had no libyaml,
so each test can compare the two. Only the wording of syntax errors may
differ between backends. On each backend, loading matches PyYAML's composer
and constructor, and dumping matches ``yaml.dump`` with dad's dumper; both
references are kept below.
"""

import datetime
import functools
import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dad import compose, yaml_io
from dad.compose import ComposeSpec, MountRef, ServiceEntry, spec_to_mapping
from dad.dac_ingest import emit_compose
from dad.errors import ComposeSyntaxError, DadError
from dad.model import BuildRef

from backends import on_both_backends, python_backend
from specgen import doc_to_yaml, gen_descriptor_doc

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _load_gen():
    """The benchmark's seeded descriptor generator, ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gen = _load_gen()


def test_backend_follows_libyaml_availability():
    loader, dumper = yaml_io._UniqueKeyLoader, yaml_io._ComposeDumper
    if yaml.__with_libyaml__:
        from yaml._yaml import CParser

        assert issubclass(loader, CParser)
        assert issubclass(dumper, yaml.CSafeDumper)
    with python_backend():
        assert issubclass(yaml_io._UniqueKeyLoader, yaml.SafeLoader)
        assert issubclass(yaml_io._ComposeDumper, yaml.SafeDumper)
    assert yaml_io._UniqueKeyLoader is loader and yaml_io._ComposeDumper is dumper


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
    from yaml.constructor import SafeConstructor
    from yaml.resolver import Resolver

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
    """A descriptor whose innermost node sits in ``depth`` collections, the top one included."""
    closer = {"[": "]", "{a: ": "}"}[opener]
    return "a: " + opener * (depth - 1) + closer * (depth - 1) + "\n"


def under_frames(count: int, fn):
    """Call ``fn`` below ``count`` extra Python frames."""
    return fn() if count == 0 else under_frames(count - 1, fn)


@pytest.mark.parametrize("opener", ["[", "{a: "])
@pytest.mark.parametrize("frames", [0, 200])
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
    resolve = yaml_io._UniqueKeyLoader.resolve

    def counting(self, kind, value, implicit):
        resolved.append((value, implicit[0]))
        return resolve(self, kind, value, implicit)

    monkeypatch.setattr(yaml_io._UniqueKeyLoader, "resolve", counting)
    text = "a: [x, x, 1, 1, 'x', 'x', ~, ~]\nx: 1\n"
    first = compose._load_yaml(text)
    calls = list(resolved)
    # a plain text resolves once per load; a quoted scalar resolves each time
    assert sorted(calls) == sorted([("x", False), ("x", False), ("a", True), ("x", True), ("1", True), ("~", True)])
    resolved.clear()
    assert compose._load_yaml(text) == first
    assert resolved == calls  # the second load starts with an empty cache


# The dumper dad used before it turned documents into emitter events itself.
# It is the reference dump_yaml must match byte for byte.
def reference_dump(doc) -> str:
    return yaml.dump(
        doc,
        Dumper=yaml_io._ComposeDumper,
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
