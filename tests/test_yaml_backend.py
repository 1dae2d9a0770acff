"""The libyaml and pure-Python YAML backends of ``dad.compose`` agree.

``dad.compose`` parses and dumps through libyaml when PyYAML was built with
it. ``python_backend`` reloads the module as if PyYAML had no libyaml and
restores the original module afterwards, so each test can compare the two.
Only the wording of syntax errors may differ between backends.
"""

import contextlib
import importlib
import random
import time
from pathlib import Path

import pytest
import yaml

from dad import compose
from dad.compose import ComposeSpec, MountRef, ServiceEntry, spec_to_mapping
from dad.dac_ingest import emit_compose
from dad.errors import ComposeSyntaxError, DadError
from dad.model import BuildRef

from specgen import doc_to_yaml, gen_descriptor_doc

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@contextlib.contextmanager
def python_backend():
    """Reload dad.compose with libyaml switched off; restore it on exit."""
    saved = dict(vars(compose))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(yaml, "__with_libyaml__", False)
            importlib.reload(compose)
            yield
    finally:
        vars(compose).clear()
        vars(compose).update(saved)


def on_both_backends(fn):
    native = fn()
    with python_backend():
        pure = fn()
    return native, pure


def test_backend_follows_libyaml_availability():
    loader, dumper = compose._UniqueKeyLoader, compose._ComposeDumper
    if yaml.__with_libyaml__:
        from yaml._yaml import CParser

        assert issubclass(loader, CParser)
        assert issubclass(dumper, yaml.CSafeDumper)
    with python_backend():
        assert issubclass(compose._UniqueKeyLoader, yaml.SafeLoader)
        assert issubclass(compose._ComposeDumper, yaml.SafeDumper)
    assert compose._UniqueKeyLoader is loader and compose._ComposeDumper is dumper


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
