"""Descriptor ingestion tests: parsing, the retained/residue split, validation,
lowering to the graph model, and serialization back to text."""

import os
import random
import subprocess
import sys
import textwrap

import pytest
import yaml

from dad.compose import (
    MountRef,
    ServiceEntry,
    issues_ok,
    lower,
    parse_compose,
    serialize_compose,
    spec_to_mapping,
    validate,
)
from dad.consistency import Verdict, round_trip_check
from dad.errors import ComposeSyntaxError, LoweringError, SchemaError
from dad.model import BuildRef, EdgeKind

from specgen import doc_to_yaml, gen_descriptor_doc

WEB_STACK = textwrap.dedent(
    """\
    version: "3.8"
    services:
      web:
        image: nginx:1.25
        ports:
          - "80:80"
        environment:
          DEBUG: "1"
        depends_on:
          - api
      api:
        image: python:3.11
        volumes:
          - data:/var/lib/data
    volumes:
      data:
    """
)


def deep_merge(left, right):
    """Structural union of two document trees; None acts as the identity."""
    if isinstance(left, dict) and isinstance(right, dict):
        merged = dict(left)
        for key, value in right.items():
            merged[key] = deep_merge(merged[key], value) if key in merged else value
        return merged
    if left is None:
        return right
    if right is None:
        return left
    return right


class TestParse:
    def test_retained_fields_extracted(self):
        spec = parse_compose(WEB_STACK)
        assert list(spec.services) == ["web", "api"]
        assert spec.services["web"].image == "nginx:1.25"
        assert spec.services["web"].depends_on == ["api"]
        assert spec.services["api"].volumes == [MountRef("data", "/var/lib/data")]
        assert spec.volumes == ["data"]

    def test_unknown_keys_become_residue(self):
        spec = parse_compose(WEB_STACK)
        assert spec.residue[("version",)] == "3.8"
        assert spec.residue[("services", "web", "ports")] == ["80:80"]
        assert spec.residue[("services", "web", "environment")] == {"DEBUG": "1"}
        assert "services.web.ports" in spec.residue_paths()

    def test_partition_is_disjoint_and_jointly_faithful(self):
        spec = parse_compose(WEB_STACK)
        retained_doc = spec_to_mapping(spec, retained=True, residue=False)
        residue_doc = spec_to_mapping(spec, retained=False, residue=True)
        assert "ports" not in retained_doc["services"]["web"]
        assert "image" not in residue_doc.get("services", {}).get("web", {})
        merged = deep_merge(retained_doc, residue_doc)
        assert merged == yaml.safe_load(WEB_STACK)

    def test_partition_on_generated_corpus(self):
        rng = random.Random(20240817)
        for _ in range(40):
            doc = gen_descriptor_doc(rng)
            spec = parse_compose(doc_to_yaml(doc))
            retained_doc = spec_to_mapping(spec, retained=True, residue=False)
            residue_doc = spec_to_mapping(spec, retained=False, residue=True)
            assert deep_merge(retained_doc, residue_doc) == doc

    def test_empty_document(self):
        spec = parse_compose("")
        assert spec.services == {} and spec.volumes == [] and spec.networks == []
        assert spec.residue == {}

    def test_build_short_and_long_forms(self):
        spec = parse_compose(
            "services:\n"
            "  a:\n"
            "    build: ./a\n"
            "  b:\n"
            "    build:\n"
            "      context: ./b\n"
            "      dockerfile: Dockerfile.dev\n"
            "      args:\n"
            "        FLAG: '1'\n"
        )
        assert spec.services["a"].build == BuildRef("./a")
        assert spec.services["b"].build == BuildRef("./b", "Dockerfile.dev")
        assert spec.residue[("services", "b", "build", "args")] == {"FLAG": "1"}

    def test_link_alias_split_from_name(self):
        spec = parse_compose(
            "services:\n  a:\n    image: x\n    links:\n      - b:backend\n      - c\n"
        )
        assert spec.services["a"].links == ["b", "c"]
        assert spec.residue[("services", "a", "links", 0)] == "backend"

    def test_depends_on_map_form_keeps_conditions_as_residue(self):
        spec = parse_compose(
            "services:\n"
            "  a:\n"
            "    image: x\n"
            "    depends_on:\n"
            "      b:\n"
            "        condition: service_healthy\n"
            "      c:\n"
        )
        assert spec.services["a"].depends_on == ["b", "c"]
        assert spec.residue[("services", "a", "depends_on", "b")] == {
            "condition": "service_healthy"
        }

    def test_bind_mounts_and_modes_are_residue(self):
        spec = parse_compose(
            "services:\n"
            "  db:\n"
            "    image: mysql:8\n"
            "    volumes:\n"
            "      - dbdata:/var/lib/mysql:ro\n"
            "      - ./conf:/etc/mysql/conf.d\n"
            "      - /anon\n"
            "      - type: volume\n"
            "        source: dbdata\n"
            "        target: /backup\n"
            "        read_only: true\n"
            "      - type: bind\n"
            "        source: ./logs\n"
            "        target: /logs\n"
        )
        db = spec.services["db"]
        assert db.volumes == [MountRef("dbdata", "/var/lib/mysql"), MountRef("dbdata", "/backup")]
        res = spec.residue
        assert res[("services", "db", "volumes", "dbdata:/var/lib/mysql", "mode")] == "ro"
        assert res[("services", "db", "volumes", "dbdata:/backup", "read_only")] is True
        assert res[("services", "db", "volumes")] == [
            "./conf:/etc/mysql/conf.d",
            "/anon",
            {"type": "bind", "source": "./logs", "target": "/logs"},
        ]

    def test_service_network_bodies_are_residue(self):
        spec = parse_compose(
            "services:\n"
            "  a:\n"
            "    image: x\n"
            "    networks:\n"
            "      front:\n"
            "        aliases: [a.local]\n"
            "      back:\n"
            "networks:\n"
            "  front:\n"
            "  back:\n"
        )
        assert spec.services["a"].networks == ["front", "back"]
        assert spec.residue[("services", "a", "networks", "front")] == {"aliases": ["a.local"]}

    def test_top_level_volume_options_are_residue(self):
        spec = parse_compose("services: {}\nvolumes:\n  data:\n    driver: local\n")
        assert spec.volumes == ["data"]
        assert spec.residue[("volumes", "data", "driver")] == "local"


class TestParseErrors:
    def test_malformed_yaml_reports_position(self):
        with pytest.raises(ComposeSyntaxError) as err:
            parse_compose("services:\n  web: [unterminated\n")
        assert err.value.line is not None and err.value.col is not None

    def test_duplicate_service_key_rejected(self):
        text = "services:\n  web:\n    image: a\n  web:\n    image: b\n"
        with pytest.raises(ComposeSyntaxError, match="duplicate"):
            parse_compose(text)
        try:
            parse_compose(text)
        except ComposeSyntaxError as exc:
            assert exc.line == 4

    def test_top_level_must_be_mapping(self):
        with pytest.raises(SchemaError):
            parse_compose("- a\n- b\n")

    @pytest.mark.parametrize(
        "snippet,path_fragment",
        [
            ("services: [a]", "services"),
            ("services:\n  web:\n    image: [x]\n", "services.web.image"),
            ("services:\n  web:\n    depends_on: api\n", "services.web.depends_on"),
            ("services:\n  web:\n    links: api\n", "services.web.links"),
            ("services:\n  web:\n    volumes: data\n", "services.web.volumes"),
            ("services:\n  web:\n    build: 3\n", "services.web.build"),
            ("services:\n  web:\n    build:\n      dockerfile: D\n", "services.web.build"),
            ("services:\n  1:\n    image: x\n", "services key"),
        ],
    )
    def test_wrong_shapes_raise_schema_errors(self, snippet, path_fragment):
        with pytest.raises(SchemaError) as err:
            parse_compose(snippet)
        assert path_fragment in str(err.value)


class TestValidate:
    def test_clean_spec_has_no_issues(self):
        assert validate(parse_compose(WEB_STACK), strict=True) == []

    def test_dangling_reference_severity_follows_mode(self):
        spec = parse_compose("services:\n  a:\n    image: x\n    depends_on: [ghost]\n")
        strict = validate(spec, strict=True)
        lenient = validate(spec, strict=False)
        assert [i.code for i in strict] == ["DanglingReference"]
        assert strict[0].severity == "error" and lenient[0].severity == "warning"
        assert "ghost" in strict[0].path
        assert not issues_ok(strict) and issues_ok(lenient)

    def test_conflicting_and_missing_sources(self):
        spec = parse_compose(
            "services:\n  a:\n    image: x\n    build: ./a\n  b: {}\n"
        )
        codes = {i.code for i in validate(spec, strict=True)}
        assert codes == {"ConflictingSource", "MissingSource"}

    @pytest.mark.parametrize(
        "snippet,ref",
        [
            ("services:\n  a:\n    image: x\n    links: [ghost]\n", "ghost"),
            ("services:\n  a:\n    image: x\n    volumes: [gv:/d]\n", "gv"),
            ("services:\n  a:\n    image: x\n    networks: [gn]\n", "gn"),
        ],
    )
    def test_each_reference_family_is_checked(self, snippet, ref):
        issues = validate(parse_compose(snippet), strict=True)
        assert len(issues) == 1 and issues[0].code == "DanglingReference"
        assert ref in issues[0].path


class TestLower:
    def test_node_and_edge_counts_match_retained_entries(self):
        model = lower(parse_compose(WEB_STACK))
        assert [s.name for s in model.services] == ["web", "api"]
        assert [v.name for v in model.volumes] == ["data"]
        kinds = [e.kind for e in model.edges]
        assert kinds == [EdgeKind.DEPENDENCY, EdgeKind.MOUNT]
        model.validate()

    def test_residue_never_reaches_the_model(self):
        bare = "services:\n  web:\n    image: nginx:1.25\n"
        noisy = bare + "    ports: ['80:80']\n    restart: always\n"
        assert lower(parse_compose(bare)) == lower(parse_compose(noisy))

    def test_edges_are_grouped_by_kind(self):
        spec = parse_compose(
            "services:\n"
            "  a:\n"
            "    image: x\n"
            "    networks: [net]\n"
            "    volumes: [vol:/d]\n"
            "    links: [b]\n"
            "    depends_on: [b]\n"
            "  b:\n"
            "    image: y\n"
            "    depends_on: [a]\n"
            "volumes:\n  vol:\n"
            "networks:\n  net:\n"
        )
        kinds = [e.kind for e in lower(spec).edges]
        assert kinds == [
            EdgeKind.DEPENDENCY,
            EdgeKind.DEPENDENCY,
            EdgeKind.LINK,
            EdgeKind.MOUNT,
            EdgeKind.ATTACHMENT,
        ]

    def test_phantom_nodes_for_dangling_references(self):
        spec = parse_compose(
            "services:\n  a:\n    image: x\n    depends_on: [ghost]\n    volumes: [gv:/d]\n"
        )
        model = lower(spec)
        assert model.phantom_names == ("ghost", "gv")
        ghost = next(s for s in model.services if s.name == "ghost")
        assert ghost.phantom and ghost.image is None
        assert len(model.edges) == 2
        model.validate()

    def test_strict_lowering_rejects_dangling_references(self):
        spec = parse_compose("services:\n  a:\n    image: x\n    depends_on: [ghost]\n")
        with pytest.raises(LoweringError, match="ghost"):
            lower(spec, strict=True)

    def test_image_wins_over_build_in_lenient_mode(self):
        spec = parse_compose("services:\n  a:\n    image: x\n    build: ./a\n")
        node = lower(spec).services[0]
        assert node.image == "x" and node.build is None

    def test_title_from_name_key_then_fallback(self):
        assert lower(parse_compose("name: billing stack\nservices: {}\n")).title == "billing stack"
        assert lower(parse_compose("services: {}\n")).title == "system"
        assert lower(parse_compose("services: {}\n"), fallback_title="alt").title == "alt"


class TestMergeKeys:
    # https://yaml.org/type/merge.html: the mapping's own keys override merged ones.
    BASE = "x-base: &base\n  image: nginx:1.25\n  restart: always\n"

    def test_merged_service_lowers_with_merged_image(self):
        text = self.BASE + "services:\n  web:\n    <<: *base\n    ports: ['80:80']\n"
        model = lower(parse_compose(text))
        assert model.services[0].image == "nginx:1.25"
        assert round_trip_check(text).verdict is Verdict.CONSISTENT

    def test_explicit_key_beats_merged_one(self):
        spec = parse_compose(self.BASE + "services:\n  web:\n    <<: *base\n    image: httpd:2\n")
        assert spec.services["web"].image == "httpd:2"
        assert spec.residue[("services", "web", "restart")] == "always"

    def test_repeated_explicit_key_still_rejected(self):
        text = self.BASE + "services:\n  web:\n    <<: *base\n    image: a\n    image: b\n"
        with pytest.raises(ComposeSyntaxError, match="duplicate mapping key 'image'") as err:
            parse_compose(text)
        assert (err.value.line, err.value.col) == (8, 5)


class TestSerialize:
    def test_reparse_equivalence_on_gnarly_descriptor(self):
        text = textwrap.dedent(
            """\
            name: gnarly
            services:
              db:
                image: mysql:8
                volumes:
                  - dbdata:/var/lib/mysql:ro
                  - ./conf:/etc/mysql/conf.d
                  - type: volume
                    source: dbdata
                    target: /backup
                    read_only: true
              app:
                build:
                  context: ./app
                  dockerfile: Dockerfile.prod
                  args:
                    VERSION: "2"
                links:
                  - db:database
                depends_on:
                  db:
                    condition: service_healthy
                networks:
                  front:
                    aliases: [app.local]
                  back:
            volumes:
              dbdata:
                driver: local
            networks:
              front:
              back:
                internal: true
            """
        )
        spec = parse_compose(text)
        again = parse_compose(serialize_compose(spec))
        assert again == spec

    def test_reparse_equivalence_on_generated_corpus(self):
        rng = random.Random(7)
        for _ in range(40):
            spec = parse_compose(doc_to_yaml(gen_descriptor_doc(rng)))
            assert parse_compose(serialize_compose(spec)) == spec

    def test_empty_mount_target_stays_retained(self):
        spec = parse_compose(
            "services:\n  app:\n    image: nginx\n    volumes:\n"
            "      - {type: volume, source: data, target: ''}\n"
            "      - {type: volume, source: logs, target: '', read_only: true}\n"
            "volumes:\n  data:\n  logs:\n"
        )
        assert spec.services["app"].volumes == [MountRef("data", ""), MountRef("logs", "")]
        assert parse_compose(serialize_compose(spec)) == spec

    def test_mode_short_form_needs_a_target(self):
        spec = parse_compose("services:\n  app:\n    image: a\n    volumes: [data:/srv:ro]\n")
        assert serialize_compose(spec).count("data:/srv:ro") == 1
        spec.services["app"].volumes = [MountRef("data", "")]
        spec.residue = {("services", "app", "volumes", "data:", "mode"): "ro"}
        assert parse_compose(serialize_compose(spec)) == spec

    @pytest.mark.parametrize("tag", ["!!omap", "!!pairs"])
    def test_ordered_pairs_residue_survives(self, yaml_backend, tag):
        spec = parse_compose(
            f"x-order: {tag} [{{b: 1}}, {{a: [1, 2]}}, {{c: }}]\n"
            f"services:\n  app:\n    image: a\n    labels: {tag} [{{k: v}}]\n"
        )
        assert spec.residue[("x-order",)] == [("b", 1), ("a", [1, 2]), ("c", None)]
        assert spec.residue[("services", "app", "labels")] == [("k", "v")]
        assert parse_compose(serialize_compose(spec)).residue == spec.residue

    def test_set_residue_bytes_do_not_depend_on_string_hashing(self):
        text = "x: !!set {gamma, alpha, delta, beta, 3}\nservices:\n  app:\n    labels: !!set {b, a}\n"
        script = (
            "import sys\n"
            "from dad.compose import parse_compose, serialize_compose\n"
            "sys.stdout.write(serialize_compose(parse_compose(sys.argv[1])))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script, text],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert outputs == {
            "x: !!set\n  3:\n  alpha:\n  beta:\n  delta:\n  gamma:\n"
            "services:\n  app:\n    labels: !!set\n      a:\n      b:\n"
        }

    def test_empty_spec_serializes_to_empty_services_map(self):
        assert serialize_compose(parse_compose("")) == "services: {}\n"

    def test_round_trip_preserves_untouched_text_semantics(self):
        spec = parse_compose(WEB_STACK)
        assert yaml.safe_load(serialize_compose(spec)) == yaml.safe_load(WEB_STACK)
