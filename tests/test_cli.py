"""End-to-end tests for the command line interface.

Every test drives ``cli.main`` in process and asserts on exit codes and
captured streams, so the exit-code contract (0 consistent, 1 inconsistent,
2 invalid, 3 I/O, 4 internal error) is pinned exactly where CI scripts would
observe it. Two tests also run ``dad check`` as a subprocess, to see that it
ends by its exit code and not by a signal or a traceback, and
``TestColdProcess`` checks what a fresh ``dad`` process imports, and that
its output bytes do not depend on the hash seed.
"""

import collections
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dad import cli, dac_emit, yaml_io
from dad.compose import (
    _NAMED_VOLUME_RE,
    load_model,
    lower,
    parse_compose,
    serialize_compose,
    unlower,
)
from dad.consistency import Verdict, check_diagram_against_descriptor, round_trip_check
from dad.dac_emit import emit_dac, emit_dot, escape_quoted
from dad.dac_ingest import emit_compose, lift, parse_dac
from dad.errors import DadError, EmitError
from dad.model import (
    _SERVICE_ATTRS,
    ArchModel,
    BuildRef,
    Edge,
    EdgeKind,
    NetworkNode,
    ServiceNode,
    VolumeNode,
    model_equal,
)

from specgen import gen_model, perfbench_gen

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# cyclic.yml without its worker -> api edge, as a diagram script
ACYCLIC_SCRIPT = (
    'with DaC("acyclic", direction="TB"):\n'
    '  with Cluster("api service"):\n'
    '    api = Server("api")  # image=example/api:1.0\n'
    '  with Cluster("worker service"):\n'
    '    worker = Server("worker")  # image=example/worker:1.0\n'
    "  api >> worker\n"
)
CYCLE_WITNESS = "dependency cycle: api -> worker -> api"

# One service whose every relation field names an undeclared node.
DANGLING_EVERY_FIELD = (
    "services: {web: {image: nginx, depends_on: [api], links: [cache],"
    ' volumes: ["data:/srv"], networks: [front]}}\n'
)


class TestGenerate:
    def test_reference_stack_stdout(self, capsys):
        code, out, err = run(capsys, "generate", "-i", str(CORPUS / "dblog.yml"))
        assert code == EXIT_OK
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == 'with DaC("dblog system", direction="TB"):'
        assert '  with Cluster("mysql service"):' in lines
        assert any(line.startswith('    mysql = Server("mysql")') for line in lines)
        assert any(line.split("  # ")[0] == "  kafka >> zookeeper" for line in lines)
        assert any(line.split("  # ")[0] == "  connect - zookeeper" for line in lines)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.dac"
        code, out, err = run(
            capsys, "generate", "-i", str(CORPUS / "dblog.yml"), "-o", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith('with DaC("dblog system"')

    def test_empty_services(self, capsys, tmp_path):
        src = tmp_path / "empty.yml"
        src.write_text("services: {}\n", encoding="utf-8")
        code, out, err = run(capsys, "generate", "-i", str(src))
        assert code == EXIT_OK
        assert out == 'with DaC("empty", direction="TB"):\n  pass\n'

    def test_cycle_rejected_with_witness(self, capsys):
        code, out, err = run(capsys, "generate", "-i", str(CORPUS / "cyclic.yml"))
        assert code == EXIT_INVALID
        assert out == ""
        assert "CycleError" in err
        assert "api -> worker -> api" in err

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "generate", "-i", str(tmp_path / "nope.yml"))
        assert code == EXIT_IO
        assert "error" in err

    def test_two_inputs_rejected(self, capsys):
        code, out, err = run(
            capsys,
            "generate",
            "-i",
            str(CORPUS / "dblog.yml"),
            "-i",
            str(CORPUS / "wordpress.yml"),
        )
        assert code == EXIT_INVALID
        assert "exactly one" in err

    def test_dot_format(self, capsys):
        code, out, err = run(
            capsys, "generate", "-i", str(CORPUS / "dblog.yml"), "--format", "dot"
        )
        assert code == EXIT_OK
        assert out.startswith('digraph "dblog system" {')
        assert "  kafka -> zookeeper;" in out
        assert "  connect -> zookeeper [dir=none];" in out

    def test_one_dangling_reference_per_relation_field(self, capsys, tmp_path):
        # every relation field names an undeclared node: lenient mode warns
        # and draws a phantom per reference, in field order
        src = tmp_path / "dangling.yml"
        src.write_text(DANGLING_EVERY_FIELD, encoding="utf-8")
        issues = [
            "DanglingReference(services.web.depends_on -> api): references undeclared service 'api'",
            "DanglingReference(services.web.links -> cache): references undeclared service 'cache'",
            "DanglingReference(services.web.volumes -> data): references undeclared volume 'data'",
            "DanglingReference(services.web.networks -> front): references undeclared network 'front'",
        ]
        warnings = "".join(f"warning: {issue}\n" for issue in issues)
        code, out, err = run(capsys, "generate", "-i", str(src))
        assert (code, err) == (EXIT_OK, warnings)
        phantoms = [line.strip() for line in out.splitlines() if line.endswith("  # phantom=true")]
        assert phantoms == [
            'api = Server("api")  # phantom=true',
            'cache = Server("cache")  # phantom=true',
            'data = Storage("data")  # phantom=true',
            'front = Network("front")  # phantom=true',
        ]
        assert out.endswith("  web >> api\n  web - cache\n  web - data  # target=/srv\n  web - front\n")
        code, out, err = run(capsys, "generate", "-i", str(src), "--format", "dot")
        assert (code, err) == (EXIT_OK, warnings)
        for line in [
            '  api [shape=box, label="api", style=dashed];',
            '  cache [shape=box, label="cache", style=dashed];',
            '  data [shape=cylinder, label="data", style=dashed];',
            '  front [shape=diamond, label="front", style=dashed];',
        ]:
            assert line in out.splitlines()
        code, out, err = run(capsys, "check", "-i", str(src))
        assert (code, out.splitlines()[0]) == (EXIT_OK, "verdict: Consistent")
        code, out, err = run(capsys, "generate", "-i", str(src), "--strict")
        assert (code, out) == (EXIT_INVALID, "")
        assert err == "".join(f"error: {issue}\n" for issue in issues) + (
            f"error: LoweringError: {'; '.join(issues)}\n"
        )

    def test_malformed_yaml(self, capsys, tmp_path):
        src = tmp_path / "bad.yml"
        src.write_text("services: [unclosed\n", encoding="utf-8")
        code, out, err = run(capsys, "generate", "-i", str(src))
        assert code == EXIT_INVALID
        assert "error" in err


class TestRoleGrouping:
    def test_default_table_orders_database_first(self, capsys):
        code, out, err = run(
            capsys, "generate", "-i", str(CORPUS / "wordpress.yml"), "--group-by-role"
        )
        assert code == EXIT_OK
        assert out.index('Cluster("db service")') < out.index('Cluster("wordpress service")')

    def test_env_table_overrides_builtin(self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "roles.txt"
        table.write_text("# custom roles\nwordpress=aaa\n", encoding="utf-8")
        monkeypatch.setenv("DAD_ROLE_TABLE", str(table))
        code, out, err = run(
            capsys, "generate", "-i", str(CORPUS / "wordpress.yml"), "--group-by-role"
        )
        assert code == EXIT_OK
        assert out.index('Cluster("wordpress service")') < out.index('Cluster("db service")')

    def test_malformed_table_is_invalid(self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "roles.txt"
        table.write_text("justoneword\n", encoding="utf-8")
        monkeypatch.setenv("DAD_ROLE_TABLE", str(table))
        code, out, err = run(
            capsys, "generate", "-i", str(CORPUS / "wordpress.yml"), "--group-by-role"
        )
        assert code == EXIT_INVALID
        assert "substring=role" in err

    def test_missing_table_file_is_io_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DAD_ROLE_TABLE", str(tmp_path / "absent.txt"))
        code, out, err = run(
            capsys, "generate", "-i", str(CORPUS / "wordpress.yml"), "--group-by-role"
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize("table_text", [None, "justoneword\n"], ids=["missing", "malformed"])
    @pytest.mark.parametrize("fmt", ["dac", "dot"])
    def test_plain_generate_never_reads_the_table(self, capsys, tmp_path, monkeypatch, table_text, fmt):
        source = str(CORPUS / "wordpress.yml")
        expected = run(capsys, "generate", "-i", source, "--format", fmt)
        table = tmp_path / "roles.txt"
        if table_text is not None:
            table.write_text(table_text, encoding="utf-8")
        monkeypatch.setenv("DAD_ROLE_TABLE", str(table))
        assert run(capsys, "generate", "-i", source, "--format", fmt) == expected
        assert expected[0] == EXIT_OK

    def test_table_saved_with_a_byte_order_mark_keeps_its_first_entry(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "stack.yml"
        src.write_text("services:\n  app:\n    image: example/app\n  web:\n    image: nginx\n", encoding="utf-8")
        table = tmp_path / "roles.txt"
        table.write_text("nginx=database\n", encoding="utf-8-sig")
        assert table.read_bytes().startswith(b"\xef\xbb\xbfnginx=")
        monkeypatch.setenv("DAD_ROLE_TABLE", str(table))
        code, out, err = run(capsys, "generate", "-i", str(src), "--group-by-role")
        assert (code, err) == (EXIT_OK, "")
        assert out.index('Cluster("web service")') < out.index('Cluster("app service")')

    @pytest.mark.parametrize(
        "fmt, line", [("dac", 'Cluster("{} service")'), ("dot", "  {} [shape=box")], ids=["dac", "dot"]
    )
    def test_builtin_roles_group_in_the_order_of_their_names(self, capsys, tmp_path, fmt, line):
        # one service per builtin role: database, gateway, messaging, service
        src = tmp_path / "stack.yml"
        src.write_text(
            "services:\n  web:\n    image: nginx\n  app:\n    image: example/app\n"
            "  queue:\n    image: rabbitmq\n  db:\n    image: postgres\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "generate", "-i", str(src), "--format", fmt, "--group-by-role")
        assert (code, err) == (EXIT_OK, "")
        names = sorted(["web", "app", "queue", "db"], key=lambda name: out.index(line.format(name)))
        assert names == ["db", "web", "queue", "app"]


# Script bodies holding a phantom that a lenient reparse would not give back:
# an attributed one that an edge points at, and an isolated service, volume
# and network. dad invert must declare each.
LOST_PHANTOMS = {
    "attributed": (
        '  with Cluster("api service"):\n'
        '    api = Server("api")  # image=example/api:1\n'
        '  with Cluster("cache service"):\n'
        '    cache = Server("cache")  # image=redis:7,phantom=true\n'
        "  api >> cache\n"
    ),
    "isolated service": '  with Cluster("ghost service"):\n    ghost = Server("ghost")  # phantom=true\n',
    "isolated volume": '  with Cluster("data volume"):\n    data = Storage("data")  # phantom=true\n',
    "isolated network": '  with Cluster("front network"):\n    front = Network("front")  # phantom=true\n',
}


def unheld_script(label: str) -> str:
    """A script lift takes whose descriptor could not hold its one edge:
    ``a`` links to a service named ``label`` when it holds ``:``, else
    mounts a volume named ``label`` at ``/data``."""
    if ":" in label:
        node, edge = f'Server("{label}")  # image=y', "a - b"
    else:
        node, edge = f'Storage("{label}")', "a - b  # target=/data"
    return (
        'with DaC("t", direction="TB"):\n'
        '  with Cluster("a service"):\n'
        '    a = Server("a")  # image=x\n'
        '  with Cluster("b"):\n'
        f"    b = {node}\n"
        f"  {edge}\n"
    )


class TestInvert:
    def test_generated_script_inverts_to_equivalent_descriptor(self, capsys, tmp_path):
        script = tmp_path / "stack.dac"
        run(capsys, "generate", "-i", str(CORPUS / "rails_stack.yml"), "-o", str(script))
        code, out, err = run(capsys, "invert", "-i", str(script))
        assert code == EXIT_OK
        original = lower(
            parse_compose((CORPUS / "rails_stack.yml").read_text(encoding="utf-8"))
        )
        recovered = lower(parse_compose(out))
        assert model_equal(original, recovered)

    def test_script_saved_with_a_byte_order_mark_reads_as_the_plain_one(self, capsys, tmp_path):
        descriptor = str(CORPUS / "lamp.yml")
        plain, marked = tmp_path / "plain.dac", tmp_path / "marked.dac"
        run(capsys, "generate", "-i", descriptor, "-o", str(plain))
        marked.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfwith DaC(")
        assert run(capsys, "diff", "-i", str(plain), "-i", str(marked))[0] == EXIT_OK
        assert run(capsys, "check", "-i", str(marked), "-i", descriptor)[0] == EXIT_OK
        expected = run(capsys, "invert", "-i", str(plain))
        assert expected[0] == EXIT_OK
        assert run(capsys, "invert", "-i", str(marked)) == expected

    def test_header_only_script(self, capsys, tmp_path):
        script = tmp_path / "empty.dac"
        script.write_text('with DaC("t", direction="TB"):\n  pass\n', encoding="utf-8")
        code, out, err = run(capsys, "invert", "-i", str(script))
        assert code == EXIT_OK
        assert out == "services: {}\n"

    def test_mount_without_target_rejected(self, capsys, tmp_path):
        script = tmp_path / "bad.dac"
        script.write_text(
            'with DaC("t", direction="TB"):\n'
            '  with Cluster("a service"):\n'
            '    a = Server("a")\n'
            '  with Cluster("v volume"):\n'
            '    v = Storage("v")\n'
            "  a - v\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "invert", "-i", str(script))
        assert code == EXIT_INVALID
        assert "target" in err

    def test_repeated_mount_rejected(self, capsys, tmp_path):
        # the descriptor it would write, volumes: [data:/a, data:/a], fails dad check
        script = tmp_path / "repeat.dac"
        script.write_text(
            'with DaC("t", direction="TB"):\n'
            '  with Cluster("app service"):\n'
            '    app = Server("app")  # image=x\n'
            '  with Cluster("data volume"):\n'
            '    data = Storage("data")\n'
            "  app - data  # target=/a\n"
            "  data - app  # target=/a\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "invert", "-i", str(script))
        assert (code, out) == (EXIT_INVALID, "")
        assert "line 7: mounts data:/a twice" in err

    # a volume name a descriptor reads as a host path, and a link target it
    # reads as a service and an alias
    @pytest.mark.parametrize("label", ["my vol", ".v", "/host", "~", "vé", "b:c"])
    def test_edge_a_descriptor_cannot_hold_rejected(self, capsys, tmp_path, label):
        refusal = f"{'link' if ':' in label else 'mount'} a - {label}: "
        script = tmp_path / "unheld.dac"
        script.write_text(unheld_script(label), encoding="utf-8")
        model = lift(parse_dac(unheld_script(label)))
        with pytest.raises(EmitError, match=f"^{re.escape(refusal)}"):
            emit_compose(model)
        code, out, err = run(capsys, "invert", "-i", str(script))
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith(f"error: EmitError: {refusal}")

    def test_strict_undeclared_ident(self, capsys, tmp_path):
        script = tmp_path / "dangling.dac"
        script.write_text(
            'with DaC("t", direction="TB"):\n'
            '  with Cluster("a service"):\n'
            '    a = Server("a")\n'
            "  a >> ghost\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "invert", "-i", str(script), "--strict")
        assert code == EXIT_INVALID
        assert "ghost" in err
        code, out, err = run(capsys, "invert", "-i", str(script))
        assert code == EXIT_OK
        assert "ghost" in out

    @pytest.mark.parametrize("body", LOST_PHANTOMS.values(), ids=LOST_PHANTOMS.keys())
    def test_every_phantom_survives_invert_then_diff(self, capsys, tmp_path, body):
        script, descriptor = tmp_path / "p.dac", tmp_path / "p.yml"
        script.write_text('with DaC("p", direction="TB"):\n' + body, encoding="utf-8")
        assert run(capsys, "invert", "-i", str(script), "-o", str(descriptor)) == (EXIT_OK, "", "")
        code, out, err = run(capsys, "diff", "-i", str(script), "-i", str(descriptor))
        assert code == EXIT_OK, (out, err)
        assert out.startswith("verdict: Consistent\n")

    def test_roundtrip_through_files(self, capsys, tmp_path):
        script = tmp_path / "s.dac"
        descriptor = tmp_path / "d.yml"
        run(capsys, "generate", "-i", str(CORPUS / "kafka_stack.yml"), "-o", str(script))
        run(capsys, "invert", "-i", str(script), "-o", str(descriptor))
        code, out, err = run(capsys, "check", "-i", str(descriptor))
        assert code == EXIT_OK
        second = tmp_path / "s2.dac"
        code, out, err = run(capsys, "generate", "-i", str(descriptor), "-o", str(second))
        assert code == EXIT_OK
        first_text = script.read_text(encoding="utf-8")
        second_text = second.read_text(encoding="utf-8")
        assert first_text.splitlines()[0].startswith('with DaC(')
        assert second_text.splitlines()[1:] == first_text.splitlines()[1:]


class TestCheck:
    def test_single_descriptor_consistent(self, capsys):
        code, out, err = run(capsys, "check", "-i", str(CORPUS / "dblog.yml"))
        assert code == EXIT_OK
        assert out.startswith("verdict: Consistent\n")

    def test_single_descriptor_machine_report(self, capsys):
        code, out, err = run(
            capsys, "check", "-i", str(CORPUS / "dblog.yml"), "--report", "machine"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "verdict\tConsistent"
        assert lines[1] == "stats\t4\t2\t4\t2"

    def test_cyclic_descriptor_invalid(self, capsys):
        code, out, err = run(capsys, "check", "-i", str(CORPUS / "cyclic.yml"))
        assert code == EXIT_INVALID
        assert "verdict: Invalid" in out
        assert "api -> worker -> api" in out

    def test_strict_gate_reports_dangling_reference(self, capsys):
        code, out, err = run(
            capsys, "check", "-i", str(CORPUS / "dblog_fragment.yml"), "--strict"
        )
        assert code == EXIT_INVALID
        assert out == (
            "verdict: Invalid\n"
            "error: DanglingReference(services.dblog.depends_on -> postgres): "
            "references undeclared service 'postgres'\n"
        )

    @pytest.mark.parametrize("script_first", [True, False])
    def test_pair_mode_cyclic_descriptor_is_invalid(self, capsys, tmp_path, script_first):
        script = tmp_path / "acyclic.dac"
        script.write_text(ACYCLIC_SCRIPT, encoding="utf-8")
        pair = [str(script), str(CORPUS / "cyclic.yml")]
        if not script_first:
            pair.reverse()
        code, out, err = run(capsys, "check", "-i", pair[0], "-i", pair[1])
        assert code == EXIT_INVALID
        assert out == f"verdict: Invalid\nerror: {CYCLE_WITNESS}\n"

    def test_pair_mode_consistent(self, capsys, tmp_path):
        script = tmp_path / "dblog.dac"
        run(capsys, "generate", "-i", str(CORPUS / "dblog.yml"), "-o", str(script))
        code, out, err = run(
            capsys, "check", "-i", str(CORPUS / "dblog.yml"), "-i", str(script)
        )
        assert code == EXIT_OK
        assert out.startswith("verdict: Consistent\n")

    def test_pair_mode_order_independent(self, capsys, tmp_path):
        script = tmp_path / "dblog.dac"
        run(capsys, "generate", "-i", str(CORPUS / "dblog.yml"), "-o", str(script))
        code_a, out_a, _ = run(
            capsys, "check", "-i", str(script), "-i", str(CORPUS / "dblog.yml")
        )
        code_b, out_b, _ = run(
            capsys, "check", "-i", str(CORPUS / "dblog.yml"), "-i", str(script)
        )
        assert (code_a, out_a) == (code_b, out_b)

    def test_pair_mode_extra_diagram_node(self, capsys, tmp_path):
        script = tmp_path / "extra.dac"
        base = cli_generate_text(capsys, CORPUS / "dblog.yml")
        lines = base.splitlines()
        insert_at = max(i for i, l in enumerate(lines) if l.startswith("    ")) + 1
        lines[insert_at:insert_at] = [
            '  with Cluster("ghost service"):',
            '    ghost = Server("ghost")',
        ]
        script.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "check", "-i", str(CORPUS / "dblog.yml"), "-i", str(script)
        )
        assert code == EXIT_INCONSISTENT
        assert "verdict: Inconsistent" in out
        assert "ExtraNode services.ghost" in out

    def test_pair_mode_requires_one_script(self, capsys, tmp_path):
        a = tmp_path / "a.dac"
        b = tmp_path / "b.dac"
        for p in (a, b):
            p.write_text('with DaC("t", direction="TB"):\n  pass\n', encoding="utf-8")
        code, out, err = run(capsys, "check", "-i", str(a), "-i", str(b))
        assert code == EXIT_INVALID
        assert "pair mode" in err

    def test_batch_mode_headers_and_worst_exit(self, capsys):
        code, out, err = run(
            capsys,
            "check",
            "-i",
            str(CORPUS / "dblog.yml"),
            "-i",
            str(CORPUS / "cyclic.yml"),
        )
        assert code == EXIT_INVALID
        assert f"== {CORPUS / 'dblog.yml'}" in out
        assert f"== {CORPUS / 'cyclic.yml'}" in out
        assert "verdict: Consistent" in out
        assert "verdict: Invalid" in out

    def test_batch_machine_headers(self, capsys):
        code, out, err = run(
            capsys,
            "check",
            "-i",
            str(CORPUS / "wordpress.yml"),
            "-i",
            str(CORPUS / "elk.yml"),
            "--report",
            "machine",
        )
        assert code == EXIT_OK
        assert f"file\t{CORPUS / 'wordpress.yml'}" in out.splitlines()


    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
    @pytest.mark.parametrize("kind", ["service", "volume", "network"])
    def test_empty_name_is_invalid_at_the_gate(self, capsys, tmp_path, kind, strict):
        text = "services: {}\n" if kind != "service" else ""
        text += f"{kind}s:\n  '':\n" + ("    image: x\n" if kind == "service" else "")
        src = tmp_path / "empty_name.yml"
        src.write_text(text, encoding="utf-8")
        message = f"EmptyName({kind}s): declares a {kind} with an empty name"
        code, out, err = run(capsys, "check", "-i", str(src), *strict)
        assert (code, out) == (EXIT_INVALID, f"verdict: Invalid\nerror: {message}\n")
        code, out, err = run(capsys, "generate", "-i", str(src), *strict)
        assert (code, out) == (EXIT_INVALID, "")
        assert f"error: {message}\n" in err


    @pytest.mark.parametrize(
        "mounts",
        ["[data:/a:ro, data:/a:rw]", "[{type: volume, source: data, target: /a}, data:/a:ro]"],
        ids=["short", "long"],
    )
    def test_repeated_mount_is_invalid(self, capsys, tmp_path, mounts):
        src = tmp_path / "repeat.yml"
        src.write_text(
            f"services:\n  app:\n    image: x\n    volumes: {mounts}\nvolumes:\n  data:\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check", "-i", str(src))
        assert (code, out) == (
            EXIT_INVALID,
            "verdict: Invalid\nerror: services.app.volumes: mounts data:/a twice\n",
        )

    def test_lenient_conflict_notes_the_build_it_drops(self, capsys, tmp_path):
        # lower draws the image of a service that declares both sources, so
        # every report names the build the diagram leaves out, after the
        # residue paths and in service order
        src = tmp_path / "both.yml"
        src.write_text(
            "services:\n"
            "  web:\n    image: nginx\n    build: ./web\n    ports: ['80:80']\n"
            "  db:\n    image: postgres\n    build: ./db\n",
            encoding="utf-8",
        )
        paths = ["services.web.ports", "services.web.build", "services.db.build"]
        notes = "".join(f"note: residue excluded from diagram: {path}\n" for path in paths)
        compared = "compared: left 2 nodes / 0 edges, right 2 nodes / 0 edges\n"
        report = f"verdict: Consistent\n{compared}{notes}"
        assert run(capsys, "check", "-i", str(src)) == (EXIT_OK, report, "")
        code, out, err = run(capsys, "check", "-i", str(src), "-i", str(src))
        assert (code, out) == (EXIT_OK, f"== {src}\n{report}== {src}\n{report}")
        code, out, err = run(capsys, "check", "-i", str(src), "--report", "machine")
        assert out.splitlines()[2:] == [
            f"note\tresidue excluded from diagram: {path}" for path in paths
        ]

        script = tmp_path / "both.dac"
        assert run(capsys, "generate", "-i", str(src), "-o", str(script))[0] == EXIT_OK
        assert run(capsys, "check", "-i", str(script), "-i", str(src)) == (EXIT_OK, report, "")
        code, out, err = run(capsys, "diff", "-i", str(src), "-i", str(src))
        prefixed = notes.replace("diagram: ", f"diagram: {src}: ")
        assert (code, out) == (EXIT_OK, f"verdict: Consistent\n{compared}{prefixed}{prefixed}")
        assert err.count("ConflictingSource") == 4
        code, out, err = run(capsys, "diff", "-i", str(script), "-i", str(src))
        assert (code, out) == (EXIT_OK, f"verdict: Consistent\n{compared}{prefixed}")

        code, out, err = run(capsys, "check", "-i", str(src), "--strict")
        assert code == EXIT_INVALID
        assert out == (
            "verdict: Invalid\nerror: "
            "ConflictingSource(services.web): declares both image and build; "
            "ConflictingSource(services.db): declares both image and build\n"
        )


class TestDiff:
    def test_identical_descriptors(self, capsys):
        path = str(CORPUS / "monitoring.yml")
        code, out, err = run(capsys, "diff", "-i", path, "-i", path)
        assert code == EXIT_OK
        assert out.startswith("verdict: Consistent\n")

    def test_descriptor_against_generated_script(self, capsys, tmp_path):
        script = tmp_path / "stack.dac"
        run(capsys, "generate", "-i", str(CORPUS / "lamp.yml"), "-o", str(script))
        code, out, err = run(
            capsys, "diff", "-i", str(CORPUS / "lamp.yml"), "-i", str(script)
        )
        assert code == EXIT_OK

    def test_residue_notes_listed(self, capsys, tmp_path):
        script = tmp_path / "stack.dac"
        run(capsys, "generate", "-i", str(CORPUS / "wordpress.yml"), "-o", str(script))
        code, out, err = run(
            capsys, "diff", "-i", str(CORPUS / "wordpress.yml"), "-i", str(script)
        )
        assert code == EXIT_OK
        assert (
            "note: residue excluded from diagram: "
            f"{CORPUS / 'wordpress.yml'}: services.wordpress.ports" in out
        )

    def test_modified_copy_inconsistent(self, capsys, tmp_path):
        doc = yaml.safe_load((CORPUS / "wordpress.yml").read_text(encoding="utf-8"))
        doc["services"]["db"]["image"] = "mariadb:10.6"
        changed = tmp_path / "wordpress.yml"
        changed.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        code, out, err = run(
            capsys, "diff", "-i", str(CORPUS / "wordpress.yml"), "-i", str(changed)
        )
        assert code == EXIT_INCONSISTENT
        assert "AttributeMismatch services.db.image" in out
        assert "left: 'mariadb:11.2'" in out
        assert "right: 'mariadb:10.6'" in out

    def test_empty_value_against_an_absent_one_is_inconsistent(self, capsys, tmp_path):
        blank, absent = tmp_path / "blank.yml", tmp_path / "absent.yml"
        blank.write_text('services: {app: {image: ""}, db: {image: pg}}\n', encoding="utf-8")
        absent.write_text("services: {app: {}, db: {image: pg}}\n", encoding="utf-8")
        code, out, err = run(capsys, "diff", "-i", str(blank), "-i", str(absent))
        assert code == EXIT_INCONSISTENT
        assert "  AttributeMismatch services.app.image (left: '', right: '')\n" in out

        script = 'with DaC("t", direction="TB"):\n  with Cluster("app service"):\n    app = Server("app"){}\n'
        blank_dac, absent_dac = tmp_path / "blank.dac", tmp_path / "absent.dac"
        blank_dac.write_text(script.format("  # image="), encoding="utf-8")
        absent_dac.write_text(script.format(""), encoding="utf-8")
        code, out, err = run(capsys, "diff", "-i", str(blank_dac), "-i", str(absent_dac), "--report", "machine")
        assert code == EXIT_INCONSISTENT
        assert out.splitlines()[2:] == ["AttributeMismatch\tservices.app.image\t\t"]

    def test_empty_mount_target_against_an_absent_one_is_inconsistent(self, capsys, tmp_path):
        script = (
            'with DaC("t", direction="TB"):\n'
            '  with Cluster("web service"):\n'
            '    web = Server("web")  # image=x\n'
            '  with Cluster("data volume"):\n'
            '    data = Storage("data")\n'
            "  web - data{}\n"
        )
        blank_dac, absent_dac = tmp_path / "blank.dac", tmp_path / "absent.dac"
        blank_dac.write_text(script.format("  # target="), encoding="utf-8")
        absent_dac.write_text(script.format(""), encoding="utf-8")
        code, out, err = run(capsys, "diff", "-i", str(blank_dac), "-i", str(absent_dac))
        assert code == EXIT_INCONSISTENT
        assert "  AttributeMismatch edges.mount.web->data.target (left: '', right: '')\n" in out

        blank_yml = tmp_path / "blank.yml"
        blank_yml.write_text(
            "services:\n  web:\n    image: x\n"
            "    volumes: [{type: volume, source: data, target: ''}]\nvolumes:\n  data:\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "check", "-i", str(absent_dac), "-i", str(blank_yml))
        assert code == EXIT_INCONSISTENT
        assert "  AttributeMismatch edges.mount.web->data.target (left: '', right: '')\n" in out
        code, out, err = run(capsys, "check", "-i", str(blank_dac), "-i", str(blank_yml))
        assert code == EXIT_OK, out

    def test_left_format_override(self, capsys, tmp_path):
        script_no_suffix = tmp_path / "diagram.txt"
        run(
            capsys,
            "generate",
            "-i",
            str(CORPUS / "flask_nginx.yml"),
            "-o",
            str(script_no_suffix),
        )
        code, out, err = run(
            capsys,
            "diff",
            "-i",
            str(script_no_suffix),
            "-i",
            str(CORPUS / "flask_nginx.yml"),
            "--left-format",
            "dac",
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("override", [[], ["--left-format", "compose"]])
    def test_cyclic_descriptor_is_invalid(self, capsys, override):
        path = str(CORPUS / "cyclic.yml")
        code, out, err = run(capsys, "diff", "-i", path, "-i", path, *override)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == f"error: CycleError: {CYCLE_WITNESS}\n"

    def test_three_inputs_rejected(self, capsys):
        path = str(CORPUS / "elk.yml")
        code, out, err = run(capsys, "diff", "-i", path, "-i", path, "-i", path)
        assert code == EXIT_INVALID
        assert "exactly two" in err


def with_back_edge(model: ArchModel, pick: int) -> tuple[ArchModel, str, str]:
    """The model plus one dependency edge that closes a cycle, and its ends."""
    deps = [edge for edge in model.edges if edge.kind is EdgeKind.DEPENDENCY]
    if deps:
        forward = deps[pick % len(deps)]
        src, dst = forward.dst, forward.src
    else:  # a self dependency is a cycle too
        src = dst = model.services[pick % len(model.services)].name
    cyclic = ArchModel(
        title=model.title,
        services=model.services,
        volumes=model.volumes,
        networks=model.networks,
        edges=model.edges + (Edge(EdgeKind.DEPENDENCY, src, dst),),
    )
    return cyclic, src, dst


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2**16))
def test_cyclic_input_is_invalid_on_every_path(seed, pick):
    model = gen_model(random.Random(seed))
    cyclic, src, dst = with_back_edge(model, pick)
    descriptor = {"acyclic": serialize_compose(unlower(model)), "cyclic": serialize_compose(unlower(cyclic))}
    emitted = emit_dac(model)
    idents = {label: ident for ident, kind, label in emitted.identifiers if kind == "Server"}
    script = {"acyclic": emitted.text, "cyclic": emitted.text + f"  {idents[src]} >> {idents[dst]}\n"}

    invalid = [
        round_trip_check(descriptor["cyclic"]),
        check_diagram_against_descriptor(script["acyclic"], descriptor["cyclic"]),
        check_diagram_against_descriptor(script["cyclic"], descriptor["acyclic"]),
    ]
    for report in invalid:
        assert report.verdict is Verdict.INVALID and "dependency cycle" in report.error, report

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for form in ("acyclic", "cyclic"):
            paths[form, "yml"] = Path(tmp, f"{form}.yml")
            paths[form, "yml"].write_text(descriptor[form], encoding="utf-8")
            paths[form, "dac"] = Path(tmp, f"{form}.dac")
            paths[form, "dac"].write_text(script[form], encoding="utf-8")
        runs = [["check", "-i", str(paths["cyclic", "yml"])]]
        for left, right in itertools.product(("yml", "dac"), repeat=2):
            for left_form, right_form in (("cyclic", "acyclic"), ("acyclic", "cyclic")):
                pair = ["-i", str(paths[left_form, left]), "-i", str(paths[right_form, right])]
                runs.append(["diff", *pair])
                if left != right:
                    runs.append(["check", *pair])
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code == EXIT_INVALID, argv


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == EXIT_INVALID
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert cli.main(["generate", "--bogus"]) == EXIT_INVALID
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "generate" in out and "invert" in out

    @pytest.mark.parametrize("sub", ["generate", "invert", "check", "diff"])
    def test_subcommand_help(self, capsys, sub):
        assert cli.main([sub, "--help"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize(
        "sub, options",
        [
            (
                "generate",
                (
                    "--format {dac,dot} a DaC script or a Graphviz digraph",
                    "--group-by-role order services by their image role's name "
                    "(database, gateway, messaging, service)",
                ),
            ),
            ("invert", ()),
            ("check", ("--report {text,machine} text, or machine: tab separated lines",)),
            ("diff", ("--report {text,machine} text, or machine: tab separated lines",)),
        ],
    )
    def test_subcommand_help_texts(self, capsys, monkeypatch, columns, sub, options):
        # argparse wraps help at the terminal width, so whitespace is folded
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.main([sub, "--help"]) == EXIT_OK
        out = " ".join(capsys.readouterr().out.split())
        strict = (
            "--strict treat a descriptor's dangling references and conflicting or missing sources "
            "(image and build, or neither) as errors, and refuse a script's undeclared identifiers"
        )
        for text in (strict, *options):
            assert text in out


def write_deeply_nested(tmp_path: Path, depth: int) -> Path:
    path = tmp_path / f"deep{depth}.yml"
    path.write_text("a: " + "[" * depth + "]" * depth + "\n", encoding="utf-8")
    return path


class TestDeepNesting:
    @pytest.mark.parametrize("depth", [5000, 100000])
    def test_check_is_invalid(self, capsys, tmp_path, depth):
        code, out, err = run(capsys, "check", "-i", str(write_deeply_nested(tmp_path, depth)))
        assert code == EXIT_INVALID
        assert "verdict: Invalid" in out
        assert "nesting too deep" in out

    def test_check_subprocess_exits_invalid(self, tmp_path):
        path = write_deeply_nested(tmp_path, 100000)
        proc = subprocess.run(
            [sys.executable, "-m", "dad.cli", "check", "-i", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        # a negative return code would mean the process died of a signal
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert "nesting too deep" in proc.stdout


class TestIllTypedScalars:
    @pytest.mark.parametrize(
        "text",
        [
            "a: !!int 'abc'\n",
            "a: !!float 'x'\n",
            "a: !!bool 'maybe'\n",
            "a: !!timestamp 'x'\n",
            "a: !!map x\n",
            "a: !!seq x\n",
        ],
    )
    def test_check_is_invalid(self, capsys, tmp_path, yaml_backend, text):
        path = tmp_path / "tagged.yml"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", "-i", str(path))
        assert code == EXIT_INVALID
        assert out.startswith("verdict: Invalid\n") and "(line 1, col 4)" in out
        assert err == ""


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x7f"])
def test_non_printable_character_is_invalid(capsys, tmp_path, yaml_backend, char):
    path = tmp_path / "control.yml"
    path.write_text(f"services:\n  web:\n    image: a{char}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "-i", str(path))
    assert code == EXIT_INVALID
    assert out.startswith("verdict: Invalid\n")
    assert err == ""


# A long-syntax mount whose target is the empty string.
EMPTY_MOUNT_TARGET = """\
services:
  app:
    image: nginx
    volumes:
      - type: volume
        source: data
        target: ""
volumes:
  data:
"""


def test_empty_mount_target_round_trips_consistent(capsys, tmp_path):
    path = tmp_path / "empty_target.yml"
    path.write_text(EMPTY_MOUNT_TARGET, encoding="utf-8")
    code, out, err = run(capsys, "check", "-i", str(path))
    assert code == EXIT_OK, out
    assert out.startswith("verdict: Consistent\n")


# Mount items that name no volume at a string target: no target, a source
# that is no string, a host path, a target that is no string.
ODD_MOUNT_ITEMS = """\
services:
  web:
    image: nginx
    volumes:
      - "data:"
      - {type: volume, source: 1, target: /x}
      - {type: volume, source: /abs, target: /y}
      - {type: volume, source: data, target: 2}
volumes:
  data:
"""


def test_odd_mount_items_stay_residue(capsys, tmp_path):
    path = tmp_path / "odd_mounts.yml"
    path.write_text(ODD_MOUNT_ITEMS, encoding="utf-8")
    code, out, err = run(capsys, "check", "-i", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "verdict: Consistent\n"
        "compared: left 2 nodes / 0 edges, right 2 nodes / 0 edges\n"
        "note: residue excluded from diagram: services.web.volumes\n"
    )
    spec = parse_compose(ODD_MOUNT_ITEMS)
    assert spec.services["web"].volumes == []
    items = ["data:", {"type": "volume", "source": 1, "target": "/x"},
             {"type": "volume", "source": "/abs", "target": "/y"},
             {"type": "volume", "source": "data", "target": 2}]
    assert spec.residue == {("services", "web", "volumes"): items}
    text = serialize_compose(spec)
    assert yaml.safe_load(text)["services"]["web"]["volumes"] == items
    assert parse_compose(text) == spec


class TestCrashExits:
    def test_undecodable_input_is_invalid_subprocess(self, tmp_path):
        path = tmp_path / "latin1.yml"
        path.write_bytes(b"services:\n  caf\xe9:\n    image: x\n")
        proc = subprocess.run(
            [sys.executable, "-m", "dad.cli", "check", "-i", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "not UTF-8" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("sub", ["generate", "invert", "diff"])
    def test_undecodable_input_in_every_command(self, capsys, tmp_path, sub):
        path = tmp_path / "bad.dac"
        path.write_bytes(b"\xff\xfe")
        argv = [sub, "-i", str(path)] + (["-i", str(path)] if sub == "diff" else [])
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INVALID
        assert err == f"error: DadError: {path} is not UTF-8 text: byte 0xff at offset 0\n"

    def test_unexpected_exception_has_its_own_code(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "round_trip_check", broken)
        code, out, err = run(capsys, "check", "-i", str(CORPUS / "dblog.yml"))
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("error: internal error: RuntimeError: boom\n")


def cli_generate_text(capsys, path) -> str:
    code = cli.main(["generate", "-i", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    return out


def test_reports_are_deterministic(capsys):
    first = []
    for _ in range(3):
        code, out, err = run(
            capsys, "check", "-i", str(CORPUS / "django_stack.yml"), "--report", "machine"
        )
        assert code == EXIT_OK
        first.append(out)
    assert first[0] == first[1] == first[2]


class TestColdProcess:
    """A CI gate starts dad as a fresh process and pays for every import."""

    def test_diff_of_two_scripts_imports_neither_yaml_nor_dataclasses(self, capsys, tmp_path):
        # nor the descriptor layer: two scripts never need compose or yaml_io,
        # nor the emitters, which only a command that writes a script loads
        left, right = tmp_path / "a.dac", tmp_path / "b.dac"
        lamp = str(CORPUS / "lamp.yml")
        assert cli.main(["generate", "-i", lamp, "-o", str(left)]) == EXIT_OK
        assert cli.main(["generate", "-i", lamp, "--group-by-role", "-o", str(right)]) == EXIT_OK
        assert left.read_text(encoding="utf-8") != right.read_text(encoding="utf-8")
        program = (
            "import sys\n"
            "from dad.cli import main\n"
            f"code = main(['diff', '-i', {str(left)!r}, '-i', {str(right)!r}])\n"
            "refused = ('yaml', 'dataclasses', 'dad.compose', 'dad.yaml_io', 'dad.dac_emit')\n"
            "loaded = [name for name in refused if name in sys.modules]\n"
            "sys.exit(f'imported {loaded}' if loaded else code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "verdict: Consistent" in proc.stdout

    def test_only_the_commands_that_write_a_script_load_the_emitters(self, tmp_path):
        # generate, and a descriptor's round trip, emit a script; pair check,
        # diff and invert of a script only read one
        descriptor, script = str(CORPUS / "dblog.yml"), str(tmp_path / "dblog.dac")
        assert cli.main(["generate", "-i", descriptor, "-o", script]) == EXIT_OK
        out = str(tmp_path / "out")
        emits = {
            ("check", "-i", script, "-i", descriptor): False,
            ("diff", "-i", script, "-i", descriptor): False,
            ("invert", "-i", script): False,
            ("generate", "-i", descriptor): True,
            ("check", "-i", descriptor): True,
        }
        for argv, loaded in emits.items():
            program = (
                "import sys\n"
                "from dad.cli import main\n"
                f"code = main({[*argv, '-o', out]!r})\n"
                "print(code, 'dad.dac_emit' in sys.modules)\n"
            )
            proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout) == (EXIT_OK, f"{EXIT_OK} {loaded}\n"), (argv, proc.stderr)

    def test_the_emitter_names_resolve_through_cli_to_their_module(self):
        # cli imports the emitters where generate calls them, and reads these
        # four names from dac_emit at each access
        for name in ("DEFAULT_ROLE_TABLE", "EmitOptions", "emit_dac", "emit_dot"):
            assert getattr(cli, name) is getattr(dac_emit, name), name
            assert name not in vars(cli)
        with pytest.raises(AttributeError, match="module 'dad.cli' has no attribute 'escape_quoted'"):
            cli.escape_quoted  # noqa: B018

    def test_import_dad_alone_loads_no_submodule(self):
        program = "import sys, dad\nprint(sorted(name for name in sys.modules if name.startswith('dad.')))\n"
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_OK, "[]\n"), proc.stderr

    def test_import_of_compose_loads_yaml_io_and_no_pyyaml(self):
        # compose binds yaml_io's load and dump at import, and yaml_io imports
        # PyYAML only for a document its own reader or writer leaves to it
        program = "import sys, dad.compose\nprint('dad.yaml_io' in sys.modules, 'yaml' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_OK, "True False\n"), proc.stderr

    def test_submodules_resolve_in_a_fresh_process(self):
        program = (
            "import dad\n"
            "print(dad.compose.__name__, dad.yaml_io.__name__, dad.cli.__name__)\n"
            "print(dad.ComposeSpec is dad.compose.ComposeSpec)\n"
        )
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "dad.compose dad.yaml_io dad.cli\nTrue\n"

    def test_check_of_a_descriptor_loads_yaml_on_demand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dad.cli", "check", "-i", str(CORPUS / "lamp.yml")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "verdict: Consistent" in proc.stdout

    def test_check_of_a_descriptor_loads_no_dataclasses_and_compiles_no_wide_class(self):
        # the wide printable classes cost ~10 ms to compile, and an ASCII
        # descriptor never needs them; nor does a block-style one need PyYAML
        program = (
            "import sys\n"
            "from dad.cli import main\n"
            f"code = main(['check', '-i', {str(CORPUS / 'dblog.yml')!r}])\n"
            "assert 'dad.yaml_io' in sys.modules and 'yaml' not in sys.modules\n"
            "from dad import yaml_io\n"
            "compiled = yaml_io._wide.cache_info().currsize\n"
            "loaded = 'dataclasses' in sys.modules\n"
            "sys.exit(f'dataclasses loaded: {loaded}, classes compiled: {compiled}' if loaded or compiled else code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "verdict: Consistent" in proc.stdout

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.yml")), ids=lambda path: path.stem)
    def test_generate_and_invert_of_a_corpus_file_import_no_yaml(self, tmp_path, path):
        # every corpus file takes the one-pass reader, and every descriptor
        # dad writes back from its diagram the one-pass writer
        script, back = tmp_path / "s.dac", tmp_path / "back.yml"
        program = (
            "import sys\n"
            "from dad.cli import main\n"
            f"codes = [main(['generate', '-i', {str(path)!r}, '-o', {str(script)!r}])]\n"
            "if codes[0] == 0:\n"
            f"    codes.append(main(['invert', '-i', {str(script)!r}, '-o', {str(back)!r}]))\n"
            "print(codes)\n"
            "sys.exit('yaml imported' if 'yaml' in sys.modules else 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == ("[2]" if path.stem == "cyclic" else "[0, 0]")

    # A document the one-pass reader declines (an anchor) or one with a date,
    # which PyYAML builds, still imports PyYAML, with the same output.
    CONVERSE = {
        "anchored": (
            "x-logging: &log {driver: json-file}\n"
            "services:\n  web:\n    image: nginx:1.25\n    logging: *log\n    depends_on:\n      - db\n"
            "  db:\n    image: postgres:15\n    logging: *log\n",
            "compared: left 2 nodes / 1 edges, right 2 nodes / 1 edges\n"
            "note: residue excluded from diagram: x-logging\n"
            "note: residue excluded from diagram: services.web.logging\n"
            "note: residue excluded from diagram: services.db.logging\n",
        ),
        "dated": (
            "services:\n  web:\n    image: nginx:1.25\n    labels:\n      released: 2024-01-15\n"
            "    depends_on:\n      - db\n  db:\n    image: postgres:15\nx-released: 2024-01-15\n",
            "compared: left 2 nodes / 1 edges, right 2 nodes / 1 edges\n"
            "note: residue excluded from diagram: services.web.labels\n"
            "note: residue excluded from diagram: x-released\n",
        ),
    }

    @pytest.mark.parametrize("name", CONVERSE)
    def test_a_document_past_the_one_pass_paths_imports_yaml(self, tmp_path, name):
        text, notes = self.CONVERSE[name]
        path = tmp_path / f"{name}.yml"
        path.write_text(text, encoding="utf-8")
        expected = {
            "check": "verdict: Consistent\n" + notes,
            "generate": (
                f'with DaC("{name}", direction="TB"):\n'
                '  with Cluster("web service"):\n    web = Server("web")  # image=nginx:1.25\n'
                '  with Cluster("db service"):\n    db = Server("db")  # image=postgres:15\n'
                "  web >> db\n"
            ),
        }
        for command, stdout in expected.items():
            program = (
                "import sys\n"
                "from dad.cli import main\n"
                f"code = main([{command!r}, '-i', {str(path)!r}])\n"
                "sys.exit(code if 'yaml' in sys.modules else 'yaml not imported')\n"
            )
            proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, stdout, ""), command

    def test_a_quoted_date_reads_and_writes_back_without_yaml(self):
        # PyYAML builds only a plain date; the writer quotes a date-like
        # string by its tag alone, without building the date
        program = (
            "import sys\n"
            "from dad import yaml_io\n"
            "text = \"k: '2001-12-14'\\n\"\n"
            "assert yaml_io.dump(yaml_io.load(text)) == text\n"
            "sys.exit('yaml imported' if 'yaml' in sys.modules else 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_diff_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        pair = perfbench_gen().drift_pair(random.Random(5), 60, 0.5)
        left, right = tmp_path / "old.dac", tmp_path / "new.dac"
        left.write_text(pair.old, encoding="utf-8")
        right.write_text(pair.new, encoding="utf-8")
        runs = []
        for seed in ("0", "1"):
            for report in ("text", "machine"):
                proc = subprocess.run(
                    [sys.executable, "-m", "dad.cli", "diff", "-i", str(left), "-i", str(right), "--report", report],
                    capture_output=True,
                    timeout=120,
                    env={**os.environ, "PYTHONHASHSEED": seed},
                )
                assert proc.returncode == EXIT_INCONSISTENT, proc.stderr
                runs.append(proc.stdout)
        assert len(runs[1].splitlines()) > 10
        assert runs[:2] == runs[2:]


# A name holding a character str.splitlines breaks at: "\r" as a DaC string
# escape, U+2028 as it is (universal newlines leave it alone when reading).
LINE_BREAKING_NAMES = {"CR": ("a\\rb", "\r"), "LS": ("a\u2028b", "\u2028")}


@pytest.mark.parametrize("name,char", LINE_BREAKING_NAMES.values(), ids=LINE_BREAKING_NAMES.keys())
def test_machine_report_keeps_a_line_breaking_name_on_one_line(capsys, tmp_path, name, char):
    script = 'with DaC("t", direction="TB"):\n  with Cluster("web service"):\n    web = Server("web")  # image=nginx\n'
    left, right = tmp_path / "left.dac", tmp_path / "right.dac"
    left.write_text(script, encoding="utf-8")
    right.write_text(
        script + f'  with Cluster("x service"):\n    x = Server("{name}")  # image=nginx\n', encoding="utf-8"
    )
    code, out, err = run(capsys, "diff", "-i", str(left), "-i", str(right), "--report", "machine")
    assert code == EXIT_INCONSISTENT, err
    assert out.splitlines() == [
        "verdict\tInconsistent",
        "stats\t1\t0\t2\t0",
        "ExtraNode\tservices.a b\t\timage=nginx",
    ]

    # the batch header of a file whose name holds the character
    odd = tmp_path / f"a{char}b.yml"
    odd.write_text((CORPUS / "lamp.yml").read_text(encoding="utf-8"), encoding="utf-8")
    code, out, err = run(
        capsys, "check", "-i", str(odd), "-i", str(CORPUS / "elk.yml"), "--report", "machine"
    )
    assert code == EXIT_OK, err
    lines = out.splitlines()
    assert f"file\t{tmp_path / 'a b.yml'}" in lines
    assert f"file\t{CORPUS / 'elk.yml'}" in lines
    assert sum(line.startswith("verdict\t") for line in lines) == 2


@pytest.mark.parametrize("char", ["\n", "\t", "\u2028"], ids=["LF", "TAB", "LS"])
def test_text_report_and_stderr_keep_a_line_breaking_name_on_one_line(capsys, tmp_path, char):
    name, flat = f"a{char}b", "a b"
    # a JSON string is a YAML double-quoted scalar, with the character escaped
    dangling = tmp_path / "dangling.yml"
    dangling.write_text(
        f"services: {{{json.dumps(name)}: {{image: x, depends_on: [ghost]}}}}\n", encoding="utf-8"
    )
    issue = f"DanglingReference(services.{flat}.depends_on -> ghost): references undeclared service 'ghost'"
    code, out, err = run(capsys, "generate", "-i", str(dangling), "--strict")
    assert code == EXIT_INVALID
    assert out == ""
    assert err.splitlines() == [f"error: {issue}", f"error: LoweringError: {issue}"]
    code, out, err = run(capsys, "check", "-i", str(dangling), "--strict")
    assert code == EXIT_INVALID
    assert out.splitlines() == ["verdict: Invalid", f"error: {issue}"]

    # subjects, details and notes of the text report, and a batch header
    left, right = tmp_path / "left.yml", tmp_path / f"right{char}.yml"
    left.write_text("services:\n  web:\n    image: nginx\n", encoding="utf-8")
    right.write_text(
        f"services:\n  web:\n    image: nginx\n  {json.dumps(name)}:\n    image: {json.dumps(name)}\n"
        f"{json.dumps(name)}: 1\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "diff", "-i", str(left), "-i", str(right))
    assert code == EXIT_INCONSISTENT, err
    assert out.splitlines() == [
        "verdict: Inconsistent",
        "compared: left 1 nodes / 0 edges, right 2 nodes / 0 edges",
        "issues (1):",
        f"  ExtraNode services.{flat} (right: image={flat})",
        f"note: residue excluded from diagram: {tmp_path / 'right '}.yml: {flat}",
    ]
    code, out, err = run(capsys, "check", "-i", str(left), "-i", str(right))
    assert code == EXIT_OK, err
    assert f"== {tmp_path / 'right '}.yml" in out.splitlines()
    assert f"note: residue excluded from diagram: {flat}" in out.splitlines()


# Every residue path `dad check` notes for the corpus, in the order it prints
# them, with why the diagram leaves the value out: configuration, part of the
# architecture the diagram does not draw yet, or the title (a top-level name,
# which the diagram does draw as its title, yet is listed as residue).
CONFIGURATION, UNDRAWN, TITLE = "configuration", "architecture not drawn yet", "title"
RESIDUE_CENSUS = [
    ("dblog.yml", "name", TITLE),
    ("django_stack.yml", "version", CONFIGURATION),
    ("django_stack.yml", "services.web.command", CONFIGURATION),
    ("django_stack.yml", "services.web.ports", UNDRAWN),
    ("django_stack.yml", "services.web.environment", CONFIGURATION),
    ("django_stack.yml", "services.worker.command", CONFIGURATION),
    ("django_stack.yml", "services.postgres.environment", CONFIGURATION),
    ("elk.yml", "services.elasticsearch.environment", CONFIGURATION),
    ("elk.yml", "services.logstash.ports", UNDRAWN),
    ("elk.yml", "services.kibana.ports", UNDRAWN),
    ("flask_nginx.yml", "services.nginx.ports", UNDRAWN),
    ("flask_nginx.yml", "services.api.environment", CONFIGURATION),
    ("flask_nginx.yml", "services.db.environment", CONFIGURATION),
    ("kafka_stack.yml", "services.zookeeper.environment", CONFIGURATION),
    ("kafka_stack.yml", "services.kafka.environment", CONFIGURATION),
    ("kafka_stack.yml", "services.schema_registry.ports", UNDRAWN),
    ("lamp.yml", "services.apache.ports", UNDRAWN),
    ("lamp.yml", "services.php.links.0", UNDRAWN),
    ("lamp.yml", "services.mysql.environment", CONFIGURATION),
    ("lamp.yml", "services.phpmyadmin.ports", UNDRAWN),
    ("monitoring.yml", "services.prometheus.ports", UNDRAWN),
    ("monitoring.yml", "services.grafana.ports", UNDRAWN),
    ("monitoring.yml", "services.grafana.environment", CONFIGURATION),
    ("monitoring.yml", "services.alertmanager.ports", UNDRAWN),
    ("node_mongo.yml", "version", CONFIGURATION),
    ("node_mongo.yml", "services.web.ports", UNDRAWN),
    ("node_mongo.yml", "services.web.environment", CONFIGURATION),
    ("node_mongo.yml", "services.web.restart", CONFIGURATION),
    ("node_mongo.yml", "services.mongo_express.ports", UNDRAWN),
    ("node_mongo.yml", "networks.appnet.driver", UNDRAWN),
    ("proxy_stack.yml", "name", TITLE),
    ("proxy_stack.yml", "services.traefik.ports", UNDRAWN),
    ("rails_stack.yml", "services.app.ports", UNDRAWN),
    ("rails_stack.yml", "services.app.environment", CONFIGURATION),
    ("rails_stack.yml", "services.sidekiq.command", CONFIGURATION),
    ("rails_stack.yml", "services.postgres.environment", CONFIGURATION),
    ("rails_stack.yml", "networks.backend.internal", UNDRAWN),
    ("wordpress.yml", "version", CONFIGURATION),
    ("wordpress.yml", "services.wordpress.ports", UNDRAWN),
    ("wordpress.yml", "services.wordpress.environment", CONFIGURATION),
    ("wordpress.yml", "services.db.environment", CONFIGURATION),
]


def test_residue_census_of_the_corpus(capsys):
    noted = []
    for path in sorted(CORPUS.glob("*.yml")):
        code, out, err = run(capsys, "check", "-i", str(path), "--report", "machine")
        assert code in (EXIT_OK, EXIT_INVALID), err  # cyclic.yml is Invalid and has no notes
        prefix = "note\tresidue excluded from diagram: "
        noted += [(path.name, line[len(prefix) :]) for line in out.splitlines() if line.startswith("note\t")]
    # a path missing from the table is one nobody has classified yet
    assert noted == [(name, residue) for name, residue, _ in RESIDUE_CENSUS]
    by_field = collections.Counter((kind, residue.split(".")[-1]) for _, residue, kind in RESIDUE_CENSUS)
    assert by_field == {
        (CONFIGURATION, "environment"): 14,
        (CONFIGURATION, "command"): 3,
        (CONFIGURATION, "version"): 3,
        (CONFIGURATION, "restart"): 1,
        (UNDRAWN, "ports"): 15,
        (UNDRAWN, "0"): 1,  # the link alias mysql:db
        (UNDRAWN, "driver"): 1,
        (UNDRAWN, "internal"): 1,
        (TITLE, "name"): 2,
    }


# Descriptor text drawn to trip the YAML readers and the checks behind them:
# YAML indicators, quotes, "#", ":", "=", ",", "%" and "\" in names and values,
# plain texts that read as other types or as merge and value keys, non-ASCII
# text, U+0085 and the empty text. A document is nested dicts and lists whose
# leaves, keys included, are (text, style) scalars.
ADVERSARIAL_ALPHABET = "ab1 -?:,[]{}#&*!|>'\"%@`=\\/.é字\x85"
LOOKALIKES = ["true", "null", "~", "0x1F", "2001-12-14", "1.5", "<<", "=", "", "yes", "-", "a: b", "x #y"]
adversarial_text = st.sampled_from(LOOKALIKES) | st.text(ADVERSARIAL_ALPHABET, max_size=6)
# quoted four times in five, so about half the drawn documents parse
adversarial_scalar = st.tuples(adversarial_text, st.sampled_from(["double", "single", "double", "single", "plain"]))


def plain(text: str) -> tuple[str, str]:
    return (text, "plain")


@st.composite
def adversarial_documents(draw) -> dict:
    names = draw(st.lists(adversarial_scalar, min_size=1, max_size=3))
    services = {}
    for name in names:
        body = {plain("image"): draw(adversarial_scalar)}
        if draw(st.booleans()):  # mostly the other services, so many dependencies are valid
            body[plain("depends_on")] = draw(st.lists(st.sampled_from(names) | adversarial_scalar, max_size=2))
        if draw(st.booleans()):
            body[plain("volumes")] = [(f"data:/{draw(adversarial_text)}", draw(st.sampled_from(["single", "double"])))]
        if draw(st.booleans()):
            body[plain("environment")] = draw(st.dictionaries(adversarial_scalar, adversarial_scalar, max_size=2))
        if draw(st.booleans()):
            body[plain("ports")] = draw(st.lists(adversarial_scalar, max_size=2))
        services[name] = body
    doc = {plain("services"): services, plain("volumes"): {plain("data"): {}}}
    if draw(st.booleans()):
        doc[draw(adversarial_scalar)] = draw(adversarial_scalar)
    return doc


def write_scalar(scalar: tuple[str, str]) -> str:
    text, style = scalar
    if style == "single":
        return "'" + text.replace("'", "''") + "'"
    if style == "double":  # a JSON string is a YAML double-quoted scalar
        return json.dumps(text, ensure_ascii=False)
    return text


def write_block(mapping: dict, indent: str = "") -> str:
    lines = []
    for key, value in mapping.items():
        head = f"{indent}{write_scalar(key)}:"
        if isinstance(value, tuple):
            lines.append(f"{head} {write_scalar(value)}\n")
        elif not value:
            lines.append(f"{head} {{}}\n" if isinstance(value, dict) else f"{head} []\n")
        elif isinstance(value, dict):
            lines.append(f"{head}\n{write_block(value, indent + '  ')}")
        else:
            lines.append(head + "\n" + "".join(f"{indent}  - {write_scalar(item)}\n" for item in value))
    return "".join(lines)


def write_flow(value) -> str:
    if isinstance(value, tuple):
        return write_scalar(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{write_flow(key)}: {write_flow(item)}" for key, item in value.items()) + "}"
    return "[" + ", ".join(write_flow(item) for item in value) + "]"


def quiet_main(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(doc=adversarial_documents())
def test_adversarial_descriptor_text(doc):
    with tempfile.TemporaryDirectory() as tmp:
        # block style takes the one-pass reader where it can, flow style the event path
        for style, text in (("block", write_block(doc)), ("flow", write_flow(doc) + "\n")):
            # both read paths type every scalar alike
            read = yaml_io._read(text)
            if read is not None:
                assert repr(yaml_io._load_events(text)) == repr(read), text
            path = Path(tmp, f"{style}.yml")
            path.write_text(text, encoding="utf-8")
            code, _ = quiet_main("check", "-i", str(path))
            assert code in (EXIT_OK, EXIT_INVALID), text
            code, _ = quiet_main("generate", "-i", str(path))
            assert code in (EXIT_OK, EXIT_INVALID), text
            try:
                load_model(text, strict=True)
            except DadError:
                pass
            else:  # strict-valid: the strict round trip is Consistent
                code, out = quiet_main("check", "-i", str(path), "--strict", "--report", "machine")
                assert (code, out.splitlines()[0]) == (EXIT_OK, "verdict\tConsistent"), text
            try:
                spec = parse_compose(text)
            except DadError:
                continue
            written = serialize_compose(spec)
            again = parse_compose(written)
            assert again == spec, text
            assert serialize_compose(again) == written, text


def test_dot_keywords_as_names_are_quoted_ids(capsys):
    # proxy_stack's network is named "edge", a DOT keyword in any case
    code, out, err = run(capsys, "generate", "--format", "dot", "-i", str(CORPUS / "proxy_stack.yml"))
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert '  "edge" [shape=diamond, label="edge"];' in lines
    assert '  traefik -> "edge" [dir=none, style=dotted];' in lines
    assert not any(line.startswith(("  edge ", "  edge[")) for line in lines)
    # one line per node holds "[shape=", one per edge " -> "
    model, _, _ = load_model((CORPUS / "proxy_stack.yml").read_text(encoding="utf-8"))
    nodes = len(model.services) + len(model.volumes) + len(model.networks)
    assert sum("[shape=" in line for line in lines) == nodes
    assert sum(" -> " in line for line in lines) == len(model.edges)
    # the script keeps the bare identifier
    code, out, _ = run(capsys, "generate", "-i", str(CORPUS / "proxy_stack.yml"))
    assert '    edge = Network("edge")' in out.splitlines()


# One value per retained attribute; a service holds an image or a build, not both.
ATTR_VALUES = {
    "image": "img:1",
    "build_context": "./ctx",
    "build_dockerfile": "Dockerfile.dev",
    "container_name": "svc_main",
}


@pytest.mark.parametrize(
    "keys",
    [
        ("image",),
        ("build_context",),
        ("build_context", "build_dockerfile"),
        ("container_name",),
        ("image", "container_name"),
        ("build_context", "build_dockerfile", "container_name"),
    ],
)
def test_each_attribute_is_one_annotation_and_one_diff_subject(capsys, tmp_path, keys):
    attrs = {key: ATTR_VALUES[key] for key in keys}
    build = None
    if "build_context" in attrs:
        build = BuildRef(attrs["build_context"], attrs.get("build_dockerfile"))
    service = ServiceNode("svc", attrs.get("image"), build, attrs.get("container_name"))
    model = ArchModel("attrs", (service, ServiceNode("other", "x")))
    script = emit_dac(model).text
    # the annotations are the model's keys, in its order
    annotations = ",".join(f"{key}={attrs[key]}" for key in _SERVICE_ATTRS if key in attrs)
    assert f'    svc = Server("svc")  # {annotations}' in script.splitlines()
    assert lift(parse_dac(script)) == model

    original = tmp_path / "original.dac"
    original.write_text(script, encoding="utf-8")
    for key in keys:
        annotation = f"{key}={attrs[key]}"
        assert script.count(annotation) == 1
        edited = tmp_path / f"{key}.dac"
        edited.write_text(script.replace(annotation, f"{annotation}2"), encoding="utf-8")
        code, out, _ = run(capsys, "diff", "-i", str(original), "-i", str(edited), "--report", "machine")
        assert code == EXIT_INCONSISTENT
        issues = [line for line in out.splitlines() if line.split("\t")[0] not in ("verdict", "stats")]
        assert issues == [f"AttributeMismatch\tservices.svc.{key}\t{attrs[key]}\t{attrs[key]}2"]


# Text that a label, title, annotation value or mount target must carry
# through a script: the script's and DOT's own syntax characters, control
# characters, line breaks str.splitlines knows and non-ASCII text.
LABEL_PIECES = (
    '"', "\\", "%", ",", "#", "=", ":", " ", "-", "_", "  # k=v", "\n", "\r", "\t", "\x00",
    "\x1f", "\x7f", "\x85", "\u2028", "é", "中", "a", "B", "7",
)
DOT_KEYWORDS = ("node", "edge", "graph", "digraph", "subgraph", "strict")


@st.composite
def any_case(draw, word: str) -> str:
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(ch.upper() if up else ch for ch, up in zip(word, upper))


# DOT keywords in any case, the script's "pass", and names that sanitize to one base
LABELS = (
    st.sampled_from(DOT_KEYWORDS).flatmap(any_case)
    | st.sampled_from(("pass", "a b", "a-b", "A_B"))
    | st.lists(st.sampled_from(LABEL_PIECES), min_size=1, max_size=5).map("".join)
)


@st.composite
def labelled_models(draw) -> ArchModel:
    names = draw(st.lists(LABELS, min_size=1, max_size=6, unique=True))
    # some volumes and networks share a service's name
    volumes = draw(st.lists(LABELS | st.sampled_from(names), max_size=4, unique=True))
    networks = draw(st.lists(LABELS | st.sampled_from(names), max_size=3, unique=True))
    services = st.sampled_from(names)
    edges = [
        # a dependency points at an earlier service, so there is no cycle
        Edge(EdgeKind.DEPENDENCY, src, dst)
        for src, dst in draw(st.lists(st.tuples(services, services), max_size=4))
        if names.index(dst) < names.index(src)
    ]
    for src, dst in draw(st.lists(st.tuples(services, services), max_size=2)):
        edges.append(Edge(EdgeKind.LINK, src, dst))
    if volumes:
        mounts = st.lists(st.tuples(services, st.sampled_from(volumes)), max_size=4, unique=True)
        for src, dst in draw(mounts):
            edges.append(Edge(EdgeKind.MOUNT, src, dst, draw(st.none() | LABELS)))
    if networks:
        for src, dst in draw(st.lists(st.tuples(services, st.sampled_from(networks)), max_size=3)):
            edges.append(Edge(EdgeKind.ATTACHMENT, src, dst))
    attrs = st.none() | LABELS
    return ArchModel(
        title=draw(st.lists(st.sampled_from(LABEL_PIECES), max_size=5).map("".join)),
        services=tuple(ServiceNode(name, draw(attrs), None, draw(attrs)) for name in names),
        volumes=tuple(map(VolumeNode, volumes)),
        networks=tuple(map(NetworkNode, networks)),
        edges=tuple(draw(st.permutations(edges))),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=labelled_models())
def test_labels_titles_and_identifiers_survive_both_diagram_forms(model):
    script = emit_dac(model).text
    assert lift(parse_dac(script)) == model  # the title included

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "model.dac")
        path.write_text(script, encoding="utf-8")
        code, out = quiet_main("diff", "-i", str(path), "-i", str(path), "--report", "machine")
    assert (code, out.split("\n")[0]) == (EXIT_OK, "verdict\tConsistent"), script

    # after the two header lines, one line per node, "  <id> [shape=...",
    # then one per edge, "  <id> -> <id>..."; U+2028 in a label is no line end
    dot = emit_dot(model).split("\n")
    nodes = len(model.services) + len(model.volumes) + len(model.networks)
    dot_id = r'([a-z_][a-z0-9_]*|"[a-z]+")'
    ids = [re.match(rf"  {dot_id} \[shape=", line).group(1) for line in dot[2 : 2 + nodes]]
    assert len(set(ids)) == nodes
    assert not set(ids) & set(DOT_KEYWORDS)
    assert dot[2 + nodes + len(model.edges) :] == ["}", ""]
    for line in dot[2 + nodes : -2]:
        assert set(re.match(rf"  {dot_id} -> {dot_id}[ ;]", line).groups()) <= set(ids)


# Identifiers a drawn script declares from, and two it never declares
SCRIPT_IDENTS = ("a", "b", "c", "d", "e", "f")
SCRIPT_UNDECLARED = ("u", "w")
SCRIPT_ATTR_VALUES = st.sampled_from(("x", "", "example/api:1", "./app", "Dockerfile.dev"))
# every subset of a service's attributes, and the ones a service can hold
SCRIPT_ATTR_SETS = [
    keys
    for size in range(len(_SERVICE_ATTRS) + 1)
    for keys in itertools.combinations(_SERVICE_ATTRS, size)
]
HELD_SCRIPT_ATTR_SETS = [
    keys
    for keys in SCRIPT_ATTR_SETS
    if not ("image" in keys and "build_context" in keys)
    and ("build_context" in keys or "build_dockerfile" not in keys)
]
SCRIPT_MOUNT_TARGETS = st.sampled_from(("", "/data", "/a:b", "/srv", None))


def script_annotation(pairs) -> str:
    return "  # " + ",".join(f"{key}={value}" for key, value in pairs) if pairs else ""


@st.composite
def h2_scripts(draw) -> str:
    """Script text in the shapes the diagram-first path must hold.

    TB or LR; clusters of one to three nodes in any order, some after edge
    lines; every set of service attributes; phantoms with and without
    attributes or an incoming edge; repeated and self edges of both
    operators; undeclared identifiers; mounts with a target, ``''``
    included, or none. Most draws are scripts lift takes; a few break one
    of its rules.
    """
    idents = draw(st.lists(st.sampled_from(SCRIPT_IDENTS), min_size=2, max_size=6, unique=True))
    # an undeclared identifier is a phantom service
    kinds = dict.fromkeys(SCRIPT_UNDECLARED, "Server")
    nodes = []
    for ident in idents:
        kind = kinds[ident] = draw(st.sampled_from(("Server", "Server", "Storage", "Network")))
        pairs = []
        if kind == "Server":
            sets = SCRIPT_ATTR_SETS if draw(st.integers(0, 19)) == 0 else HELD_SCRIPT_ATTR_SETS
            pairs = [(key, draw(SCRIPT_ATTR_VALUES)) for key in draw(st.sampled_from(sets))]
        if draw(st.integers(0, 2)) == 0:
            pairs.append(("phantom", "true"))
        nodes.append(f'    {ident} = {kind}("{ident}"){script_annotation(draw(st.permutations(pairs)))}\n')
    clusters = []
    while nodes:
        size = draw(st.integers(1, 3))
        clusters.append(f'  with Cluster("c{len(clusters)}"):\n' + "".join(nodes[:size]))
        del nodes[:size]

    services = [ident for ident, kind in kinds.items() if kind == "Server"]
    endpoints = st.sampled_from(list(kinds))
    edges = []
    for src, dst in draw(st.lists(st.tuples(endpoints, endpoints), max_size=10)):
        stray = draw(st.integers(0, 39)) == 0  # an operator or a target the ends refuse
        if kinds[src] != "Server" and kinds[dst] != "Server" and not stray:
            src = draw(st.sampled_from(services))
        ends = {kinds[src], kinds[dst]}
        if stray:
            op = draw(st.sampled_from((">>", "-")))
        else:
            op = ">>" if ends == {"Server"} and draw(st.booleans()) else "-"
        mount = op == "-" and ends == {"Server", "Storage"}
        target = draw(SCRIPT_MOUNT_TARGETS) if mount or stray else None
        pairs = [] if target is None else [("target", target)]
        edges.append(f"  {src} {op} {dst}{script_annotation(pairs)}\n")
        if draw(st.integers(0, 7)) == 0:  # repeated
            edges.append(edges[-1])
    # each cluster goes in before the edge line at a drawn place, or last
    body = list(edges)
    for cluster in reversed(clusters):
        body.insert(draw(st.integers(0, len(body))), cluster)
    direction = draw(st.sampled_from(("TB", "LR")))
    return f'with DaC("h2", direction="{direction}"):\n' + "".join(body)


def test_lifted_scripts_hold_hypothesis_2():
    # script -> model -> descriptor -> model -> script -> model gives the
    # first model back, for every script lift takes whose mounts carry a
    # target; a sample also goes through dad invert, then dad diff
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=h2_scripts(), via_cli=st.integers(0, 4))
    def check(text, via_cli):
        try:
            model = lift(parse_dac(text, strict=False))
        except DadError:
            seen["refused"] += 1
            return
        try:
            descriptor = emit_compose(model)
        except EmitError:
            assert any(edge.kind is EdgeKind.MOUNT and edge.target is None for edge in model.edges)
            seen["mount without a target"] += 1
            return
        seen["held"] += 1
        again = lift(parse_dac(emit_dac(load_model(descriptor)[0]).text))
        assert model_equal(again, model), (text, descriptor)
        if via_cli == 0:
            with tempfile.TemporaryDirectory() as tmp:
                script, back = Path(tmp, "s.dac"), Path(tmp, "back.yml")
                script.write_text(text, encoding="utf-8")
                assert quiet_main("invert", "-i", str(script), "-o", str(back))[0] == EXIT_OK
                code, out = quiet_main("diff", "-i", str(script), "-i", str(back))
            assert code == EXIT_OK, (text, out)

    check()
    # the property is about scripts lift takes: most of the draws must be such
    assert seen["held"] > 0.3 * sum(seen.values()), seen


# labels a descriptor must quote, or cannot hold as a mounted volume or a link target
ADVERSARIAL_LABELS = ("my vol", ".v", "/host", "~", "vé", "b:c", "a b", "null", "1", "-x", "a#b")


@st.composite
def labelled_h2_scripts(draw) -> str:
    """``h2_scripts`` plus one link between declared services, with each
    declared node labelled from ``ADVERSARIAL_LABELS`` or by its identifier;
    two nodes of one kind may draw one label, which lift refuses."""
    text = draw(h2_scripts())
    servers = re.findall(r"^    (\w) = Server\(", text, re.M)
    if servers:
        text += f"  {draw(st.sampled_from(servers))} - {draw(st.sampled_from(servers))}\n"
    for ident in SCRIPT_IDENTS:
        label = escape_quoted(draw(st.sampled_from((ident, *ADVERSARIAL_LABELS))))
        text = re.sub(rf'( {ident} = \w+\()"{ident}"\)', lambda m: f'{m[1]}"{label}")', text)
    return text


# why no descriptor holds an edge, and what the refusal then says: a mount
# without a target, a mount of a volume a descriptor reads as a host path, a
# link to a name it reads as a service and an alias
UNHELD_REASONS = {
    "mount without a target": "has no target path",
    "unmountable volume name": "as a host path",
    "link target holding ':'": "as an alias",
}


def unheld_edges(model: ArchModel) -> set[str]:
    """The ``UNHELD_REASONS`` the model's edges show."""
    no_target, unmountable, aliased = UNHELD_REASONS
    reasons = set()
    for kind, _, dst, target in model.edges:
        if kind is EdgeKind.MOUNT and target is None:
            reasons.add(no_target)
        if kind is EdgeKind.MOUNT and not _NAMED_VOLUME_RE.fullmatch(dst):
            reasons.add(unmountable)
        if kind is EdgeKind.LINK and ":" in dst:
            reasons.add(aliased)
    return reasons


def test_lifted_scripts_with_any_label_hold_hypothesis_2():
    # every script lift takes either inverts to a descriptor that reads back
    # as its model, or is refused for an edge no descriptor holds; a sample
    # also goes through dad invert, then dad diff
    seen = collections.Counter()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(text=labelled_h2_scripts(), via_cli=st.integers(0, 4))
    def check(text, via_cli):
        try:
            model = lift(parse_dac(text, strict=False))
        except DadError:
            seen["refused"] += 1
            return
        unheld = unheld_edges(model)
        if unheld:
            with pytest.raises(EmitError) as refusal:
                emit_compose(model)
            if len(unheld) == 1:
                reason = next(iter(unheld))
                assert UNHELD_REASONS[reason] in str(refusal.value), (text, reason)
                seen[f"only {reason}"] += 1
        else:
            descriptor = emit_compose(model)
            assert model_equal(load_model(descriptor)[0], model), (text, descriptor)
            seen["held"] += 1
        if via_cli == 0:
            with tempfile.TemporaryDirectory() as tmp:
                script, back = Path(tmp, "s.dac"), Path(tmp, "back.yml")
                script.write_text(text, encoding="utf-8")
                code = quiet_main("invert", "-i", str(script), "-o", str(back))[0]
                assert code == (EXIT_INVALID if unheld else EXIT_OK), text
                if not unheld:
                    code, out = quiet_main("diff", "-i", str(script), "-i", str(back))
                    assert code == EXIT_OK, (text, out)

    check()
    assert seen["held"] > 0.3 * sum(seen.values()), seen
    # each refusal is drawn as the only reason a script cannot be held
    assert all(seen[f"only {reason}"] for reason in UNHELD_REASONS), seen
