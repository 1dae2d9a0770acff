"""End-to-end tests for the command line interface.

Every test drives ``cli.main`` in process and asserts on exit codes and
captured streams, so the exit-code contract (0 consistent, 1 inconsistent,
2 invalid, 3 I/O, 4 internal error) is pinned exactly where CI scripts would
observe it. Two tests also run ``dad check`` as a subprocess, to see that it
ends by its exit code and not by a signal or a traceback, and
``TestColdProcess`` checks what a fresh ``dad`` process imports.
"""

import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from dad import cli
from dad.compose import lower, parse_compose
from dad.model import model_equal

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
        assert "DanglingReference" in out
        assert "postgres" in out

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

    def test_three_inputs_rejected(self, capsys):
        path = str(CORPUS / "elk.yml")
        code, out, err = run(capsys, "diff", "-i", path, "-i", path, "-i", path)
        assert code == EXIT_INVALID
        assert "exactly two" in err


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
        left, right = tmp_path / "a.dac", tmp_path / "b.dac"
        lamp = str(CORPUS / "lamp.yml")
        assert cli.main(["generate", "-i", lamp, "-o", str(left)]) == EXIT_OK
        assert cli.main(["generate", "-i", lamp, "--group-by-role", "-o", str(right)]) == EXIT_OK
        assert left.read_text(encoding="utf-8") != right.read_text(encoding="utf-8")
        program = (
            "import sys\n"
            "from dad.cli import main\n"
            f"code = main(['diff', '-i', {str(left)!r}, '-i', {str(right)!r}])\n"
            "loaded = [name for name in ('yaml', 'dataclasses') if name in sys.modules]\n"
            "sys.exit(f'imported {loaded}' if loaded else code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "verdict: Consistent" in proc.stdout

    def test_check_of_a_descriptor_loads_yaml_on_demand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dad.cli", "check", "-i", str(CORPUS / "lamp.yml")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "verdict: Consistent" in proc.stdout
