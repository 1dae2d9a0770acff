"""Command-line interface: generate, invert, check, diff.

Exit codes are a CI-friendly contract:
  0  success / Consistent
  1  Inconsistent
  2  invalid input (parse, schema, validation, usage, not UTF-8)
  3  I/O failure (unreadable input, unwritable output)
  4  internal error (an unexpected exception; the traceback goes to stderr)

With --group-by-role, and only then, the environment variable DAD_ROLE_TABLE
may point at a file with one ``substring=role`` pair per line (blank lines,
``#`` comments and a leading byte order mark ignored); it replaces the builtin
image-to-role table.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .consistency import (
    Verdict,
    _clean,
    _residue_notes,
    check_diagram_against_descriptor,
    compare_models,
    render_report,
    round_trip_check,
)
from .dac_ingest import emit_compose, lift, parse_dac
from .errors import DadError, LoweringError

_EXIT_BY_VERDICT = {Verdict.CONSISTENT: 0, Verdict.INCONSISTENT: 1, Verdict.INVALID: 2}


# generate loads the emitters when it runs; their names resolve here at each access (PEP 562)
def __getattr__(name: str):
    if name in ("DEFAULT_ROLE_TABLE", "EmitOptions", "emit_dac", "emit_dot"):
        from . import dac_emit

        return getattr(dac_emit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dad",
        description="Transform system descriptors into diagram scripts and back, "
        "and verify that the two stay consistent.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    report = dict(
        choices=("text", "machine"), default="text", help="text, or machine: tab separated lines"
    )

    def add_common(p: argparse.ArgumentParser, inputs_help: str) -> None:
        p.add_argument(
            "-i",
            "--input",
            action="append",
            required=True,
            type=Path,
            metavar="PATH",
            help=inputs_help,
        )
        p.add_argument(
            "-o",
            "--output",
            type=Path,
            metavar="PATH",
            help="write result here instead of stdout",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat a descriptor's dangling references and conflicting or missing sources "
            "(image and build, or neither) as errors, and refuse a script's undeclared identifiers",
        )

    p_gen = sub.add_parser("generate", help="descriptor -> diagram script or DOT")
    add_common(p_gen, "descriptor file (exactly one)")
    p_gen.add_argument(
        "--format", choices=("dac", "dot"), default="dac", help="a DaC script or a Graphviz digraph"
    )
    p_gen.add_argument(
        "--group-by-role",
        action="store_true",
        help="order services by their image role's name (database, gateway, messaging, service)",
    )
    p_gen.set_defaults(func=cmd_generate)

    p_inv = sub.add_parser("invert", help="diagram script -> descriptor")
    add_common(p_inv, "diagram script file (exactly one)")
    p_inv.set_defaults(func=cmd_invert)

    p_check = sub.add_parser(
        "check",
        help="verify consistency: one descriptor round-trips, or a script/descriptor pair agrees",
    )
    add_common(p_check, "descriptor file(s), or one descriptor plus one .dac script")
    p_check.add_argument("--report", **report)
    p_check.set_defaults(func=cmd_check)

    p_diff = sub.add_parser("diff", help="structural diff of two inputs (descriptor or script)")
    add_common(p_diff, "input file (give exactly two)")
    p_diff.add_argument("--report", **report)
    p_diff.add_argument(
        "--left-format",
        choices=("compose", "dac"),
        help="override detection by extension for the first input",
    )
    p_diff.add_argument(
        "--right-format",
        choices=("compose", "dac"),
        help="override detection by extension for the second input",
    )
    p_diff.set_defaults(func=cmd_diff)
    return parser


def _load_role_table(path: str) -> tuple[tuple[str, str], ...]:
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(_read_text(Path(path)).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        substring, eq, role = line.partition("=")
        substring, role = substring.strip(), role.strip()
        if not eq or not substring or not role:
            raise DadError(f"role table {path} line {lineno}: expected substring=role")
        pairs.append((substring, role))
    return tuple(pairs)


def _read_text(path: Path) -> str:
    # an editor may save any input with a byte order mark, which is not part of its text
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DadError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from exc


def _write_output(output: Path | None, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _print_issues(issues) -> None:
    for issue in issues:
        print(_clean(str(issue)), file=sys.stderr)


def _is_dac_path(path: Path) -> bool:
    return path.suffix.lower() == ".dac"


def _single_input(args, parser_hint: str) -> Path:
    if len(args.input) != 1:
        raise DadError(f"{parser_hint} requires exactly one --input, got {len(args.input)}")
    return args.input[0]


def _descriptor_model(text: str, path: Path, strict: bool):
    """One descriptor through ``compose.load_model``, issues to stderr; returns (model, spec)."""
    from . import compose

    try:
        model, spec, issues = compose.load_model(text, strict, fallback_title=path.stem)
    except LoweringError as exc:
        _print_issues(exc.issues)
        raise
    _print_issues(issues)
    return model, spec


def cmd_generate(args) -> int:
    from .dac_emit import DEFAULT_ROLE_TABLE, EmitOptions, emit_dac, emit_dot

    path = _single_input(args, "generate")
    model, _ = _descriptor_model(_read_text(path), path, args.strict)
    # the table only orders grouped services: a plain generate never reads it
    table_path = os.environ.get("DAD_ROLE_TABLE") if args.group_by_role else None
    table = _load_role_table(table_path) if table_path else DEFAULT_ROLE_TABLE
    opts = EmitOptions(group_by_role=args.group_by_role, role_table=table)
    if args.format == "dot":
        _write_output(args.output, emit_dot(model, opts))
    else:
        _write_output(args.output, emit_dac(model, opts).text)
    return 0


def cmd_invert(args) -> int:
    path = _single_input(args, "invert")
    ast = parse_dac(_read_text(path), strict=args.strict)
    _write_output(args.output, emit_compose(lift(ast)))
    return 0


def cmd_check(args) -> int:
    paths: list[Path] = args.input
    dac_paths = [p for p in paths if _is_dac_path(p)]
    if dac_paths:
        if len(paths) != 2 or len(dac_paths) != 1:
            raise DadError(
                "pair mode check takes exactly one .dac script and one descriptor"
            )
        descriptor = next(p for p in paths if not _is_dac_path(p))
        report = check_diagram_against_descriptor(
            _read_text(dac_paths[0]),
            _read_text(descriptor),
            strict=args.strict,
        )
        _write_output(args.output, render_report(report, args.report))
        return _EXIT_BY_VERDICT[report.verdict]

    blocks: list[str] = []
    worst = 0
    for path in paths:
        report = round_trip_check(_read_text(path), strict=args.strict)
        rendered = render_report(report, args.report)
        if len(paths) > 1:
            name = _clean(str(path))
            rendered = (f"== {name}\n" if args.report == "text" else f"file\t{name}\n") + rendered
        blocks.append(rendered)
        worst = max(worst, _EXIT_BY_VERDICT[report.verdict])
    _write_output(args.output, "".join(blocks))
    return worst


def _side_model(path: Path, fmt: str | None, strict: bool):
    """Load one diff side as (model, notes) honoring the format override."""
    text = _read_text(path)
    if fmt == "dac" or (fmt is None and _is_dac_path(path)):
        return lift(parse_dac(text, strict=strict)), ()
    model, spec = _descriptor_model(text, path, strict)
    return model, _residue_notes(spec, prefix=f"{path}: ")


def cmd_diff(args) -> int:
    if len(args.input) != 2:
        raise DadError(f"diff requires exactly two --input, got {len(args.input)}")
    left_path, right_path = args.input
    left, left_notes = _side_model(left_path, args.left_format, args.strict)
    right, right_notes = _side_model(right_path, args.right_format, args.strict)
    report = compare_models(left, right, notes=left_notes + right_notes)
    _write_output(args.output, render_report(report, args.report))
    return _EXIT_BY_VERDICT[report.verdict]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except DadError as exc:
        print(f"error: {type(exc).__name__}: {_clean(str(exc))}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {_clean(str(exc))}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a defect in dad, not a verdict: keep it apart from exit 1
        sys.excepthook(type(exc), exc, exc.__traceback__)
        print(f"error: internal error: {type(exc).__name__}: {_clean(str(exc))}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    # the locale must not pick the bytes: a script saved with > reads back
    # as the -o file does; each stream keeps its error handler
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
