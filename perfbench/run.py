"""dad benchmark: three seeded workloads driven in-process by one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports dad from `src/` there and
nothing else. One thread runs a closed loop: each op starts once the previous
one has finished and been checked. The ops of a workload form a seeded design
that runs in whole cycles, shuffled per cycle, as many as bring the ops' busy
time nearest to S seconds, so every run measures the same mix of sizes.

Workloads (why each was chosen is in BENCHMARK.json, which layer metric
should move which end-to-end metric in METRICS.md):
  corpus_cli     the 13 corpus files through dad.cli.main in every command
  scale_check    synthetic residue-heavy descriptors, 10-300 services
  diagram_drift  `dad diff --report machine` on drifted script pairs, 100-1000 services

--trace 0 prints the end-to-end metrics. --trace 1 runs each op once plain
and once with stage wrappers installed (stagetrace.py) and prints the
per-layer metrics. Each output is checked against oracles that do not come
from dad (oracle.py, gen.py) and against its first output; an op that raises
or gives a wrong exit code, verdict, issue set or byte is counted as failed.

Times are scaled to a nominal CPU speed by a calibration load timed between
the ops (calib.py), because other tenants of a shared host swing raw times by
up to ~1.8x. The last stdout line is the result JSON, the line before it the
environment. Both, the unscaled timings and the spans of a traced run are
also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calib
import gen
import oracle
from calib import Calibrator
from stagetrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench_out")
WORK_ROOT = Path(".perfbench_work")
SETUP_REPS = 11
# Op designs: (smallest, largest, count) of a geometric size grid.
SCALE_GRID = (10, 300, 54)
DRIFT_GRID = (100, 1000, 64)
# Share of mount targets changed, taken in turn by the pairs in size order; 0
# is an identical pair. A fixed pattern keeps the spread of op costs the same
# for every seed.
DRIFT_SHARES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

_NODE_LINE = re.compile(r"    [a-z_][a-z0-9_]* = (Server|Storage|Network)\(")
_EDGE_LINE = re.compile(r"  [a-z_][a-z0-9_]* (>>|-) [a-z_][a-z0-9_]*")


@dataclass
class Op:
    key: str  # identifies the op; repeats of one key must give identical output
    services: int  # retained services in the op's inputs
    run: Callable[[], tuple[int, str]]  # -> (exit code, output text)
    check: Callable[[int, str], str | None]  # -> None, or why the output is wrong


@dataclass
class Workload:
    ops: list[Op]
    cold_argv: list[str]  # the cold first op of setup_s, as dad CLI arguments
    cold_code: int


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_op(key, services, cli, argv, code, check_output) -> Op:
    def check(got, out):
        if got != code:
            return f"exit code {got}, want {code}"
        return check_output(out)

    return Op(key, services, lambda: run_cli(cli, argv), check)


# -- corpus_cli ---------------------------------------------------------------


def _consistent_report(lines: list[str], facts: oracle.Facts, note_prefix: str = "") -> str | None:
    n, e = facts.nodes, facts.edges
    head = ["verdict: Consistent", f"compared: left {n} nodes / {e} edges, right {n} nodes / {e} edges"]
    if lines[:2] != head:
        return f"report starts {lines[:2]!r}, want {head!r}"
    notes = lines[2:]
    prefix = "note: residue excluded from diagram: " + note_prefix
    if len(notes) != facts.residue_paths or not all(line.startswith(prefix) for line in notes):
        return f"{len(notes)} lines after the stats, want {facts.residue_paths} residue notes"
    return None


def _invalid_report(lines: list[str]) -> str | None:
    if len(lines) != 2 or lines[0] != "verdict: Invalid" or not lines[1].startswith("error: "):
        return f"want an Invalid verdict with one error line, got {lines!r}"
    return None


def _check_report(out: str, facts: oracle.Facts, valid: bool, note_prefix: str = "") -> str | None:
    lines = out.splitlines()
    return _consistent_report(lines, facts, note_prefix) if valid else _invalid_report(lines)


def _check_batch(out: str, paths, facts, valid) -> str | None:
    blocks: list[tuple[str, list[str]]] = []
    for line in out.splitlines():
        if line.startswith("== "):
            blocks.append((line[3:], []))
        elif blocks:
            blocks[-1][1].append(line)
        else:
            return "batch output does not start with a file header"
    if [name for name, _ in blocks] != [str(p) for p in paths]:
        return "batch file headers do not match the inputs"
    for (_, lines), path in zip(blocks, paths):
        reason = _consistent_report(lines, facts[path]) if valid[path] else _invalid_report(lines)
        if reason:
            return f"{path}: {reason}"
    return None


def _check_dac(out: str, facts, exact: str | None = None) -> str | None:
    """A DaC script with `facts.nodes` node lines and `facts.edges` edge lines, or exactly `exact`."""
    if exact is not None:
        return None if out == exact else "script differs from the README quick start"
    lines = out.splitlines()
    nodes = sum(1 for line in lines if _NODE_LINE.match(line))
    edges = sum(1 for line in lines if _EDGE_LINE.fullmatch(line.split("  #")[0]))
    if not lines or not lines[0].startswith('with DaC("') or (nodes, edges) != (facts.nodes, facts.edges):
        return f"script has {nodes} nodes / {edges} edges, want {facts.nodes} / {facts.edges}"
    return None


def _no_output(out: str) -> str | None:
    return None if out == "" else "output for an invalid input"


def _check_dot(out: str, facts: oracle.Facts) -> str | None:
    lines = out.splitlines()
    nodes = sum(1 for line in lines if "[shape=" in line)
    edges = sum(1 for line in lines if " -> " in line)
    if not lines or not lines[0].startswith("digraph ") or lines[-1] != "}":
        return "not a DOT digraph"
    if (nodes, edges) != (facts.nodes, facts.edges):
        return f"DOT has {nodes} nodes / {edges} edges, want {facts.nodes} / {facts.edges}"
    return None


def _check_invert(out: str, facts: oracle.Facts) -> str | None:
    doc = oracle.load_yaml(out)
    got = [set(doc.get(key) or ()) for key in ("services", "volumes", "networks")]
    want = [set(facts.services), set(facts.volumes), set(facts.networks)]
    return None if got == want else f"inverted descriptor declares {got}, want {want}"


def corpus_workload(rng: random.Random, work: Path, dad) -> Workload:
    cli = dad.cli
    paths = sorted(Path("corpus").glob("*.yml"))
    facts = {p: oracle.descriptor_facts(oracle.load_yaml(p.read_text(encoding="utf-8"))) for p in paths}
    codes = {p: oracle.CORPUS_EXIT.get(p.name, 0) for p in paths}
    valid = {p: codes[p] == 0 for p in paths}
    ops = [
        cli_op(
            "check batch", sum(len(f.services) for f in facts.values()), cli,
            ["check", *(a for p in paths for a in ("-i", str(p)))], max(codes.values()),
            lambda out: _check_batch(out, paths, facts, valid),
        )
    ]
    for p in paths:
        f, n = facts[p], len(facts[p].services)
        exact = oracle.DBLOG_DAC if p.name == "dblog.yml" else None
        ops.append(cli_op(f"check {p}", n, cli, ["check", "-i", str(p)], codes[p],
                          lambda out, f=f, ok=valid[p]: _check_report(out, f, ok)))
        ops.append(cli_op(f"generate {p}", n, cli, ["generate", "-i", str(p)], codes[p],
                          (lambda out, f=f, exact=exact: _check_dac(out, f, exact)) if valid[p] else _no_output))
        ops.append(cli_op(f"generate dot {p}", n, cli, ["generate", "-i", str(p), "--format", "dot", "--group-by-role"],
                          codes[p], (lambda out, f=f: _check_dot(out, f)) if valid[p] else _no_output))
        if not valid[p]:
            continue
        # The committed diagram of a CI gate: written once by dad, before timing.
        script = work / f"{p.stem}.dac"
        code, _ = run_cli(cli, ["generate", "-i", str(p), "-o", str(script)])
        if code != 0:
            raise RuntimeError(f"dad generate {p} exited {code} while preparing inputs")
        ops.append(cli_op(f"invert {script.name}", n, cli, ["invert", "-i", str(script)], 0,
                          lambda out, f=f: _check_invert(out, f)))
        ops.append(cli_op(f"check {script.name} {p}", 2 * n, cli, ["check", "-i", str(script), "-i", str(p)], 0,
                          lambda out, f=f: _check_report(out, f, True)))
        ops.append(cli_op(f"diff {p} {script.name}", 2 * n, cli, ["diff", "-i", str(p), "-i", str(script)], 0,
                          lambda out, f=f, p=p: _check_report(out, f, True, f"{p}: ")))
    return Workload(ops, ["check", "-i", "corpus/dblog.yml"], 0)


# -- scale_check --------------------------------------------------------------


def _check_round_trip(out: str, case: gen.ScaleCase) -> str | None:
    lines = out.splitlines()
    stats = f"stats\t{case.nodes}\t{case.edges}\t{case.nodes}\t{case.edges}"
    if lines[:2] != ["verdict\tConsistent", stats]:
        return f"report starts {lines[:2]!r}, want Consistent and {stats!r}"
    notes = sum(1 for line in lines[2:] if line.startswith("note\t"))
    if notes != len(lines) - 2 or notes != case.residue_paths:
        return f"{len(lines) - 2} lines after the stats, want {case.residue_paths} residue notes"
    return None


def _check_serialized(out: str, case: gen.ScaleCase) -> str | None:
    return None if oracle.load_yaml(out) == oracle.load_yaml(case.text) else "serialized YAML differs from the input"


def scale_workload(rng: random.Random, work: Path, dad) -> Workload:
    compose, consistency, dac_emit = dad.compose, dad.consistency, dad.dac_emit
    kinds = [
        ("round_trip_check",
         lambda t: consistency.render_report(consistency.round_trip_check(t), "machine"),
         _check_round_trip),
        ("generate",
         lambda t: dac_emit.emit_dac(compose.lower(compose.parse_compose(t))).text,
         _check_dac),
        ("serialize_compose",
         lambda t: compose.serialize_compose(compose.parse_compose(t)),
         _check_serialized),
    ]
    ops = []
    cases = []
    # Each descriptor has its own size and the kinds take the sizes in turn,
    # so every kind spans the whole range and op costs spread evenly.
    for i, n in enumerate(gen.size_grid(*SCALE_GRID)):
        name, run_op, check = kinds[i % len(kinds)]
        case = gen.scale_descriptor(rng, n)
        cases.append(case)
        ops.append(Op(
            f"{name} {n}", n,
            lambda t=case.text, run_op=run_op: (0, run_op(t)),
            lambda code, out, c=case, check=check: check(out, c),
        ))
    cold = work / "scale_cold.yml"
    cold.write_text(cases[len(cases) // 2].text, encoding="utf-8")
    return Workload(ops, ["check", "-i", str(cold)], 0)


# -- diagram_drift ------------------------------------------------------------


def _check_drift(out: str, pair: gen.DriftPair) -> str | None:
    if out == pair.expected:
        return None
    got = {kind: 0 for kind in gen.DIFF_KINDS}
    for line in out.splitlines():
        kind = line.split("\t", 1)[0]
        if kind in got:
            got[kind] += 1
    return f"report differs from the drift ledger: got {got}, want {dict(pair.ledger)}"


def drift_workload(rng: random.Random, work: Path, dad) -> Workload:
    ops = []
    cold = None
    for i, n in enumerate(gen.size_grid(*DRIFT_GRID)):
        share = DRIFT_SHARES[i % len(DRIFT_SHARES)]
        pair = gen.drift_pair(rng, n, share)
        old, new = work / f"drift{i}_old.dac", work / f"drift{i}_new.dac"
        old.write_text(pair.old, encoding="utf-8")
        new.write_text(pair.new, encoding="utf-8")
        argv = ["diff", "-i", str(old), "-i", str(new), "--report", "machine"]
        ops.append(cli_op(f"diff {n} {share}", pair.services, dad.cli, argv, pair.exit_code,
                          lambda out, p=pair: _check_drift(out, p)))
        if share and cold is None:
            cold = (argv, pair.exit_code)
    return Workload(ops, *cold)


WORKLOADS = {"corpus_cli": corpus_workload, "scale_check": scale_workload, "diagram_drift": drift_workload}


# -- running --------------------------------------------------------------------


class Runner:
    """Runs ops and checks their output; a failure is counted and kept, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[str, tuple[int, str]] = {}

    def execute(self, op: Op, scope=contextlib.nullcontext) -> float:
        """Run one op inside `scope()`; return its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with scope():
                code, out = op.run()
        except Exception:
            self.failures.append(f"{op.key}: raised\n{traceback.format_exc()}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        first = self._first.get(op.key)
        if first is None:
            reason = op.check(code, out)
            if reason is None:
                self._first[op.key] = (code, out)
        elif first != (code, out):
            reason = f"exit code {code} and output differ from the first run (exit code {first[0]})"
        else:
            reason = None
        if reason is not None:
            self.failures.append(f"{op.key}: {reason}")
        return elapsed


def run_cycles(
    ops: list[Op],
    rng: random.Random,
    seconds: float,
    calibrator: Calibrator,
    step: Callable[[Op], float],
    min_cycles: int = 1,
) -> int:
    """Run whole shuffled passes over `ops`, as many as come nearest `seconds` busy.

    `step` runs one op and returns the seconds it was busy.
    """
    busy, cycles = 0.0, 0
    while cycles < min_cycles or busy + busy / cycles / 2 < seconds:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            busy += step(op)
            calibrator.tick()
        cycles += 1
    calibrator.tick(force=True)
    return cycles


def measure_setup(workload: Workload, runner: Runner) -> tuple[float, float]:
    """Median over SETUP_REPS fresh interpreters of `import dad` plus the cold first op.

    Returns (nominal, raw) seconds; each start is scaled by its own calibration.
    """
    cmd = [sys.executable, str(HERE / "cold_start.py"), "src", *workload.cold_argv]
    nominal, raw = [], []
    for rep in range(SETUP_REPS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start exited {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not Path(result["dad_file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"cold start imported dad from {result['dad_file']}")
        runner.attempted += 1
        if result["code"] != workload.cold_code:
            runner.failures.append(f"cold start: exit code {result['code']}, want {workload.cold_code}")
        if rep:  # the first start only fills the bytecode cache
            raw.append(result["seconds"])
            nominal.append(result["seconds"] * calib.NOMINAL_S / result["calib_s"])
    return statistics.median(nominal), statistics.median(raw)


def _timing(samples: list[tuple[float, int]]) -> dict:
    """Rates and percentiles over (op seconds, services) samples."""
    times = [t for t, _ in samples]
    busy = sum(times)
    return {
        "ops_per_s": (len(times) / busy, "1/s"),
        "services_per_s": (sum(n for _, n in samples) / busy, "1/s"),
        "op_ms_p50": (1000 * statistics.median(times), "ms"),
        "op_ms_p90": (1000 * statistics.quantiles(times, n=10, method="inclusive")[8], "ms"),
    }


def end_to_end(workload: Workload, runner: Runner, rng: random.Random, seconds: float) -> tuple[dict, dict]:
    """(metrics, the same timings unscaled) over every op run, times scaled to nominal speed."""
    calibrator = Calibrator()
    samples: list[tuple[float, float, int]] = []  # (midpoint, seconds, services)

    def step(op: Op) -> float:
        start = time.perf_counter()
        elapsed = runner.execute(op)
        samples.append((start + elapsed / 2, elapsed, op.services))
        return elapsed

    # Two passes at least, so op_ms_p90 has ten samples above it on scale_check.
    run_cycles(workload.ops, rng, seconds, calibrator, step, min_cycles=2)
    metrics = _timing([(t * calibrator.factor(mid), n) for mid, t, n in samples])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = {name: value for name, (value, _) in _timing([(t, n) for _, t, n in samples]).items()}
    return metrics, {**raw, "calibration": calibrator.summary()}


def per_layer(workload: Workload, runner: Runner, rng: random.Random, seconds: float, spans: Path) -> dict:
    tracer = Tracer()
    calibrator = Calibrator()
    plain_wall = 0.0

    def traced_scope(op):
        @contextlib.contextmanager
        def scope():
            with tracer.installed(), tracer.op(op.services):
                yield
        return scope

    def step(op: Op) -> float:
        # Alternate which of the two runs goes first, so neither always finds
        # the caches warm.
        nonlocal plain_wall, steps
        steps += 1
        if steps % 2:
            plain = runner.execute(op)
            traced = runner.execute(op, traced_scope(op))
        else:
            traced = runner.execute(op, traced_scope(op))
            plain = runner.execute(op)
        plain_wall += plain
        return plain + traced

    steps = 0
    cycles = run_cycles(workload.ops, rng, seconds, calibrator, step)
    tracer.write(spans)
    return tracer.metrics(cycles, plain_wall, calibrator.factor)


def _yaml_backend(module, c_class: str) -> str:
    import yaml

    c_base = getattr(yaml, c_class, None)
    uses_c = c_base is not None and any(
        isinstance(v, type) and issubclass(v, c_base) for v in vars(module).values()
    )
    return "libyaml" if uses_c else "python"


def environment(args, dad) -> dict:
    import yaml

    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "dad_yaml_loader": _yaml_backend(dad.compose, "CParser"),
        "dad_yaml_dumper": _yaml_backend(dad.compose, "CEmitter"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def load_dad():
    """Import dad from this checkout's src/, or exit when the checkout has none."""
    src = ROOT / "src"
    if not (src / "dad" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        sys.exit(f"perfbench: {ROOT} has no src/dad or corpus/; run it from a full checkout of dad")
    sys.path.insert(0, str(src))
    import dad
    import dad.cli

    if not Path(dad.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported dad from {dad.__file__}, not from {src}")
    return dad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    dad = load_dad()
    rng = random.Random(args.seed)
    work = WORK_ROOT / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner()
    try:
        workload = WORKLOADS[args.workload](rng, work, dad)
        setup = None if args.trace else measure_setup(workload, runner)
        # Inputs and oracle data stay alive all run; keep them out of the
        # collector's way so it only walks what dad allocates.
        gc.collect()
        gc.freeze()
        unscaled = {}
        if args.trace:
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
            metrics = per_layer(workload, runner, rng, args.seconds, spans)
        else:
            metrics, unscaled = end_to_end(workload, runner, rng, args.seconds)
            metrics["setup_s"] = (setup[0], "s")
            unscaled["setup_s"] = setup[1]
            metrics["ok_ratio"] = ((runner.attempted - len(runner.failures)) / runner.attempted, "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(args, dad)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps({"env": env, "failures": runner.failures[:100], "unscaled": unscaled, **result}, indent=1) + "\n"
    )
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
