"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import stagetrace  # noqa: E402

dad = run.load_dad()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every op design so a whole run takes about a second."""
    monkeypatch.setattr(run, "SCALE_GRID", (4, 12, 6))
    monkeypatch.setattr(run, "DRIFT_GRID", (8, 24, 3))
    monkeypatch.setattr(run, "DRIFT_SHARES", (0.0, 0.5))
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = out.getvalue().splitlines()
    env = json.loads(lines[-2])["env"]
    assert {"python", "pyyaml", "yaml_with_libyaml", "nproc", "commit", "seed"} <= set(env)
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_of_every_workload_is_correct(tiny, workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_per_layer_metric(tiny, workload):
    result = _run(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert 0.5 < coverage <= 1.0


def test_traced_stage_names_match_benchmark_json():
    stages = {name.rsplit(".", 1)[0] for name in (m["name"] for m in BENCHMARK["per_layer"])
              if name.endswith((".calls", ".self_ms", ".growth"))}
    assert stages == set(stagetrace.STAGES)
    tracer = stagetrace.Tracer()
    text = (run.ROOT / "corpus" / "dblog.yml").read_text(encoding="utf-8")
    with tracer.installed(), tracer.op(4):
        dad.consistency.round_trip_check(text)
    labels = [span[3] for span in tracer.spans]
    assert set(labels) <= set(stagetrace.STAGES)
    assert labels.count("reparse") == 1 and labels.count("relower") == 1
    assert labels.count("parse_compose") == 1 and labels.count("lower") == 1


def test_tracer_restores_every_binding():
    before = {name: getattr(dad.cli, name) for name in ("main", "emit_dac", "lift", "parse_dac", "emit_compose")}
    canonicalize, validate = dad.consistency.canonicalize, dad.model.ArchModel.validate
    tracer = stagetrace.Tracer()
    with tracer.installed():
        assert dad.cli.emit_dac is not before["emit_dac"]
        assert dad.consistency.canonicalize is not canonicalize
        assert dad.model.ArchModel.validate is not validate
    assert {name: getattr(dad.cli, name) for name in before} == before
    assert dad.consistency.canonicalize is canonicalize
    assert dad.model.ArchModel.validate is validate


def test_wrong_expectation_counts_as_failed_op():
    runner = run.Runner()
    wrong_code = run.cli_op("cyclic", 2, dad.cli, ["check", "-i", "corpus/cyclic.yml"], 0, lambda out: None)
    wrong_bytes = run.cli_op("dblog", 4, dad.cli, ["generate", "-i", "corpus/dblog.yml"], 0,
                             lambda out: None if out == oracle.DBLOG_DAC + "#" else "bytes differ")

    def boom():
        raise RuntimeError("op crashed")

    raising = run.Op("raising", 1, boom, lambda code, out: None)
    for op in (wrong_code, wrong_bytes, raising):
        assert runner.execute(op) >= 0
    assert runner.attempted == 3
    assert len(runner.failures) == 3
    assert "exit code 2, want 0" in runner.failures[0]
    assert "RuntimeError: op crashed" in runner.failures[2]


def test_output_that_changes_between_repeats_counts_as_failed():
    outputs = iter(["a", "b"])
    op = run.Op("flaky", 1, lambda: (0, next(outputs)), lambda code, out: None)
    runner = run.Runner()
    runner.execute(op)
    runner.execute(op)
    assert len(runner.failures) == 1 and "differ from the first run" in runner.failures[0]


def test_drift_oracle_rejects_a_wrong_ledger():
    pair = gen.drift_pair(random.Random(5), 30, 0.5)
    wrong = gen.DriftPair(pair.old, pair.new, pair.services, pair.expected.replace("Missing", "Extra", 1),
                          pair.exit_code, pair.ledger)
    assert run._check_drift(pair.expected, pair) is None
    assert "drift ledger" in run._check_drift(pair.expected, wrong)


def test_scale_generator_counts_agree_with_independent_oracle():
    rng = random.Random(7)
    for n in (3, 25, 60):
        case = gen.scale_descriptor(rng, n)
        facts = oracle.descriptor_facts(oracle.load_yaml(case.text))
        assert (facts.nodes, facts.edges, facts.residue_paths) == (case.nodes, case.edges, case.residue_paths)


def test_generators_are_deterministic_in_the_seed():
    assert gen.scale_descriptor(random.Random(1), 20) == gen.scale_descriptor(random.Random(1), 20)
    assert gen.drift_pair(random.Random(1), 50, 0.3) == gen.drift_pair(random.Random(1), 50, 0.3)
    assert gen.scale_descriptor(random.Random(1), 20) != gen.scale_descriptor(random.Random(2), 20)


def test_quick_start_oracle_matches_readme():
    readme = (run.ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"\$ dad generate -i corpus/dblog.yml\n(.*?)\n\n", readme, re.S).group(1) + "\n"
    assert block == oracle.DBLOG_DAC
