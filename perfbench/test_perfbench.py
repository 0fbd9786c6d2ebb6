"""Tests of the benchmark itself.

    python -m pytest perfbench

Workloads run here at tiny sizes; the output-format tests start `run.py` in a
subprocess on its smallest workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from super_scrambler.tableau import SuperStabilizerTableau  # noqa: E402

TINY = {
    "fig1": dict(n=60, steps=6000, sample_every=50),
    "cuts": dict(n=12, depths=(10, 40, 200), halves=2),
    "ghz-local": dict(sizes=(6, 9)),
    "oracle-check": dict(n=6, steps=50),
}


def tiny(name, tmp_path, seed=0):
    workload = workloads.WORKLOADS[name](seed, **TINY[name])
    workload.prepare(str(tmp_path))
    return workload


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_smoke(name, tmp_path):
    result = run.run_pass(tiny(name, tmp_path), 0)
    assert result["rounds"] == 1 and result["attempted"] >= 1
    assert result["failed"] == 0, result["problems"]
    assert result["wall_s"] > 0 and result["entropies_per_s"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_flipped_entropy_is_a_failed_item(name, tmp_path, monkeypatch):
    workload = tiny(name, tmp_path)
    original = SuperStabilizerTableau.entropy
    calls = []

    def flipped(self, region):
        calls.append(region)
        return original(self, region) + (len(calls) == 1)

    monkeypatch.setattr(SuperStabilizerTableau, "entropy", flipped)
    result = run.run_pass(workload, 0)
    assert result["failed"] == 1, result["problems"]


def test_wrong_dump_is_a_failed_item(tmp_path, monkeypatch):
    workload = tiny("ghz-local", tmp_path)
    original = SuperStabilizerTableau.dumps

    def wrong(self):
        text = original(self)
        lines = text.splitlines(keepends=True)
        return "".join(lines[1:] + lines[:1])  # same stabilizers, other order

    monkeypatch.setattr(SuperStabilizerTableau, "dumps", wrong)
    result = run.run_pass(workload, 0)
    assert result["failed"] == result["attempted"] == 2, result["problems"]


def test_missing_traced_name_is_recorded_absent():
    gone = ("gone.layer", (("tableau", "SuperStabilizerTableau.no_such_method"),
                           ("no_such_module", "f")), ("calls", "total_s"))
    apply_t, loads = SuperStabilizerTableau.apply_t, SuperStabilizerTableau.__dict__["loads"]
    with tracer.Tracer(tracer.TARGETS + (gone,)) as t:
        tab = SuperStabilizerTableau.new_all_x(4)
        tab.apply_t(1)
        SuperStabilizerTableau.loads(tab.dumps())
    metrics = t.metrics()
    assert len(t.absent) == 2
    assert metrics["gone.layer.calls"] == 0 and metrics["gone.layer.total_s"] == 0
    assert metrics["tableau.apply_t.calls"] == 1
    assert metrics["tableau.check_invariants.calls"] == 1
    assert 0 <= t.spans["tableau.loads"].self_s <= metrics["tableau.loads.total_ms"] / 1e3
    assert SuperStabilizerTableau.apply_t is apply_t
    assert SuperStabilizerTableau.__dict__["loads"] is loads


def test_same_seed_gives_identical_inputs():
    def inputs(seed):
        cuts = workloads.Cuts(seed)
        cuts.make_inputs()
        regions = [sorted(a.sites) for a, _ in cuts.pairs]
        seeds = [w(seed).next_cli_seed() for w in (workloads.Fig1, workloads.OracleCheck)]
        return repr((cuts.circuit, regions, seeds)).encode()

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric_of_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench("--workload", "ghz-local", "--seed", "0", "--seconds", "0.1",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "fig1", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
