"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pseudospin  # noqa: E402
import pseudospin.cli as cli  # noqa: E402
from perfbench import run, scenarios, tracing  # noqa: E402
from perfbench.verify import verify  # noqa: E402

TINY = {
    "evolve_samples": {"canonical": 31, "bare": 21, "dressed": 21},
    "bloch_steps": 20,
    "sweep_b": 20,
    "sweep_alpha": 3,
    "amplitude_samples": 11,
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, trace, seconds=0.0):
    return run.measure(workload, 1, seconds, trace, sizes=TINY, min_ops=1,
                       setup_repeats=0 if trace else 1)


@pytest.fixture(scope="module")
def traced():
    return {w: _tiny(w, 1) for w in scenarios.WORKLOADS}


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = _tiny(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for result in traced.values():
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_each_layer_is_busy_on_one_workload_and_idle_on_others(traced):
    calls = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in traced.items()}
    for w in ("classical_rk4", "rabi_sweep", "scenario_mix"):
        assert calls[w]["linalg.evolve_operator.calls"] == 0
    assert calls["quantum_evolve"]["linalg.evolve_operator.calls"] > 0
    for w in ("quantum_evolve", "rabi_sweep", "scenario_mix"):
        assert calls[w]["dynamics.rhs.calls"] == 0
    assert calls["classical_rk4"]["dynamics.rhs.calls"] > 0
    grassmann = [k for k in calls["scenario_mix"] if k.startswith("grassmann.") and k.endswith(".calls")]
    for w in ("quantum_evolve", "classical_rk4", "rabi_sweep"):
        assert all(calls[w][k] == 0 for k in grassmann)
    assert all(calls["scenario_mix"][k] > 0 for k in grassmann)


def test_traced_call_counts_repeat_exactly_for_a_fixed_seed(traced):
    # A longer run makes several passes; counts are per pass and must not move.
    again = _tiny("scenario_mix", 1, seconds=0.3)
    first = traced["scenario_mix"]["metrics"]
    counts = [k for k, m in first.items() if m["unit"] == "count"]
    assert counts
    assert {k: again["metrics"][k]["value"] for k in counts} == {k: first[k]["value"] for k in counts}


def test_timed_path_has_no_wrappers_left(traced):
    assert tracing.wrapped_names() == []
    originals = (cli.run, cli.rhs_llg, pseudospin.dynamics.rhs_llg)
    with tracing.Tracer():
        wrapped = set(tracing.wrapped_names())
        assert {"pseudospin.cli.run", "pseudospin.cli.rhs_llg", "pseudospin.dynamics.rhs_llg",
                "pseudospin.rhs_llg"} <= wrapped
    assert tracing.wrapped_names() == []
    assert (cli.run, cli.rhs_llg, pseudospin.dynamics.rhs_llg) == originals


def test_union_length_merges_overlapping_intervals():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_length([]) == 0


# ------------------------------------------------------------------ verifier


def _run_one(tmp_path, workload, kind):
    ops = scenarios.generate(workload, 3, tmp_path / "scenarios", TINY)
    op = next(o for o in ops if o.kind == kind and o.expect_code == 0)
    out = tmp_path / "out"
    code = cli.run(op.kind, op.path, out)
    assert not verify(op, out, code).problems
    return op, out, code


def test_verifier_rejects_a_perturbed_trajectory(tmp_path):
    op, out, code = _run_one(tmp_path, "quantum_evolve", "evolve")
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert verify(op, out, code).problems


def test_verifier_rejects_a_perturbed_bloch_trajectory(tmp_path):
    op, out, code = _run_one(tmp_path, "classical_rk4", "bloch")
    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-5)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert verify(op, out, code).problems


def test_verifier_rejects_a_wrong_exit_code(tmp_path):
    op, out, _ = _run_one(tmp_path, "scenario_mix", "check")
    assert verify(op, out, 2).problems
    ops = scenarios.generate("scenario_mix", 3, tmp_path / "more", TINY)
    invalid = next(o for o in ops if o.expect_code == 3)
    assert verify(invalid, tmp_path / "missing", 0).problems


def test_verifier_rejects_an_inconsistent_sweep_record(tmp_path):
    op, out, code = _run_one(tmp_path, "rabi_sweep", "sweep")
    path = out / "sweep.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    # The last b value is far from the suppression surface for every alpha.
    victim = next(r for r in reversed(records) if r["alpha"] != 0.0)
    victim["omega_sq"] = -victim["delta"] * victim["omega"]
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    assert verify(op, out, code).problems


def test_ops_that_write_nothing_are_counted_as_failed(monkeypatch):
    monkeypatch.setattr(cli, "run", lambda kind, scenario, out, **kw: 0)
    result = run.measure("scenario_mix", 1, 0, 0, sizes=TINY, min_ops=50, setup_repeats=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 50


def test_generator_is_deterministic_in_the_seed(tmp_path):
    a = scenarios.generate("rabi_sweep", 7, tmp_path / "a", TINY)
    b = scenarios.generate("rabi_sweep", 7, tmp_path / "b", TINY)
    c = scenarios.generate("rabi_sweep", 8, tmp_path / "c", TINY)
    assert [o.path.read_text() for o in a] == [o.path.read_text() for o in b]
    assert [o.path.read_text() for o in a] != [o.path.read_text() for o in c]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenario_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
