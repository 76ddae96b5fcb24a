import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pseudospin
from pseudospin import cli
from pseudospin.cli import KINDS, emit_trajectory, main, read_trajectory
from pseudospin.dynamics import Trajectory, evolve_trajectory
from pseudospin.exceptions import NonPseudoHermitianError, ValidationError
from pseudospin.linalg import hamiltonian_from_field
from pseudospin.metric import canonical_limit_field

RNG = np.random.default_rng(5)


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(command, scenario_path, out_dir, *extra):
    return main([command, "--scenario", str(scenario_path), "--out", str(out_dir), *extra])


# ------------------------------------------------------------------ commands


def test_check_pseudo_hermitian_field(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "check", "field": [1.0, 0.0, [0.0, 0.5]]})
    assert run_cli("check", scen, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    assert report["pseudo_hermitian"] is True
    assert report["field_square"] == pytest.approx([0.75, 0.0])


def test_check_non_pseudo_hermitian_field(tmp_path):
    scen = write_scenario(tmp_path, {"field": [1.0, 0.0, [0.0, 2.0]]})
    assert run_cli("check", scen, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    assert report["pseudo_hermitian"] is False
    assert report["field_square"] == pytest.approx([-3.0, 0.0])


def _field_with_square(x: float, square: complex) -> list:
    """In-plane field (x, 0, z) with z^2 = square - x^2, as a scenario value."""
    z = np.sqrt(complex(square - x * x))
    return [x, 0.0, [z.real, z.imag]]


def test_check_agrees_with_metric_on_field_square_band(tmp_path):
    # the band where a det(H) = -F^2/4 test accepted up to 4x more than the F^2 rule
    tol, alpha = 1e-10, 0.5
    band = np.random.default_rng(17)
    fields = [[1.0, 0.0, [1.414213562373095e-10, 0.7071067811865476]]]  # F^2 = 0.5 + 2e-10 i
    for _ in range(20):
        x = band.uniform(0.5, 2.0)
        im = band.choice([-1.0, 1.0]) * band.uniform(tol, 4.0 * tol)
        fields.append(_field_with_square(x, complex(band.uniform(0.1, 3.0), im)))
        fields.append(_field_with_square(x, -band.uniform(tol, 4.0 * tol)))
    verdicts, accepted = [], []
    for k, field in enumerate(fields):
        out = tmp_path / f"out{k}"
        assert run_cli("check", write_scenario(tmp_path, {"field": field}), out) == 0
        verdicts.append(json.loads((out / "check.json").read_text())["pseudo_hermitian"])
        f = np.array([complex(*v) if isinstance(v, list) else v for v in field])
        family = lambda a: f.real + 1j * (a / alpha) * f.imag  # the metric kind's alpha family
        try:
            canonical_limit_field(family, alpha, tol)
            accepted.append(True)
        except NonPseudoHermitianError:
            accepted.append(False)
    assert verdicts == accepted
    assert not accepted[0]


def test_metric_from_limit_family(tmp_path):
    scen = write_scenario(
        tmp_path, {"kind": "metric", "field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0.6}
    )
    assert run_cli("metric", scen, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "metric.json").read_text())
    assert np.allclose(report["b_field"], [[0.8, 0.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert report["checks"]["rotation_residual"] < 1e-12
    assert report["checks"]["similarity_residual"] < 1e-12
    eta = np.array(report["eta"])
    assert eta.shape == (2, 2, 2)


def test_evolve_zero_hamiltonian_is_constant(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "evolve",
            "field": [0.0, 0.0, 0.0],
            "state": [[1.0, 0.0], [0.5, 0.5]],
            "time": {"start": 0.0, "stop": 1.0, "step": 0.1},
        },
    )
    out = tmp_path / "out"
    assert run_cli("evolve", scen, out) == 0
    t, states, norms = read_trajectory(out / "trajectory.csv")
    assert len(t) == 11
    assert np.allclose(states, states[0], atol=1e-15)
    assert np.allclose(norms["canonical"], 1.0, atol=1e-15)
    assert np.allclose(norms["eta"], 1.0, atol=1e-15)


def test_evolve_eta_metric_norm_column(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "evolve",
            "field": [1.0, 0.0, [0.0, 0.6]],
            "alpha": 0.6,
            "metric": "eta",
            "state": [[0.0, 0.0], [1.0, 0.0]],
            "time": {"start": 0.0, "stop": 20.0, "step": 0.05},
        },
    )
    out = tmp_path / "out"
    assert run_cli("evolve", scen, out) == 0
    _, _, norms = read_trajectory(out / "trajectory.csv")
    assert np.max(np.abs(norms["eta"] - 1.0)) < 1e-9
    assert np.max(np.abs(norms["canonical"] - 1.0)) > 1e-3
    summary = json.loads((out / "evolve.json").read_text())
    assert summary["norm_eta_drift"] < 1e-9


def test_bloch_pure_precession_axial_component_constant(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "bloch",
            "model": "precession",
            "field": [0.0, 0.0, 1.0],
            "n0": [1.0, 0.0, 0.0],
            "time": {"start": 0.0, "stop": 2.0, "step": 0.001},
        },
    )
    out = tmp_path / "out"
    assert run_cli("bloch", scen, out) == 0
    t, states, _ = read_trajectory(out / "trajectory.csv")
    assert np.max(np.abs(states[:, 2].real)) < 1e-8
    assert np.allclose(states[:, 0].real, np.cos(t), atol=1e-8)


def test_bloch_llg_spin_valve_model(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "bloch",
            "model": "llg_spin_valve",
            "field": [0.0, 0.0, 1.0],
            "alpha": 0.1,
            "a": 0.05,
            "polarization": [0.0, 0.0, 1.0],
            "n0": [0.6, 0.0, 0.8],
            "time": {"start": 0.0, "stop": 1.0, "step": 0.001},
        },
    )
    out = tmp_path / "out"
    assert run_cli("bloch", scen, out) == 0
    report = json.loads((out / "bloch.json").read_text())
    assert report["norm_raw_drift"] < 1e-8


def test_rabi_suppressed_point(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "rabi",
            "b": float(np.sqrt(1.5)),
            "b_z": 1.0,
            "omega": 2.0,
            "alpha": 0.5,
            "time": {"start": 0.0, "stop": 5.0, "step": 0.5},
        },
    )
    out = tmp_path / "out"
    assert run_cli("rabi", scen, out) == 0
    report = json.loads((out / "rabi.json").read_text())
    assert report["regime"] == "pseudo_hermitian"
    assert report["omega_sq"] == pytest.approx(2.0)
    assert report["amplitude_form"] == "suppressed_damping"
    lines = (out / "amplitude.csv").read_text().strip().splitlines()
    assert len(lines) == 12  # header + 11 samples
    t, re, im = (float(v) for v in lines[-1].split(","))
    assert re == pytest.approx(0.0, abs=1e-15)
    assert im == pytest.approx(-np.sqrt(0.6) * np.sin(t / np.sqrt(2)))


def test_rabi_point_within_tolerance_of_imaginary_side(tmp_path):
    # on the surface with 0 < delta * omega <= tol * scale: zero frequency, not an error
    b_z, omega, alpha = 1.0 + 2e-10, 1.0, 1.5
    d = b_z - omega
    b = float(np.sqrt((alpha * omega) ** 2 - d**2 - d * omega * (1.0 - alpha**2)))
    scen = write_scenario(
        tmp_path,
        {"kind": "rabi", "b": b, "b_z": b_z, "omega": omega, "alpha": alpha,
         "time": {"start": 0.0, "stop": 5.0, "num": 6}},
    )
    out = tmp_path / "out"
    assert run_cli("rabi", scen, out) == 0
    assert not (out / "error.json").exists()
    report = json.loads((out / "rabi.json").read_text())
    assert report["regime"] == "pseudo_hermitian"
    assert report["omega_sq"] == 0.0
    assert report["amplitude_form"] == "suppressed_damping"
    rows = [[float(v) for v in line.split(",")]
            for line in (out / "amplitude.csv").read_text().splitlines()[1:]]
    assert len(rows) == report["amplitude_samples"] == 6
    assert all(re == 0.0 and im == 0.0 for _, re, im in rows)


def test_suppress_reference_point(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "suppress", "b_z": 1.0, "omega": 2.0, "alpha": 0.5})
    out = tmp_path / "out"
    assert run_cli("suppress", scen, out) == 0
    report = json.loads((out / "suppress.json").read_text())
    assert report["b"] == pytest.approx(np.sqrt(1.5), abs=1e-12)
    assert abs(report["residual"]) < 1e-12


def test_suppress_infeasible_exits_3(tmp_path):
    scen = write_scenario(tmp_path, {"b_z": 1.0, "omega": 0.5, "alpha": 0.1})
    out = tmp_path / "out"
    assert run_cli("suppress", scen, out) == 3
    report = json.loads((out / "error.json").read_text())
    assert report["error"] == "NoRealSolutionError"


def test_suppress_spin_valve(tmp_path):
    scen = write_scenario(
        tmp_path, {"kind": "suppress", "b_z": 1.0, "omega": 2.0, "alpha": 0.5, "a": 0.1}
    )
    out = tmp_path / "out"
    assert run_cli("suppress", scen, out) == 0
    report = json.loads((out / "suppress.json").read_text())
    assert report["b_squared"] == pytest.approx(1.86, abs=1e-12)
    assert abs(report["residual"]) < 1e-10


def test_grassmann_verify(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "grassmann_verify", "b_field": [0.5, 0.25, -1.0]})
    out = tmp_path / "out"
    assert run_cli("grassmann-verify", scen, out) == 0
    report = json.loads((out / "grassmann.json").read_text())
    assert report["required_pairs_exact"] is True
    assert [tuple(sorted(e.items())) for e in report["non_exact_pairs"]]  # (7,7) is reported
    assert report["max_residual"] == pytest.approx(0.25, abs=1e-12)


def test_sweep_classification(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "sweep",
            "grid": {
                "b": [1.0, float(np.sqrt(1.5))],
                "b_z": [1.0, 2.0],
                "alpha": [0.0, 0.5],
            },
            "omega": 2.0,
        },
    )
    out = tmp_path / "out"
    assert run_cli("sweep", scen, out) == 0
    records = [json.loads(line) for line in (out / "sweep.jsonl").read_text().splitlines()]
    assert len(records) == 8
    by_key = {(r["b"], r["b_z"], r["alpha"]): r for r in records}
    reference = by_key[(float(np.sqrt(1.5)), 1.0, 0.5)]
    assert reference["regime"] == "pseudo_hermitian"
    assert reference["omega_sq"] == pytest.approx(2.0)
    assert all(r["regime"] == "hermitian" for r in records if r["alpha"] == 0.0)
    assert all(r["regime"] == "critical" for r in records if r["alpha"] != 0 and r["b_z"] == 2.0)


@pytest.mark.parametrize(
    "axis",
    [
        {"start": 0.5, "stop": 1.5, "num": 0},
        {"start": 0.5, "stop": 1.5, "num": -3},
        {"stop": 1.5, "num": 4},
        {"start": 0.5, "num": 4},
        {"start": 0.5, "stop": 1.5},
        {"start": "x", "stop": 1.5, "num": 4},
        {"start": 0.5, "stop": 1.5, "num": "four"},
        [1.0, "b"],
        "b",
        None,
        [],
    ],
)
def test_sweep_malformed_axis_is_validation_error(tmp_path, axis):
    scen = write_scenario(
        tmp_path, {"kind": "sweep", "grid": {"b": axis}, "b_z": 1.0, "omega": 2.0, "alpha": 0.5}
    )
    out = tmp_path / "out"
    assert run_cli("sweep", scen, out) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"
    assert not (out / "sweep.jsonl").exists()


@pytest.mark.parametrize(
    "kind, scenario",
    [
        pytest.param("sweep", {"grid": {"b": [1.0]}, "b_z": 1.0, "omega": "x", "alpha": 0.5},
                     id="sweep-omega-not-a-number"),
        pytest.param("rabi", {"b": "a", "b_z": 1.0, "omega": 2.0}, id="rabi-b-not-a-number"),
        pytest.param("suppress", {"b_z": 1.0, "omega": 2.0, "alpha": [1]}, id="suppress-alpha-list"),
        pytest.param("bloch", {"n0": ["x", 0, 1], "field": [0, 0, 1],
                               "time": {"stop": 1.0, "step": 0.1}}, id="bloch-n0-not-a-number"),
        pytest.param("bloch", {"n0": [0, 1], "field": [0, 0, 1],
                               "time": {"stop": 1.0, "step": 0.1}}, id="bloch-n0-length-2"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0],
                                "time": {"start": 0.0, "step": 0.1}}, id="time-without-stop"),
        pytest.param("check", {"field": [["x", 0], 0, 1]}, id="check-field-pair-not-a-number"),
        pytest.param("check", {"field": [1.0, float("nan"), 0.0]}, id="check-field-nan"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0],
                                "time": {"start": -1e308, "stop": 1e308, "step": 1}},
                     id="time-span-overflows"),
        pytest.param("evolve", {"field": [1.0, 0.0, 0.5], "state": [1, 0],
                                "time": {"stop": 1e300, "step": 1}}, id="time-step-unbounded"),
        pytest.param("evolve", {"field": [1.0, 0.0, 0.5], "state": [1, 0],
                                "time": {"stop": 1.0, "num": 1e300}}, id="time-num-unbounded"),
        pytest.param("rabi", {"b": 1.0, "b_z": 1.0, "omega": 2.0,
                              "time": {"stop": 1.0, "step": 1e-6}}, id="rabi-time-over-cap"),
        pytest.param("sweep", {"grid": {"b": {"start": 0.5, "stop": 1.5, "num": 1e300}},
                               "b_z": 1.0, "omega": 2.0, "alpha": 0.5}, id="sweep-num-unbounded"),
        pytest.param("sweep", {"grid": {"b": {"start": 0.5, "stop": 1.5, "num": 1000},
                                        "alpha": {"start": 0.1, "stop": 0.9, "num": 1001}},
                               "b_z": 1.0, "omega": 2.0}, id="sweep-points-over-cap"),
        pytest.param("metric", {"field": [1e155, 0, [0, 1e155]], "alpha": 0.5},
                     id="metric-field-square-overflows"),
        pytest.param("evolve", {"field": [1e200, 0, 0], "state": [1, 0],
                                "time": {"stop": 1.0, "num": 3}},
                     id="evolve-field-square-overflows"),
        pytest.param("bloch", {"field": [0, 0, [0, 1e200]], "n0": [1, 0, 0],
                               "time": {"stop": 1.0, "step": 0.1}},
                     id="bloch-damped-field-square-overflows"),
        pytest.param("bloch", {"model": "llg", "alpha": 0.1, "field": [1e200, 0, 0],
                               "n0": [1, 0, 0], "time": {"stop": 1.0, "step": 0.1}},
                     id="bloch-llg-field-square-overflows"),
        pytest.param("bloch", {"model": "llg_spin_valve", "alpha": 0.1, "a": 1e200,
                               "polarization": [0, 0, 1], "field": [0, 0, 1], "n0": [1, 0, 0],
                               "time": {"stop": 1.0, "step": 0.1}},
                     id="bloch-spin-valve-equivalent-field-square-overflows"),
        pytest.param("bloch", {"model": "llg_spin_valve", "alpha": 0.1, "a": 0.05,
                               "polarization": [0, 0, 2], "field": [0, 0, 1], "n0": [1, 0, 0],
                               "time": {"stop": 0.0, "num": 1}},
                     id="bloch-polarization-not-unit-on-one-sample"),
        pytest.param("bloch", {"model": "llg", "field": [0, 0, 1], "n0": [1, 0, 0],
                               "time": {"stop": 1.0, "step": 0.1}}, id="bloch-llg-without-alpha"),
        pytest.param("bloch", {"model": "llg_spin_valve", "alpha": 0.1, "a": 0.05,
                               "field": [0, 0, 1], "n0": [1, 0, 0],
                               "time": {"stop": 1.0, "step": 0.1}},
                     id="bloch-spin-valve-without-polarization"),
        pytest.param("bloch", {"model": "llg", "alpha": 0.1, "field": [0, 0, [1.0, 5.0]],
                               "n0": [1, 0, 0], "time": {"stop": 1.0, "step": 0.1}},
                     id="bloch-llg-complex-field"),
        pytest.param("bloch", {"model": "gilbert", "field": [0, 0, 1], "n0": [1, 0, 0],
                               "time": {"stop": 1.0, "step": 0.1}}, id="bloch-unknown-model"),
    ],
)
def test_malformed_scenario_is_validation_error(tmp_path, kind, scenario):
    scen = write_scenario(tmp_path, {"kind": kind, **scenario})
    out = tmp_path / "out"
    assert run_cli(kind, scen, out) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize(
    "kind, scenario",
    [
        pytest.param("rabi", {"b": 1e200, "b_z": 1.0, "omega": 2.0}, id="rabi-b-squared"),
        pytest.param("sweep", {"grid": {"b": [1e200]}, "b_z": 1.0, "omega": 2.0, "alpha": 0.5},
                     id="sweep-b-squared"),
        pytest.param("suppress", {"b_z": 1.0, "omega": 2.0, "alpha": 1e200},
                     id="suppress-alpha-squared"),
        pytest.param("rabi", {"b": 1.3e154, "b_z": 1.3e154, "omega": 0.0},
                     id="rabi-freq-sq-infinite"),
        pytest.param("rabi", {"b": 1.3e154, "b_z": 1.3e154, "omega": 0.0,
                              "time": {"stop": 1.0, "num": 3}}, id="rabi-freq-sq-infinite-trace"),
        pytest.param("rabi", {"b": 1e150, "b_z": 1.0, "omega": 2.0,
                              "time": {"start": 0.0, "stop": 1e160, "num": 3}},
                     id="rabi-trace-not-finite"),
        pytest.param("sweep", {"grid": {"b": [1.0, 1e200]}, "b_z": 1.0, "omega": 2.0,
                               "alpha": 0.5}, id="sweep-b-squared-second-point"),
    ],
)
def test_rabi_overflow_is_validation_error(tmp_path, kind, scenario):
    scen = write_scenario(tmp_path, {"kind": kind, **scenario})
    out = tmp_path / "out"
    assert run_cli(kind, scen, out) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"
    assert [p.name for p in out.iterdir()] == ["error.json"]
    text = (out / "error.json").read_text()
    assert "Infinity" not in text and "NaN" not in text


def test_bloch_non_finite_step_is_step_too_large(tmp_path):
    # the field square 1e300 is finite, but one RK4 step of 0.1 overflows the state
    scen = write_scenario(
        tmp_path,
        {"kind": "bloch", "field": [0, 0, 1e150], "n0": [1, 0, 0],
         "time": {"stop": 1.0, "step": 0.1}},
    )
    out = tmp_path / "out"
    assert run_cli("bloch", scen, out) == 3
    assert json.loads((out / "error.json").read_text())["error"] == "StepTooLargeError"
    assert [p.name for p in out.iterdir()] == ["error.json"]


REPORTS = {
    "check": ({"field": [1.0, 0.0, [0.0, 0.5]]}, "check.json"),
    "metric": ({"field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0.6}, "metric.json"),
    "evolve": ({"field": [0, 0, 1], "state": [1, 0], "time": {"stop": 1.0, "num": 3}},
               "evolve.json"),
    "bloch": ({"field": [0, 0, 1], "n0": [1, 0, 0], "time": {"stop": 0.1, "step": 0.05}},
              "bloch.json"),
    "rabi": ({"b": 1.0, "b_z": 1.0, "omega": 2.0}, "rabi.json"),
    "suppress": ({"b_z": 1.0, "omega": 2.0, "alpha": 0.5}, "suppress.json"),
    "grassmann_verify": ({}, "grassmann.json"),
    "sweep": ({"grid": {"b": [1.0, 1.5]}, "b_z": 1.0, "omega": 2.0, "alpha": 0.5}, "sweep.json"),
}


def test_kinds_are_the_cli_subcommands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z_,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert [c.replace("-", "_") for c in commands] == list(KINDS)
    assert set(KINDS) == set(REPORTS)


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_each_kind_writes_its_report(tmp_path, kind):
    scenario, report = REPORTS[kind]
    scen = write_scenario(tmp_path, {"kind": kind, **scenario})
    out = tmp_path / "out"
    assert run_cli(kind.replace("_", "-"), scen, out) == 0
    assert isinstance(json.loads((out / report).read_text()), dict)
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_each_handler_returns_its_files_and_writes_none(tmp_path, monkeypatch, kind):
    scenario, report = REPORTS[kind]
    monkeypatch.chdir(tmp_path)
    files = cli._HANDLERS[kind]({"kind": kind, **scenario}, 1e-10, None)
    assert report in files
    assert all(isinstance(name, str) and Path(name).name == name for name in files)
    assert list(tmp_path.iterdir()) == []


def test_grassmann_failure_keeps_its_report(tmp_path, monkeypatch):
    suite_of = cli.correspondence_suite

    def failing_suite(field, tol):
        suite = suite_of(field, tol)
        suite["generator_pairs"][0]["exact"] = False
        return suite

    monkeypatch.setattr(cli, "correspondence_suite", failing_suite)
    scen = write_scenario(tmp_path, {"kind": "grassmann_verify"})
    out = tmp_path / "out"
    assert run_cli("grassmann-verify", scen, out) == 2
    assert json.loads((out / "grassmann.json").read_text())["required_pairs_exact"] is False
    assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"


def test_kind_mismatch_is_validation_error(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "check", "field": [1, 0, 0]})
    assert run_cli("suppress", scen, tmp_path / "out") == 2


def test_missing_key_is_validation_error(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "check"})
    out = tmp_path / "out"
    assert run_cli("check", scen, out) == 2
    report = json.loads((out / "error.json").read_text())
    assert "field" in report["message"]


def test_broken_json_is_validation_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json")
    assert run_cli("check", path, tmp_path / "out") == 2


# ----------------------------------------------------------------- emission


def test_emit_single_point_trajectory(tmp_path):
    traj = Trajectory(
        times=[0.0],
        states=np.array([[0.1 + 0.2j, 0.3, -1.0]]),
        norms={"canonical": np.array([1.0]), "eta": np.array([0.5])},
    )
    path = tmp_path / "single.csv"
    emit_trajectory(traj, path)
    text = path.read_text()
    assert text.count("\n") == 2
    assert "\r" not in text
    t, states, norms = read_trajectory(path)
    assert t[0] == 0.0 and states[0, 0] == 0.1 + 0.2j and norms["eta"][0] == 0.5


def test_emit_refuses_non_finite_trajectory(tmp_path):
    traj = Trajectory(
        times=[0.0, 1.0],
        states=np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]),
        norms={"canonical": np.array([1.0, np.nan])},
    )
    with pytest.raises(ValidationError):
        emit_trajectory(traj, tmp_path / "nan.csv")
    assert list(tmp_path.iterdir()) == []


def test_trajectory_round_trip_is_bit_identical(tmp_path):
    times = np.linspace(0.0, 1.0, 17)
    states = RNG.standard_normal((17, 3)) + 1j * RNG.standard_normal((17, 3))
    norms = {"canonical": RNG.uniform(0.5, 2.0, 17), "eta": RNG.uniform(0.5, 2.0, 17)}
    traj = Trajectory(times=times, states=states, norms=norms)
    for path in (tmp_path / "traj.csv", tmp_path / "traj.json"):  # CSV whatever the suffix
        emit_trajectory(traj, path)
        t, s, n = read_trajectory(path)
        assert np.array_equal(t, times)
        assert np.array_equal(s, states)
        assert np.array_equal(n["canonical"], norms["canonical"])
        assert np.array_equal(n["eta"], norms["eta"])


def test_empty_trajectory_round_trip(tmp_path):
    traj = evolve_trajectory(hamiltonian_from_field([0.0, 0.0, 1.0]), [1.0, 0.0], [])
    path = tmp_path / "empty.csv"
    emit_trajectory(traj, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, states, norms = read_trajectory(path)
    assert t.shape == (0,) and states.shape == (0, 3)
    assert norms["canonical"].shape == norms["eta"].shape == (0,)


# -0.0, subnormals, the largest finite doubles and integral values next to arbitrary finite floats
CSV_CELLS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22, 123456789.0]
)
CSV_TABLES = hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 9)), elements=CSV_CELLS)


def _csv_reference(table) -> str:
    return "h\n" + "".join(",".join("%.17g" % float(x) for x in row) + "\n" for row in table)


@settings(max_examples=100, deadline=None)
@given(CSV_TABLES)
def test_csv_encode_matches_per_cell_formatting(table):
    assert cli._encode("t.csv", ("h", list(table.T))) == _csv_reference(table)


def test_csv_encode_matches_per_cell_formatting_across_blocks():
    rows = 2 * cli._CSV_BLOCK + 3
    table = RNG.standard_normal((rows, 3)) * 10.0 ** RNG.integers(-300, 300, (rows, 3))
    table[::7, 1] = -0.0
    assert cli._encode("t.csv", ("h", list(table.T))) == _csv_reference(table)


@settings(max_examples=50, deadline=None)
@given(CSV_TABLES.filter(lambda t: t.size > 0), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_csv_encode_refuses_a_non_finite_cell(table, data, bad):
    table[data.draw(st.integers(0, table.shape[0] - 1)), data.draw(st.integers(0, table.shape[1] - 1))] = bad
    with pytest.raises(ValidationError, match="not finite"):
        cli._encode("t.csv", ("h", list(table.T)))


def test_outputs_are_deterministic(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "evolve",
            "field": [1.0, 0.0, [0.0, 0.6]],
            "alpha": 0.6,
            "metric": "eta",
            "state": [[0.3, 0.1], [1.0, 0.0]],
            "time": {"start": 0.0, "stop": 3.0, "step": 0.01},
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("evolve", scen, out1) == 0
    assert run_cli("evolve", scen, out2) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "evolve.json").read_bytes() == (out2 / "evolve.json").read_bytes()


def test_step_override_flag(tmp_path):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "evolve",
            "field": [0.0, 0.0, 1.0],
            "state": [[1.0, 0.0], [0.0, 0.0]],
            "time": {"start": 0.0, "stop": 1.0, "step": 0.5},
        },
    )
    out = tmp_path / "out"
    assert run_cli("evolve", scen, out, "--step", "0.25") == 0
    t, _, _ = read_trajectory(out / "trajectory.csv")
    assert len(t) == 5


def run_console(command, scenario_path, out_dir):
    """Run the CLI in a child process, which shows warnings the way a user sees them."""
    # the child process must import the same package as this one, installed or not
    package_root = str(Path(pseudospin.__file__).resolve().parents[1])
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "pseudospin.cli", command, "--scenario", str(scenario_path),
         "--out", str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
    )


def test_console_entry_point(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "suppress", "b_z": 1.0, "omega": 2.0, "alpha": 0.5})
    proc = run_console("suppress", scen, tmp_path / "out")
    assert proc.returncode == 0
    assert (tmp_path / "out" / "suppress.json").exists()


@pytest.mark.parametrize(
    "kind, scenario, code, message",
    [
        ("check", {"field": [1e200, 0, 0]}, 2, "field square inf+0j is not finite"),
        ("bloch", {"field": [0, 0, 1e200], "n0": [1, 0, 0], "time": {"stop": 1.0, "step": 0.1}},
         2, "field square inf+0j is not finite"),
    ],
)
def test_overflow_prints_only_the_error_line(tmp_path, kind, scenario, code, message):
    scen = write_scenario(tmp_path, {"kind": kind, **scenario})
    proc = run_console(kind, scen, tmp_path / "out")
    assert proc.returncode == code
    assert proc.stderr == f"error: {message}\n"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["error.json"]
