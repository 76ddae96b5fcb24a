import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pseudospin
from pseudospin import _g17, cli
from pseudospin.cli import KINDS, emit_trajectory, main, read_trajectory
from pseudospin.dynamics import Trajectory, bloch_model, evolve_trajectory, integrate
from pseudospin.exceptions import NonPseudoHermitianError, PseudospinError, ValidationError
from pseudospin.linalg import hamiltonian_from_field
from pseudospin.metric import canonical_limit_field
from pseudospin.rabi import (
    PseudoHermitianRabi,
    RabiParameters,
    classify_regime,
    ph_condition_residual,
    ph_condition_residual_spin_valve,
    solve_suppression_B,
    suppression_surface_error,
)

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


# an in-plane pair build_isometry accepts whose M M^dagger rounds to a singular matrix
ROUNDS_SINGULAR = {
    "field": [[0.0011074428195355542, 10017.874927409892], [0.0, 0.0],
              [10067.661995777755, -0.0011019662420150892]],
    "b_field": [0.0001, 0.0, 1000.0],
}


@pytest.mark.parametrize(
    "kind, extra",
    [("metric", {}),
     ("evolve", {"metric": "eta", "state": [1, 0], "time": {"stop": 1.0, "num": 3}})],
)
def test_isometry_whose_metric_rounds_singular_exits_2(tmp_path, kind, extra):
    scen = write_scenario(tmp_path, {"kind": kind, **ROUNDS_SINGULAR, **extra})
    out = tmp_path / "out"
    assert run_cli(kind, scen, out) == 2
    error = json.loads((out / "error.json").read_text())
    assert error == {"error": "SingularMetricError", "message": "isometry is singular"}
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize(
    "kind, extra",
    [("metric", {}),
     ("evolve", {"metric": "eta", "state": [1, 0], "time": {"stop": 1.0, "num": 3}})],
)
def test_square_sums_too_far_apart_for_a_small_first_component_exit_2(tmp_path, kind, extra):
    # an isometry of this pair would leave a similarity residual of 1e-3
    scen = write_scenario(tmp_path, {
        "kind": kind, "field": [1e-8, 0, 1], "b_field": [1e-8, 0, 1.00000000001], **extra,
    })
    out = tmp_path / "out"
    assert run_cli(kind, scen, out) == 2
    error = json.loads((out / "error.json").read_text())
    assert error == {
        "error": "NormMismatchError", "message": "square-sums differ by 2e-11, too much for |f1| = 1e-08"
    }
    assert [p.name for p in out.iterdir()] == ["error.json"]


def test_metric_real_field_without_b_field_or_alpha_pairs_with_itself(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "metric", "field": [0.8, 0.0, 0.3]})
    assert run_cli("metric", scen, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "metric.json").read_text())
    assert report["b_field"] == report["field"] == [[0.8, 0.0], [0.0, 0.0], [0.3, 0.0]]
    assert report["checks"]["eta_identity_distance"] == 0.0


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


@pytest.mark.parametrize("time, calls", [(None, 0), ({"stop": 1.0, "num": 3}, 1)])
def test_rabi_tests_the_surface_again_only_for_an_amplitude(monkeypatch, time, calls):
    # the record's own line decides the surface; only an amplitude trace builds the
    # PseudoHermitianRabi whose construction runs the scalar test
    counted = []

    def counting(*args, **kwargs):
        counted.append(args)
        return suppression_surface_error(*args, **kwargs)

    monkeypatch.setattr("pseudospin.rabi.suppression_surface_error", counting)
    scenario = {"kind": "rabi", "b": float(np.sqrt(1.5)), "b_z": 1.0, "omega": 2.0, "alpha": 0.5}
    if time is not None:
        scenario["time"] = time
    out = _run_in_tmp("rabi", scenario)
    assert out["code"] == 0
    assert json.loads(out["rabi.json"])["amplitude_form"] == "suppressed_damping"
    assert ("amplitude.csv" in out) == (time is not None)
    assert len(counted) == calls


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


def _reference_record(b, b_z, omega, alpha, a, tol=1e-10) -> dict:
    """A sweep record from the public rabi functions, one point at a time."""
    p = RabiParameters(b, b_z, omega, alpha, a)
    on_surface = suppression_surface_error(p, tol) is None
    try:
        suppression_b = solve_suppression_B(b_z, omega, alpha)
    except PseudospinError:
        suppression_b = None
    record = {
        "b": b, "b_z": b_z, "omega": omega, "alpha": alpha, "a": a, "delta": p.delta,
        "rabi_freq_sq": p.rabi_freq_sq, "cond_residual": ph_condition_residual(p),
        "regime": classify_regime(p, tol), "suppression_b": suppression_b,
        "omega_sq": PseudoHermitianRabi(p, tolerance=tol).omega_sq if on_surface else None,
    }
    if a != 0.0:
        record["spin_valve_residual"] = ph_condition_residual_spin_valve(p)
    return record


def _run_in_tmp(kind, scenario) -> dict:
    """Run one scenario in a fresh directory; its exit code and output files as text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        code = cli.run(kind, path, Path(tmp) / "out")
        return {"code": code, **{f.name: f.read_text() for f in (Path(tmp) / "out").iterdir()}}


SMALL = st.floats(-3.0, 3.0)


@st.composite
def band_grids(draw):
    """A sweep scenario whose b axis holds a solved b and points in its tolerance band, next to
    signed zeros, critical drives (b_z = omega), alpha = 0 and linspace (np.float64) axes."""
    omega = draw(st.floats(0.05, 3.0))
    b_z = draw(st.floats(0.02, 0.98)) * omega
    alpha = draw(st.floats(0.05, 3.0))
    b_star = solve_suppression_B(b_z, omega, alpha)
    offsets = draw(st.lists(st.floats(-11.5, -8.5).map(lambda e: 10.0**e), max_size=2))
    bs = [b_star] + [b_star * (1.0 + s * e) for s, e in zip([-1.0, 1.0], offsets)]
    axes = {
        "b": bs + draw(st.lists(st.sampled_from([0.0, -0.0]) | SMALL, max_size=1)),
        "b_z": [b_z] + draw(st.lists(st.sampled_from([omega, -0.0]) | SMALL, max_size=1)),
        "omega": [omega] + draw(st.lists(st.sampled_from([b_z, -0.0]) | SMALL, max_size=1)),
        "alpha": [alpha] + draw(st.lists(st.sampled_from([0.0, -0.0, -alpha]) | SMALL, max_size=2)),
        "a": draw(st.lists(st.sampled_from([0.0, -0.0, 0.05]) | SMALL, min_size=1, max_size=2)),
    }
    for name in draw(st.lists(st.sampled_from(sorted(axes)), max_size=2, unique=True)):
        start, stop = sorted(draw(st.tuples(SMALL, SMALL)))
        axes[name] = {"start": start, "stop": stop, "num": draw(st.integers(1, 3))}
    return {"kind": "sweep", "grid": axes}


@settings(max_examples=60, deadline=None)
@given(band_grids())
def test_sweep_lines_equal_json_dumps_of_scalar_records(scenario):
    out = _run_in_tmp("sweep", scenario)
    assert out["code"] == 0, out
    axes = [  # a linspace axis holds np.float64 values, as the CLI's does
        list(np.linspace(axis["start"], axis["stop"], axis["num"])) if isinstance(axis, dict) else axis
        for axis in map(scenario["grid"].get, ("b", "b_z", "omega", "alpha", "a"))
    ]
    refs = [_reference_record(*point) for point in itertools.product(*axes)]
    expected = "".join(json.dumps(ref, sort_keys=True, allow_nan=False) + "\n" for ref in refs)
    assert out["sweep.jsonl"] == expected


def test_sweep_squares_are_python_pow_on_many_axis_values():
    # x * x differs from Python's x**2 in about 0.1% of doubles: each grid isolates one square
    values = RNG.uniform(-3.0, 3.0, 4000).tolist()
    for axes in (
        [values, [0.7], [0.7], [0.5], [0.0]],  # delta = 0: rabi_freq_sq = b^2
        [[0.0], values, [0.7], [0.5], [0.0]],  # b = 0: rabi_freq_sq = delta^2
        [[0.0], [0.7], [0.7], values, [0.0]],  # delta = 0: cond_residual = -(alpha omega)^2
        # b = 0 across 4000 drives: delta^2 and (alpha omega)^2 broadcast over the drive axis
        [[0.0], [0.7], values, [0.5], [0.0]],
    ):
        for line in cli._sweep_lines(axes, 1e-10):
            r = json.loads(line)
            p = RabiParameters(r["b"], r["b_z"], r["omega"], r["alpha"])
            assert (r["rabi_freq_sq"], r["cond_residual"]) == (p.rabi_freq_sq, ph_condition_residual(p))


@settings(max_examples=60, deadline=None)
@given(
    omega=st.floats(0.05, 3.0),
    ratio=st.floats(0.02, 1.5),  # b_z / omega: either side of resonance, 1 is critical
    alpha=st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0),
    exponent=st.floats(-11.5, -8.5),
    sign=st.sampled_from([-1.0, 0.0, 1.0]),
    a=st.sampled_from([0.0, -0.0, 0.05]),
)
def test_rabi_record_is_its_one_point_sweep_line(omega, ratio, alpha, exponent, sign, a):
    b_z = ratio * omega
    try:
        b = solve_suppression_B(b_z, omega, alpha) * (1.0 + sign * 10.0**exponent)
    except PseudospinError:
        b = 1.0
    point = {"b": b, "b_z": b_z, "omega": omega, "alpha": alpha, "a": a}
    rabi = _run_in_tmp("rabi", point)
    sweep = _run_in_tmp("sweep", {"grid": {k: [v] for k, v in point.items()}})
    record = json.loads(rabi["rabi.json"])
    del record["amplitude_form"]
    assert json.dumps(record, sort_keys=True) + "\n" == sweep["sweep.jsonl"]


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
        pytest.param("suppress", {"b_z": 1.0, "omega": True, "alpha": 0.5},
                     id="suppress-omega-bool"),
        pytest.param("rabi", {"b": "1.5", "b_z": 1.0, "omega": 2.0}, id="rabi-b-numeric-string"),
        pytest.param("check", {"field": [1.0, 0.0, [False, 0.5]]}, id="check-field-pair-bool"),
        pytest.param("bloch", {"field": [0, 0, 1], "n0": [1, 0, 0], "renormalize": "no",
                               "time": {"stop": 1.0, "step": 0.1}}, id="bloch-renormalize-string"),
        pytest.param("bloch", {"field": [0, 0, 1], "n0": [1, 0, 0], "renormalize": 1,
                               "time": {"stop": 1.0, "step": 0.1}}, id="bloch-renormalize-number"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0],
                                "time": {"stop": 1.0, "num": 2.7}}, id="time-num-fractional"),
        pytest.param("sweep", {"grid": {"b": {"start": 0.5, "stop": 1.5, "num": 2.5}},
                               "b_z": 1.0, "omega": 2.0, "alpha": 0.5}, id="sweep-num-fractional"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0],
                                "time": {"start": 1.0, "stop": 0.5, "step": 0.1}},
                     id="time-stop-before-start"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0], "time": {"stop": 1.0}},
                     id="time-without-step-or-num"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0], "time": [0.0, 1.0]},
                     id="time-not-an-object"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0],
                                "time": {"stop": 1.0, "step": 0}}, id="time-step-zero"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0],
                                "time": {"stop": 1.0, "step": -0.1}}, id="time-step-negative"),
        pytest.param("check", {"field": [10**400, 0, 0]}, id="check-field-int-of-401-digits"),
        pytest.param("evolve", {"field": [0, 0, 1], "state": [1, 0], "metric": "lorentz",
                                "time": {"stop": 1.0, "num": 2}}, id="evolve-unknown-metric-tag"),
        pytest.param("metric", {"field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0},
                     id="metric-limit-family-alpha-zero"),
        pytest.param("metric", {"field": [1.0, 0.0, [0.0, 0.6]]},
                     id="metric-complex-field-without-b-field-or-alpha"),
        pytest.param("sweep", {"grid": [1.0, 1.5], "b_z": 1.0, "omega": 2.0, "alpha": 0.5},
                     id="sweep-grid-not-an-object"),
        pytest.param("sweep", {"grid": {"b": [1.0]}, "b_z": 1.0, "alpha": 0.5},
                     id="sweep-without-omega"),
    ],
)
def test_malformed_scenario_is_validation_error(tmp_path, kind, scenario):
    scen = write_scenario(tmp_path, {"kind": kind, **scenario})
    out = tmp_path / "out"
    assert run_cli(kind, scen, out) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b'{"kind": "check", "field": [1.0, 0.0, 0.5], "note": "\xff"}',
                     id="not-utf-8"),
        pytest.param(b'{"kind": "check", "field": [1' + b"0" * 4300 + b', 0.0, 0.5]}',
                     id="int-past-the-digit-limit"),
        pytest.param(b'{"kind": "check", "field": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                     id="nested-past-the-recursion-limit"),
    ],
)
def test_unreadable_scenario_bytes_are_validation_error(tmp_path, capsys, raw):
    scen = tmp_path / "scenario.json"
    scen.write_bytes(raw)
    out = tmp_path / "out"
    assert run_cli("check", scen, out) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValidationError"
    assert error["message"].startswith("cannot read scenario: ")
    assert [p.name for p in out.iterdir()] == ["error.json"]
    assert capsys.readouterr().err == f"error: {error['message']}\n"


@pytest.mark.parametrize(
    "make, name, reason",
    [(lambda path: None, "missing.json", "[Errno 2] No such file or directory"),
     (os.mkdir, "a-directory", "[Errno 21] Is a directory")],
    ids=["missing", "directory"],
)
def test_unreadable_scenario_path_writes_its_os_error(tmp_path, monkeypatch, make, name, reason):
    monkeypatch.chdir(tmp_path)
    make(name)
    assert run_cli("check", name, "out") == 2
    message = f"cannot read scenario: {reason}: '{name}'"
    error = f'{{\n  "error": "ValidationError",\n  "message": "{message}"\n}}\n'
    assert (tmp_path / "out" / "error.json").read_text() == error
    assert os.listdir("out") == ["error.json"]


def test_out_directory_is_created_with_its_parents_or_reused(tmp_path, monkeypatch):
    scen = write_scenario(tmp_path, {"kind": "check", "field": [1.0, 0.0, 0.5]})
    nested = tmp_path / "a" / "b" / "out"
    assert run_cli("check", scen, nested) == 0
    report = (nested / "check.json").read_bytes()
    (nested / "check.json").write_text("stale " * 1000)
    (nested / "other.txt").write_text("kept")
    assert run_cli("check", scen, nested) == 0
    assert (nested / "check.json").read_bytes() == report
    assert (nested / "other.txt").read_text() == "kept"
    monkeypatch.chdir(nested / "..")  # an empty --out is the working directory
    assert cli.run("check", scen, "") == 0
    assert (nested / ".." / "check.json").read_bytes() == report


def test_out_that_is_a_regular_file_raises_file_exists_error(tmp_path):
    scen = write_scenario(tmp_path, {"kind": "check", "field": [1.0, 0.0, 0.5]})
    (tmp_path / "out").write_text("a file")
    with pytest.raises(FileExistsError):
        run_cli("check", scen, tmp_path / "out")
    assert (tmp_path / "out").read_text() == "a file"


def test_scenario_line_breaks_are_read_as_universal_newlines(tmp_path):
    """CR LF and a lone CR count as one line break each, so a JSON error's offset is the one
    an LF file gives."""
    messages = []
    for newline in (b"\n", b"\r\n", b"\r"):
        scen = tmp_path / "scenario.json"
        lines = [b"{", b'  "kind": "check",', b'  "field": [1, 0, 0],,', b"}"]
        scen.write_bytes(newline.join(lines))
        assert run_cli("check", scen, tmp_path / "out") == 2
        messages.append(json.loads((tmp_path / "out" / "error.json").read_text())["message"])
    assert "line 3 column" in messages[0] and messages[1] == messages[0] == messages[2]


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


_NOT_FINITE = "result is not finite: Out of range float values are not JSON compliant"
_OVERFLOW = "arithmetic overflow: (34, 'Numerical result out of range')"


@pytest.mark.parametrize(
    "grid, message",
    [
        # the first point's rabi_freq_sq is inf; the second point's b**2 raises OverflowError
        pytest.param({"b": [1.3e154, 1e200]}, _NOT_FINITE, id="inf-point-before-b-overflow"),
        pytest.param({"b": [1e200, 1.3e154]}, _OVERFLOW, id="b-overflow-before-inf-point"),
        # the same two orders where the overflowing square is alpha**2 on the first b row
        pytest.param({"b": [1.3e154], "alpha": [0.5, 1e200]}, _NOT_FINITE,
                     id="inf-point-before-alpha-overflow"),
        pytest.param({"b": [1.3e154], "alpha": [1e200, 0.5]}, _OVERFLOW,
                     id="alpha-overflow-before-inf-point"),
        # and where it is omega**2 (and delta**2) of the second drive, or of the first
        pytest.param({"b": [1.3e154], "omega": [0.0, 1e155]}, _NOT_FINITE,
                     id="inf-point-before-omega-overflow"),
        pytest.param({"b": [1.3e154], "omega": [1e155, 0.0]}, _OVERFLOW,
                     id="omega-overflow-before-inf-point"),
    ],
)
def test_sweep_error_is_the_first_bad_point_in_product_order(tmp_path, grid, message):
    scenario = {"kind": "sweep", "grid": grid, "b_z": 1.3e154, "omega": 0.0, "alpha": 0.5}
    scen = write_scenario(tmp_path, scenario)
    out = tmp_path / "out"
    assert run_cli("sweep", scen, out) == 2
    assert json.loads((out / "error.json").read_text()) == {
        "error": "ValidationError", "message": message
    }
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 12, 40])
def test_sweep_lines_do_not_depend_on_the_block_size(monkeypatch, block):
    # blocks that start and end inside (b, drive) rows and between the torques of one point,
    # and blocks of several rows, with and without a torque axis
    axes = [[0.3, 1.2247448713915889, -0.0], [1.0, 2.0], [2.0, 1.0], [0.5, 0.0, -0.5, 0.9],
            [0.0, 0.05]]
    expected = list(cli._sweep_lines(axes, 1e-10))
    monkeypatch.setattr(cli, "_BLOCK", block)
    for torques in ([0.0, 0.05], [0.0]):
        lines = list(cli._sweep_lines(axes[:4] + [torques], 1e-10))
        assert lines == [line for line in expected if torques != [0.0] or '"a": 0.0,' in line]


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_sweep_overflow_stops_after_the_points_before_it(monkeypatch, block):
    # alpha**2 of the third alpha overflows: its first point is the third, whatever the blocks
    monkeypatch.setattr(cli, "_BLOCK", block)
    lines = cli._sweep_lines([[0.5, 1.0], [1.0], [2.0], [0.0, 0.5, 1e200], [0.0]], 1e-10)
    assert [json.loads(next(lines))["alpha"] for _ in range(2)] == [0.0, 0.5]
    with pytest.raises(OverflowError):
        next(lines)


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param({"field": [0, 0, 1], "state": [1e200, 0], "time": {"stop": 1.0, "num": 3}},
                     id="state-square-overflows"),
        # |psi(t)|^2 = e^t passes 1.8e308 near t = 710
        pytest.param({"field": [0, 0, [0, 1]], "state": [1, 0],
                      "time": {"stop": 1400.0, "step": 1.0}}, id="norm-grows-past-overflow"),
    ],
)
def test_overflowing_state_is_not_reported_as_zero(tmp_path, scenario):
    scen = write_scenario(tmp_path, {"kind": "evolve", **scenario})
    out = tmp_path / "out"
    assert run_cli("evolve", scen, out) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValidationError"
    assert "overflows" in error["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1"])
def test_tolerance_outside_the_unit_interval_is_validation_error(tmp_path, tol):
    # a tolerance outside (0, 1) is a malformed request, refused before the scenario is read
    scen = write_scenario(tmp_path, {"kind": "check", "field": [1.0, 0.0, 0.5]})
    out = tmp_path / "out"
    assert run_cli("check", scen, out, "--tol", tol) == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValidationError" and "tol" in error["message"]
    assert [p.name for p in out.iterdir()] == ["error.json"]


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


# more exit-0 runs, whose files keep the same text contracts: models, metrics, amplitudes, torque
# axes and block boundaries the REPORTS rows leave out, as (kind, scenario, CLI arguments, fields
# the report must hold)
WRITTEN = [
    pytest.param("bloch", {"model": "llg", "field": [0, 0, 1], "alpha": 0.1, "n0": [1, 0, 0],
                           "time": {"stop": 1.0, "step": 0.1}}, (), {}, id="bloch-llg"),
    pytest.param("bloch", {"model": "llg_spin_valve", "field": [0, 0, 1], "alpha": 0.1, "a": 0.05,
                           "polarization": [0.6, 0, 0.8], "n0": [1, 0, 0],
                           "time": {"stop": 1.0, "step": 0.1}}, (), {}, id="bloch-llg-spin-valve"),
    pytest.param("evolve", {"field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0.6, "metric": "eta",
                            "state": [1, 0], "time": {"stop": 5.0, "num": 201}}, (), {},
                 id="evolve-eta"),
    # 401 x 9 cells, three of whose columns are the +0.0 imaginary parts of a real Bloch vector
    pytest.param("evolve", {"field": [1.0, 0.0, [0.0, 0.6]], "metric": "canonical", "state": [1, 0],
                            "time": {"stop": 20.0, "num": 401}}, (), {}, id="evolve-canonical-401"),
    pytest.param("grassmann_verify", {"b_field": [0.7, -1.1, 0.4]}, (), {}, id="grassmann-b-field"),
    # at --tol 0.5 the top monomial's self pair (residual 0.25), verified once per process, is exact
    pytest.param("grassmann_verify", {"b_field": [-2.5, 0.3, 1.9]}, ("--tol", "0.5"),
                 {"non_exact_pairs": [], "all_exact": True}, id="grassmann-tol-0.5"),
    pytest.param("check", {"field": [1.0, 0.0, [0.0, 0.6]]}, (), {}, id="check-limit-family-field"),
    pytest.param("rabi", {"b": 1.224744871391589, "b_z": 1.0, "omega": 2.0, "alpha": 0.5,
                          "time": {"stop": 5.0, "num": 51}}, (), {}, id="rabi-suppressed-amplitude"),
    # b < 0 at alpha = 0: a real part of mixed +0.0 and -0.0 cells
    pytest.param("rabi", {"b": -0.7, "b_z": 1.0, "omega": 2.0, "time": {"stop": 40.0, "num": 1001}},
                 (), {}, id="rabi-signed-zeros"),
    pytest.param("suppress", {"b_z": 1.0, "omega": 2.0, "alpha": 0.5, "a": 0.1}, (), {},
                 id="suppress-spin-valve"),
    # two drives and a torque axis: several drives per block, and spin-valve residuals
    pytest.param("sweep", {"grid": {"b": {"start": 0.5, "stop": 1.5, "num": 5}, "b_z": [1.0, 2.0],
                                    "alpha": [0.0, 0.5], "a": [0.0, 0.05]}, "omega": 2.0}, (), {},
                 id="sweep-torque-axis"),
    # 12,294 lines: three blocks, whose boundaries fall inside (b, drive) rows, and a -0.0 b_z
    pytest.param("sweep", {"grid": {"b": {"start": 0.5, "stop": 1.5, "num": 2049},
                                    "b_z": [1.0, -0.0], "alpha": [0.0, 0.5, -0.5]}, "omega": 2.0},
                 (), {}, id="sweep-three-blocks"),
]


def assert_text_contract(path):
    """A report is the text json.dumps(indent=2, sort_keys=True) gives its value, a JSON line the
    text json.dumps(sort_keys=True) gives its record, and a CSV cell the text '%.17g' gives its
    value."""
    text = path.read_text()
    if path.suffix == ".json":
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name
    elif path.suffix == ".jsonl":
        lines = text.splitlines(keepends=True)
        assert lines, path.name
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True) + "\n", line
    else:
        assert path.suffix == ".csv", path.name
        cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
        assert cells, path.name
        for cell in cells:
            assert cell == "%.17g" % float(cell), cell


@pytest.mark.parametrize(
    "kind, scenario, args, expect",
    [pytest.param(kind, REPORTS[kind][0], (), {}, id=kind) for kind in sorted(REPORTS)] + WRITTEN,
)
def test_each_kind_writes_its_report(tmp_path, kind, scenario, args, expect):
    scen = write_scenario(tmp_path, {"kind": kind, **scenario})
    out = tmp_path / "out"
    assert run_cli(kind.replace("_", "-"), scen, out, *args) == 0
    report = json.loads((out / REPORTS[kind][1]).read_text())
    assert isinstance(report, dict)
    assert {key: report[key] for key in expect} == expect
    assert not (out / "error.json").exists()
    for path in out.iterdir():
        assert_text_contract(path)


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_each_handler_returns_its_files_and_writes_none(tmp_path, monkeypatch, kind):
    scenario, report = REPORTS[kind]
    monkeypatch.chdir(tmp_path)
    files = cli._HANDLERS[kind]({"kind": kind, **scenario}, 1e-10, None)
    assert report in files
    assert all(isinstance(name, str) and Path(name).name == name for name in files)
    assert list(tmp_path.iterdir()) == []


def _fail_the_suite(monkeypatch):
    """Make each correspondence suite report its first generator pair as not exact."""
    suite_of = cli.correspondence_suite

    def failing_suite(field, tol):
        suite = suite_of(field, tol)
        suite["generator_pairs"][0]["exact"] = False
        return suite

    monkeypatch.setattr(cli, "correspondence_suite", failing_suite)


def test_grassmann_failure_keeps_its_report(tmp_path, monkeypatch):
    _fail_the_suite(monkeypatch)
    scen = write_scenario(tmp_path, {"kind": "grassmann_verify"})
    out = tmp_path / "out"
    assert run_cli("grassmann-verify", scen, out) == 2
    assert json.loads((out / "grassmann.json").read_text())["required_pairs_exact"] is False
    assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"


# the types cli._report writes: JSON's own, by exact type, and ndarray and complex by conversion
REPORT_TYPES = (dict, list, str, int, float, bool, type(None), np.ndarray, complex)


def _holds_report_types_only(value) -> bool:
    if type(value) is dict:
        return all(type(k) is str and _holds_report_types_only(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_holds_report_types_only, value))
    return type(value) in REPORT_TYPES


def test_reports_hold_only_the_types_the_encoder_writes(tmp_path, monkeypatch):
    """Every value that reaches cli._report in one scenario of every kind, in exit-2 and exit-3
    error.json files and in a failed suite's grassmann.json, is of a report type, with str keys."""
    seen = []
    report = cli._report

    def spy(value, newline="\n"):
        seen.append(value)
        return report(value, newline)

    monkeypatch.setattr(cli, "_report", spy)
    runs = [(kind, {"kind": kind, **scenario}, 0) for kind, (scenario, _) in REPORTS.items()]
    runs += [
        ("evolve", {"kind": "evolve", "field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0.6, "metric": "eta",
                    "state": [1, 0], "time": {"stop": 1.0, "num": 3}}, 0),
        ("rabi", {"b": 1.0, "b_z": 1.0, "omega": 2.0, "time": {"stop": 1.0, "num": 3}}, 0),
        ("check", {"kind": "check"}, 2),  # a missing key
        ("suppress", {"b_z": 1.0, "omega": 0.5, "alpha": 0.1}, 3),  # no real solution
    ]
    for n, (kind, scenario, code) in enumerate(runs):
        out = tmp_path / f"out{n}"
        assert run_cli(kind.replace("_", "-"), write_scenario(tmp_path, scenario), out) == code
        assert (out / "error.json").exists() == (code != 0)
    _fail_the_suite(monkeypatch)
    scen = write_scenario(tmp_path, {"kind": "grassmann_verify", "b_field": [0.7, -1.1, 0.4]})
    assert run_cli("grassmann-verify", scen, tmp_path / "failed") == 2
    assert (tmp_path / "failed" / "grassmann.json").exists()
    assert len(seen) >= len(runs) + 2
    assert all(map(_holds_report_types_only, seen))


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


def test_scenario_that_is_a_json_array_is_validation_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('[{"kind": "check", "field": [1.0, 0.0, 0.5]}]')
    out = tmp_path / "out"
    assert run_cli("check", path, out) == 2
    error = json.loads((out / "error.json").read_text())
    assert error == {"error": "ValidationError", "message": "scenario must be a JSON object"}


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


def test_emit_refuses_a_trajectory_without_norms(tmp_path):
    traj = Trajectory(times=[0.0], states=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValidationError, match="^trajectory has no norm record$"):
        emit_trajectory(traj, tmp_path / "bare.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["b,b_z,omega\n1,1,2\n", "t,amp_re,amp_im\n0,0,0\n1,0,0.5\n"],
                         ids=["sweep-like", "amplitude"])
def test_read_refuses_a_csv_that_is_not_a_trajectory(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match="not a trajectory file"):
        read_trajectory(path)


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


def _csv_reference(table) -> bytes:
    text = "h\n" + "".join(",".join("%.17g" % float(x) for x in row) + "\n" for row in table)
    return text.encode("ascii")


@settings(max_examples=100, deadline=None)
@given(CSV_TABLES)
def test_csv_encode_matches_per_cell_formatting(table):
    assert bytes(cli._encode("t.csv", ("h", list(table.T)))) == _csv_reference(table)


def test_csv_encode_matches_per_cell_formatting_across_blocks():
    # two even blocks of whole rows (blocks of CHUNK // 3 rows would leave a last block of
    # fewer than SMALL cells)
    step = _g17.CHUNK // 3
    rows = 2 * step + 3
    assert 3 * (rows - 2 * step) < _g17.SMALL
    table = RNG.standard_normal((rows, 3)) * 10.0 ** RNG.integers(-300, 300, (rows, 3))
    table[::7, 1] = -0.0
    assert bytes(cli._encode("t.csv", ("h", list(table.T)))) == _csv_reference(table)


def test_rabi_amplitude_with_signed_zeros_is_written_cell_by_cell(tmp_path):
    # b < 0 at alpha = 0: the real part of -i (b / Omega) sin is +0.0 or -0.0 by the sign of sin
    scen = write_scenario(tmp_path, {"kind": "rabi", "b": -0.7, "b_z": 1.0, "omega": 2.0,
                                     "time": {"start": 0.0, "stop": 40.0, "num": 1001}})
    out = tmp_path / "out"
    assert run_cli("rabi", scen, out) == 0
    lines = (out / "amplitude.csv").read_text().splitlines()
    cells = [cell for line in lines[1:] for cell in line.split(",")]
    assert len(cells) == 3 * 1001 and all(cell == "%.17g" % float(cell) for cell in cells)
    assert {line.split(",")[1] for line in lines[1:]} == {"0", "-0"}


def test_jsonl_encode_joins_every_line_across_blocks():
    axes = [list(np.linspace(0.5, 1.5, 2 * cli._BLOCK + 3)), [1.0], [2.0], [0.0, 0.5], [0.0]]
    lines = list(cli._sweep_lines(axes, 1e-10))
    assert cli._encode("sweep.jsonl", iter(lines)) == "".join(lines).encode("ascii")
    message = "^result is not finite: Out of range float values are not JSON compliant$"
    with pytest.raises(ValidationError, match=message):  # json's C encoder's words, no value
        cli._encode("sweep.jsonl", iter(lines[:-1] + [lines[-1].replace("0.5", "NaN", 1)]))


@settings(max_examples=50, deadline=None)
@given(CSV_TABLES.filter(lambda t: t.size > 0), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_csv_encode_refuses_a_non_finite_cell(table, data, bad):
    table[data.draw(st.integers(0, table.shape[0] - 1)), data.draw(st.integers(0, table.shape[1] - 1))] = bad
    with pytest.raises(ValidationError, match="not finite"):
        cli._encode("t.csv", ("h", list(table.T)))


def _json_default(obj):
    """The json.dumps default= hook for the two report types json does not write itself."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_report(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=_json_default)


class _Float(float):  # json takes it for a float; reports never hold one
    pass


REPORT_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)
REPORT_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
REPORT_ARRAY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)
REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([10**40, -(2**200)]),
    REPORT_FLOATS,
    st.text() | st.sampled_from(["", '\x00\x1f"\\/\x7f\u2028', "\u00e9 \u2603 \U0001d11e"]),
    REPORT_COMPLEX,
    hnp.arrays(np.float64, REPORT_ARRAY_SHAPES, elements=REPORT_FLOATS),
    hnp.arrays(np.complex128, REPORT_ARRAY_SHAPES, elements=REPORT_COMPLEX),
)
REPORT_KEYS = st.text(max_size=4)
REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(REPORT_KEYS, children, max_size=4),
    max_leaves=10,
)
RECORD_KEYS = REPORT_KEYS | st.sampled_from(["%", "%s", "a%%b", "%(k)s", "b"])
# a column draws every value from one of these; the last mixes types, so it takes the recursion
RECORD_COLUMNS = (
    st.booleans(),
    st.integers() | st.sampled_from([10**40, -(2**200)]),
    REPORT_FLOATS,
    st.text() | st.sampled_from(["", '\x00"\\%s\u2028', "\u00e9 \U0001d11e"]),
    REPORT_LEAVES,
)
RECORD_MISSES = ("missing key", "extra key", "nested list", "None", "complex", "empty dict")


@st.composite
def record_lists(draw):
    """1-6 dicts with one set of keys, each column drawn from one entry of RECORD_COLUMNS; half
    of them changed by one of RECORD_MISSES, after which they take the recursion."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=4, unique=True))
    columns = [draw(st.sampled_from(RECORD_COLUMNS)) for _ in keys]
    count = draw(st.integers(1, 6))
    records = [{key: draw(column) for key, column in zip(keys, columns)} for _ in range(count)]
    k, key = draw(st.integers(0, count - 1)), draw(st.sampled_from(keys))
    miss = draw(st.none() | st.sampled_from(RECORD_MISSES))
    if miss == "missing key":
        del records[k][key]
    elif miss == "extra key":
        records[k][draw(RECORD_KEYS.filter(lambda extra: extra not in keys))] = draw(REPORT_LEAVES)
    elif miss == "nested list":
        records[k][key] = [records[k][key]]
    elif miss == "None":
        records[k][key] = None
    elif miss == "complex":
        records[k][key] = draw(REPORT_COMPLEX)
    elif miss == "empty dict":
        records.insert(k, {})
    return records


@settings(max_examples=200, deadline=None)
@given(REPORT_VALUES | record_lists() | st.dictionaries(REPORT_KEYS, record_lists(), min_size=1))
def test_report_encoder_matches_json_dumps(value):
    assert cli._report(value) == _json_report(value)


def test_record_lists_are_written_column_by_column_only_when_they_are_tables():
    table = [{"a": a, "b": 7 - a, "exact": a != 7, "residual": a / 3, "%s": "x%d"} for a in range(8)]
    assert cli._records(table, "\n  ") is not None
    assert cli._report({"pairs": table}) == _json_report({"pairs": table})
    misses = [
        [{"a": 1}, {"b": 1}],  # keys differ
        [{"a": 1}, {"a": 1, "b": 2}],  # an extra key
        [{"a": 1}, {}],  # an empty dict
        [{}, {}],
        [{"a": 1}, {"a": [1]}],  # a nested value
        [{"a": 1}, {"a": True}],  # an int and a bool
        [{"a": None}],  # None
        [{"a": 1e308}, {"a": 1e308}],  # finite floats whose sum is not
    ]
    refused = [
        [{"a": 1.0}, {"a": np.nan}],  # json's ValueError
        [{"a": 1.0}, {"a": np.float64(2.0)}],  # the TypeErrors of types reports do not hold
        [{"a": 1.0}, {"a": _Float(2.0)}],
        [{"a": 1}, OrderedDict(a=1)],
        [{1: 1}],  # a key that is not a str
        [{"a": 10**5000}],  # an int past the digit limit: int.__repr__'s ValueError
    ]
    for records in misses + refused:
        assert cli._records(records, "\n") is None
    for records in misses:
        assert cli._report(records) == _json_report(records)
    for records in refused:
        with pytest.raises((ValueError, TypeError)):
            cli._report(records)


@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf, np.float64(np.nan), np.float64(-np.inf), complex(1.0, np.inf),
     complex(0.5, -np.inf), complex(np.nan, -np.inf), np.array([[0.5, np.nan]]), _Float(np.inf),
     ({"k": [complex(np.inf, 0.5)]},), object(), [{"x": 0.5, "y": 1}, {"x": -np.inf, "y": 2}],
     np.array(np.inf)],
    ids=["nan", "inf", "-inf", "np-nan", "np-inf", "complex-inf", "complex-imag-minus-inf",
         "complex-nan-and-minus-inf", "array-nan", "float-subclass-inf",
         "complex-inf-in-list-in-dict-in-tuple", "object", "inf-in-a-record-column", "0-d-array-inf"],
)
def test_report_encoder_refuses_what_json_dumps_refuses(bad):
    """NaN and Infinity in report types are refused with json's exception and message; a value
    of any other type with a TypeError that names its type, before its content is looked at.
    Both hold for the value on its own and as a child."""
    for value in ({"b": [1.0, {"a": bad}], "a": None}, bad):
        with pytest.raises((ValueError, TypeError)) as expected:
            _json_report(value)
        kind, message = expected.type, str(expected.value)
        if type(bad) not in REPORT_TYPES:
            kind, message = TypeError, f"{type(bad).__name__} is not JSON serializable"
        with pytest.raises(kind) as refused:
            cli._report(value)
        assert str(refused.value) == message


@pytest.mark.parametrize(
    "bad",
    [np.float64(0.5), np.int64(3), np.bool_(True), _Float(0.5), (0.5, 1.0), object(), OrderedDict(a=1)],
    ids=["np-float64", "np-int64", "np-bool", "float-subclass", "tuple", "object", "dict-subclass"],
)
def test_report_encoder_refuses_types_reports_do_not_hold(bad):
    """json writes all but object(); the encoder guesses at none of them, where it stands alone,
    as a child or in a record column."""
    message = f"^{type(bad).__name__} is not JSON serializable$"
    for value in (bad, {"a": [1.0, bad]}, [{"x": 0.5}, {"x": bad}]):
        with pytest.raises(TypeError, match=message):
            cli._report(value)


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


def test_rewrite_leaves_no_stale_tail(tmp_path):
    """A shorter run into the same --out gives the bytes of a run into a fresh directory."""
    base = {"kind": "evolve", "field": [1.0, 0.0, [0.0, 0.6]], "state": [[0.3, 0.1], [1.0, 0.0]]}
    long = write_scenario(tmp_path, {**base, "time": {"stop": 4.0, "num": 401}}, "long.json")
    short = write_scenario(tmp_path, {**base, "time": {"stop": 4.0, "num": 3}}, "short.json")
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run_cli("evolve", long, reused) == 0
    assert run_cli("evolve", short, reused) == 0
    assert run_cli("evolve", short, fresh) == 0
    for name in ("trajectory.csv", "evolve.json"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
    assert (fresh / "trajectory.csv").read_text().count("\n") == 4


def test_written_file_has_the_mode_write_text_gives(tmp_path):
    (tmp_path / "reference.json").write_text("{}\n")
    cli._write(tmp_path, {"report.json": {}})
    assert (tmp_path / "report.json").read_text() == "{}\n"
    modes = [os.stat(tmp_path / name).st_mode for name in ("reference.json", "report.json")]
    assert modes[0] == modes[1]


def test_short_writes_still_write_every_byte(tmp_path, monkeypatch):
    """os.write may write fewer bytes than it is given: _write goes on until all are out."""
    table = RNG.standard_normal((300, 3))
    lines = list(cli._sweep_lines([[0.5, 1.0, 1.5], [1.0], [2.0], [0.0, 0.5], [0.0]], 1e-10))
    report = {"b": [1.0, -0.0], "a": "x"}
    for name in ("report.json", "t.csv", "sweep.jsonl"):  # longer old files: no stale tail
        (tmp_path / name).write_bytes(b"#" * 50_000)
    write = os.write
    calls = []

    def short_write(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    cli._write(tmp_path, {"report.json": report, "t.csv": ("h", list(table.T)),
                          "sweep.jsonl": iter(lines)})
    monkeypatch.undo()
    assert (tmp_path / "report.json").read_text() == _json_report(report) + "\n"
    assert (tmp_path / "t.csv").read_bytes() == _csv_reference(table)
    assert (tmp_path / "sweep.jsonl").read_text() == "".join(lines)
    assert len(calls) > 3 and max(calls) > 7


def test_trajectory_write_stage_memory_is_bounded_by_the_csv_size(tmp_path):
    """Table and write stage of a 10^5-sample bloch run: the encoder's buffer (25 B a cell, about
    1.84x the CSV), the zero imaginary parts of the real states and block-sized temporaries; no
    copy of the table or of the text (3.8x)."""
    rate, _ = bloch_model("llg", [0.0, 0.0, 1.0], alpha=0.1)
    traj = integrate(rate, [1.0, 0.0, 0.0], np.linspace(0.0, 10.0, 100_000))
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        emit_trajectory(traj, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 10**7
    assert peak < 2.25 * size, (peak, size)
    t, states, _ = read_trajectory(path)
    assert np.array_equal(t, traj.times) and np.array_equal(states, traj.states)


def test_sweep_memory_is_bounded_by_the_file_size():
    """A 10^5-point sweep along b, computed and encoded: the file's growing buffer (up to 1.125x
    the file), the b axis's texts and block-sized temporaries, about 1.58x the file; a second
    copy of the b texts would take it past 1.6x."""
    axes = [list(np.linspace(0.5, 1.5, 10**5)), [1.0], [2.0], [0.5], [0.0]]
    tracemalloc.start()
    try:
        data = cli._encode("sweep.jsonl", cli._sweep_lines(axes, 1e-10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) > 2 * 10**7
    assert peak < 1.6 * len(data), (peak, len(data))


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
        ("bloch", {"model": "llg", "alpha": 1e200, "field": [0, 0, 1], "n0": [1, 0, 0],
                   "time": {"stop": 1.0, "step": 0.1}}, 2, "alpha: 1 + alpha**2 overflows, got 1e+200"),
        ("metric", ROUNDS_SINGULAR, 2, "isometry is singular"),
    ],
)
def test_overflow_prints_only_the_error_line(tmp_path, kind, scenario, code, message):
    scen = write_scenario(tmp_path, {"kind": kind, **scenario})
    proc = run_console(kind, scen, tmp_path / "out")
    assert proc.returncode == code
    assert proc.stderr == f"error: {message}\n"
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["error.json"]


def test_bloch_names_an_alpha_whose_square_overflows(tmp_path):
    scen = write_scenario(tmp_path, {
        "kind": "bloch", "model": "llg_spin_valve", "alpha": -1e200, "a": 0.05,
        "polarization": [0, 0, 1], "field": [0, 0, 1], "n0": [1, 0, 0],
        "time": {"stop": 1.0, "step": 0.1},
    })
    out = tmp_path / "out"
    assert run_cli("bloch", scen, out) == 2
    assert json.loads((out / "error.json").read_text()) == {
        "error": "ValidationError", "message": "alpha: 1 + alpha**2 overflows, got -1e+200"
    }
