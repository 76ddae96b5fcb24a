"""Command-line driver: scenario files in, trajectories and reports out.

Scenarios are JSON; complex numbers are [re, im] pairs (plain numbers are
accepted as reals).  Every run writes machine-readable output into the
--out directory and exits 0 on success, 2 on a validation problem and 3
when the mathematics refuses (no real solution, wrong regime, ...).
Handlers compute and return their files; run() checks every number in
them for finiteness and encodes them all before it writes any, so a
non-zero exit writes only error.json (plus grassmann.json for a failed
suite).  Identical scenarios produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (  # rhs_* stay importable from cli: perfbench traces and tests them here
    Trajectory,
    bloch_model,
    evolve_trajectory,
    integrate,
    rhs_damped_precession,
    rhs_llg,
    rhs_llg_spin_torque,
)
from .exceptions import PseudospinError, ValidationError
from .grassmann import correspondence_suite
from .linalg import field_square, hamiltonian_from_field, spectrum
from .metric import build_isometry, canonical_limit_field, canonical_rotation, is_pseudo_hermitian
from .rabi import (
    PseudoHermitianRabi,
    RabiParameters,
    classify_regime,
    ph_condition_residual,
    ph_condition_residual_spin_valve,
    ph_rabi_amplitude,
    rabi_amplitude,
    solve_suppression_B,
    solve_suppression_spin_valve,
    suppression_surface_error,
)

# ----------------------------------------------------------- scenario parsing

_MAX_POINTS = 10**6  # samples in a time grid or points in a sweep: 100x the largest documented


def _parse_real(value, where: str) -> float:
    """Every real number a scenario holds is read here: finite, or a ValidationError."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: expected a number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    return x


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(_parse_real(value, where))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_parse_real(value[0], where), _parse_real(value[1], where))
    raise ValidationError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _parse_vector(value, where: str, size: int, parse=_parse_complex) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != size:
        raise ValidationError(f"{where}: expected {size} components")
    return np.array([parse(v, where) for v in value])


def _check_count(count: int, where: str) -> int:
    """A sample or point count, checked before anything is allocated."""
    if not 1 <= count <= _MAX_POINTS:
        raise ValidationError(f"{where}: expected 1 to {_MAX_POINTS} points, got {count:.7g}")
    return count


def _parse_time_grid(window, step_override=None) -> np.ndarray:
    if not isinstance(window, dict):
        raise ValidationError("time: expected an object with start/stop and step or num")
    start = _parse_real(window.get("start", 0.0), "time.start")
    stop = _parse_real(window.get("stop"), "time.stop")
    if stop < start:
        raise ValidationError("time: stop must be >= start")
    if step_override is not None:
        step = _parse_real(step_override, "step")
    elif "step" in window:
        step = _parse_real(window["step"], "time.step")
    elif "num" in window:
        num = int(_parse_real(window["num"], "time.num"))
        return np.linspace(start, stop, _check_count(num, "time.num"))
    else:
        raise ValidationError("time: needs step or num")
    if step <= 0:
        raise ValidationError("time: step must be positive")
    count = (stop - start) / step
    if not math.isfinite(count):
        raise ValidationError("time: (stop - start) / step must be finite")
    return start + step * np.arange(_check_count(int(round(count)) + 1, "time"))


def _require(scenario: dict, key: str):
    if key not in scenario:
        raise ValidationError(f"scenario is missing required key {key!r}")
    return scenario[key]


def _json_default(obj):
    """json.dumps default= hook; json encodes its result again, so complex entries become pairs."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# built once: json.dumps would construct an encoder per report and per sweep record
_JSON_REPORT = json.JSONEncoder(default=_json_default, sort_keys=True, allow_nan=False, indent=2)
_JSON_RECORD = json.JSONEncoder(default=_json_default, sort_keys=True, allow_nan=False)
# CSV rows per format call.  One call over a whole table holds a Python float per
# cell: a 10^6-sample bloch run peaked at 671 MB RSS that way, 377 MB in blocks.
_CSV_BLOCK = 4096


def _encode(name: str, content) -> str:
    """File text by suffix: .json, .jsonl (iterable of records), else (header, columns) as CSV."""
    try:
        if name.endswith(".json"):
            return _JSON_REPORT.encode(content) + "\n"
        if name.endswith(".jsonl"):
            return "".join(_JSON_RECORD.encode(record) + "\n" for record in content)
    except ValueError as exc:  # allow_nan=False: Infinity and NaN are not JSON
        raise ValidationError(f"result is not finite: {exc}") from exc
    header, columns = content
    table = np.column_stack(columns)
    if not np.isfinite(table).all():
        raise ValidationError(f"result is not finite: {name} has a non-finite entry")
    # one format call per block of rows: %.17g gives the same bytes for a float and an np.float64
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    blocks = (table[i : i + _CSV_BLOCK] for i in range(0, len(table), _CSV_BLOCK))
    return header + "\n" + "".join((row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def _write(out: Path, files: dict) -> None:
    """Write {file name: content} into out; every file is encoded before any is written."""
    texts = {name: _encode(name, content) for name, content in files.items()}
    for name, text in texts.items():
        (out / name).write_text(text, newline="")


# --------------------------------------------------------------- trajectories


def _trajectory_table(traj: Trajectory) -> tuple:
    canonical = traj.norms.get("canonical", traj.norms.get("raw"))
    eta = traj.norms.get("eta", traj.norms.get("projected"))
    if canonical is None:
        raise ValidationError("trajectory has no norm record")
    if eta is None:
        eta = canonical
    n_re_im = np.ascontiguousarray(traj.states, dtype=complex).reshape(len(traj), 3).view(float)
    header = "t,n1_re,n1_im,n2_re,n2_im,n3_re,n3_im,norm_canonical,norm_eta"
    return header, [traj.times, n_re_im, canonical, eta]


def emit_trajectory(traj: Trajectory, path) -> None:
    """Write a finite trajectory as CSV with 17 significant digits and LF endings.

    Columns are the fixed schema t, n{1,2,3}_{re,im}, norm_canonical,
    norm_eta.  Quantum runs fill the norm columns with the canonical and
    metric norms; classical runs carry the raw and projected |n| there.
    """
    Path(path).write_text(_encode("trajectory.csv", _trajectory_table(traj)), newline="")


def read_trajectory(path):
    """Parse a trajectory CSV back into (times, states, norms) arrays."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t":
            raise ValidationError(f"{path}: not a trajectory file")
        with warnings.catch_warnings():
            # a header-only file is the empty trajectory emit_trajectory writes
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, 9)
    states = data[:, 1:7:2] + 1j * data[:, 2:8:2]
    return data[:, 0], states, {"canonical": data[:, 7], "eta": data[:, 8]}


# ----------------------------------------------------------------- metric aid


def _metric_inputs(scenario: dict, tol: float):
    field = _parse_vector(_require(scenario, "field"), "field", 3)
    if "b_field" in scenario:
        real_field = _parse_vector(scenario["b_field"], "b_field", 3)
        return field, real_field
    if "alpha" in scenario:
        alpha = _parse_real(scenario["alpha"], "alpha")
        if alpha == 0.0:
            raise ValidationError("alpha must be nonzero for the limit family")

        def family(a):
            return field.real + 1j * (a / alpha) * field.imag

        return field, canonical_limit_field(family, alpha, tol).astype(complex)
    if np.max(np.abs(field.imag)) < tol:
        return field, field.real.astype(complex)
    raise ValidationError("metric construction needs b_field or alpha for a complex field")


# ------------------------------------------------------------------- handlers


def _run_check(scenario, tol, step):
    field = _parse_vector(_require(scenario, "field"), "field", 3)
    h = hamiltonian_from_field(field)
    e_plus, e_minus = spectrum(h)
    payload = {
        "field": field,
        "field_square": field_square(field),
        "det": complex(np.linalg.det(h)),
        "pseudo_hermitian": bool(is_pseudo_hermitian(h, tol)),
        "eigenvalues": [e_plus, e_minus],
    }
    return {"check.json": payload}


def _run_metric(scenario, tol, step):
    field, real_field = _metric_inputs(scenario, tol)
    pair = build_isometry(field, real_field, tol)
    rotation = canonical_rotation(field, real_field, tol)
    h_f = hamiltonian_from_field(field)
    h_b = hamiltonian_from_field(real_field)
    similarity = pair.isometry @ h_b @ np.linalg.inv(pair.isometry) - h_f
    payload = {
        "field": field,
        "b_field": real_field,
        "isometry": pair.isometry,
        "eta": pair.eta,
        "rotation": rotation,
        "checks": {
            "rotation_residual": float(np.linalg.norm(rotation @ real_field - field)),
            "similarity_residual": float(np.linalg.norm(similarity)),
            "eta_identity_distance": float(np.linalg.norm(pair.eta - np.eye(2))),
            "eigenvalue": spectrum(h_f)[0],
        },
    }
    return {"metric.json": payload}


def _run_evolve(scenario, tol, step):
    field = _parse_vector(_require(scenario, "field"), "field", 3)
    psi0 = _parse_vector(_require(scenario, "state"), "state", 2)
    grid = _parse_time_grid(_require(scenario, "time"), step)
    metric_tag = scenario.get("metric", "canonical")
    h = hamiltonian_from_field(field)
    if metric_tag == "canonical":
        traj = evolve_trajectory(h, psi0, grid)
    elif metric_tag == "eta":
        _, real_field = _metric_inputs(scenario, tol)
        pair = build_isometry(field, real_field, tol)
        traj = evolve_trajectory(
            h,
            psi0,
            grid,
            eta=pair.eta,
            observables=scenario.get("observables", "dressed"),
            isometry=pair.isometry,
        )
    else:
        raise ValidationError(f"unknown metric tag {metric_tag!r}")
    payload = {
        "samples": len(traj),
        "metric": metric_tag,
        "norm_canonical_drift": float(np.max(np.abs(traj.norms["canonical"] - 1.0))),
        "norm_eta_drift": float(np.max(np.abs(traj.norms["eta"] - 1.0))),
    }
    return {"trajectory.csv": _trajectory_table(traj), "evolve.json": payload}


def _run_bloch(scenario, tol, step):
    model = scenario.get("model", "damped")
    n0 = _parse_vector(_require(scenario, "n0"), "n0", 3, _parse_real)
    grid = _parse_time_grid(_require(scenario, "time"), step)
    renormalize = bool(scenario.get("renormalize", False))
    field = _parse_vector(_require(scenario, "field"), "field", 3)
    # bloch_model decides which of these the model needs; the CLI only parses what is there
    params = {key: _parse_real(scenario[key], key) for key in ("alpha", "a") if key in scenario}
    if "polarization" in scenario:
        params["polarization"] = _parse_vector(
            scenario["polarization"], "polarization", 3, _parse_real
        )
    rate, f_eq = bloch_model(model, field, **params)
    field_square(f_eq)  # an equivalent field whose square overflows exits 2, as in check and evolve
    traj = integrate(rate, n0, grid, renormalize=renormalize)
    payload = {
        "model": model,
        "samples": len(traj),
        "norm_raw_drift": float(np.max(np.abs(traj.norms["raw"] - 1.0))),
        "final": traj.states[-1],
        "step": traj.metadata["step"],
    }
    return {"trajectory.csv": _trajectory_table(traj), "bloch.json": payload}


def _rabi_point(p: RabiParameters, tol: float) -> dict:
    record = {
        "b": p.b,
        "b_z": p.b_z,
        "omega": p.omega,
        "alpha": p.alpha,
        "a": p.a,
        "delta": p.delta,
        "rabi_freq_sq": p.rabi_freq_sq,
        "cond_residual": ph_condition_residual(p),
        "regime": classify_regime(p, tol),
    }
    # test before constructing: a raise per off-surface point leaves frame cycles behind
    on_surface = suppression_surface_error(p, tol) is None
    record["omega_sq"] = PseudoHermitianRabi(p, tolerance=tol).omega_sq if on_surface else None
    try:
        record["suppression_b"] = solve_suppression_B(p.b_z, p.omega, p.alpha)
    except PseudospinError:
        record["suppression_b"] = None
    if p.a != 0.0:
        record["spin_valve_residual"] = ph_condition_residual_spin_valve(p)
    return record


def _run_rabi(scenario, tol, step):
    p = RabiParameters(
        b=_parse_real(_require(scenario, "b"), "b"),
        b_z=_parse_real(_require(scenario, "b_z"), "b_z"),
        omega=_parse_real(_require(scenario, "omega"), "omega"),
        alpha=_parse_real(scenario.get("alpha", 0.0), "alpha"),
        a=_parse_real(scenario.get("a", 0.0), "a"),
    )
    payload = _rabi_point(p, tol)
    files = {"rabi.json": payload}
    amplitude = None
    if p.alpha == 0.0:
        amplitude = lambda t: rabi_amplitude(p, t)
        payload["amplitude_form"] = "undamped"
    elif payload["omega_sq"] is not None:
        pr = PseudoHermitianRabi(p, tolerance=tol)
        amplitude = lambda t: ph_rabi_amplitude(pr, t)
        payload["amplitude_form"] = "suppressed_damping"
    else:
        payload["amplitude_form"] = None
    if amplitude is not None and "time" in scenario:
        grid = _parse_time_grid(scenario["time"], step)
        z = amplitude(grid)
        files["amplitude.csv"] = ("t,amp_re,amp_im", [grid, z.real, z.imag])
        payload["amplitude_samples"] = len(grid)
    return files


def _run_suppress(scenario, tol, step):
    b_z = _parse_real(_require(scenario, "b_z"), "b_z")
    omega = _parse_real(_require(scenario, "omega"), "omega")
    alpha = _parse_real(_require(scenario, "alpha"), "alpha")
    torque = _parse_real(scenario.get("a", 0.0), "a")
    if torque == 0.0:
        b = solve_suppression_B(b_z, omega, alpha)
        residual = ph_condition_residual(RabiParameters(b, b_z, omega, alpha))
    else:
        b = solve_suppression_spin_valve(b_z, omega, alpha, torque)
        residual = ph_condition_residual_spin_valve(
            RabiParameters(b, b_z, omega, alpha, a=torque)
        )
    payload = {
        "b": b,
        "b_squared": b * b,
        "residual": residual,
        "delta": b_z - omega,
        "a": torque,
    }
    return {"suppress.json": payload}


def _run_grassmann(scenario, tol, step):
    field = _parse_vector(scenario.get("b_field", [0.7, -1.1, 0.4]), "b_field", 3, _parse_real)
    suite = correspondence_suite(field, tol=max(tol, 1e-13))
    required = suite["generator_pairs"] + suite["hamiltonian_pairs"]
    suite["required_pairs_exact"] = all(entry["exact"] for entry in required)
    suite["b_field"] = field
    if not suite["required_pairs_exact"]:
        error = ValidationError("generator or Hamiltonian correspondence pairs failed")
        error.files = {"grassmann.json": suite}  # run() writes the failed suite next to error.json
        raise error
    return {"grassmann.json": suite}


def _grid_axis(axis, name: str) -> list:
    where = f"grid.{name}"
    if isinstance(axis, dict):
        start, stop, num = (
            _parse_real(axis.get(key), f"{where}.{key}") for key in ("start", "stop", "num")
        )
        return list(np.linspace(start, stop, _check_count(int(num), where)))
    return [_parse_real(v, where) for v in (axis if isinstance(axis, (list, tuple)) else [axis])]


def _run_sweep(scenario, tol, step):
    grid = _require(scenario, "grid")
    if not isinstance(grid, dict):
        raise ValidationError("grid: expected an object of parameter axes")
    axes = {}
    for name in ("b", "b_z", "omega", "alpha", "a"):
        if name in grid:
            axes[name] = _grid_axis(grid[name], name)
        elif name in scenario:
            axes[name] = [_parse_real(scenario[name], name)]
        elif name == "a":
            axes[name] = [0.0]
        else:
            raise ValidationError(f"sweep needs {name!r} in the grid or as a scalar")
    count = _check_count(math.prod(len(axis) for axis in axes.values()), "grid")
    records = (
        _rabi_point(RabiParameters(b=b, b_z=b_z, omega=omega, alpha=alpha, a=a), tol)
        for b, b_z, omega, alpha, a in itertools.product(
            axes["b"], axes["b_z"], axes["omega"], axes["alpha"], axes["a"]
        )
    )
    return {"sweep.jsonl": records, "sweep.json": {"points": count}}


# kind -> handler(scenario, tol, step) returning {file name: content}, its report included
_HANDLERS = {
    "check": _run_check,
    "metric": _run_metric,
    "evolve": _run_evolve,
    "bloch": _run_bloch,
    "rabi": _run_rabi,
    "suppress": _run_suppress,
    "grassmann_verify": _run_grassmann,
    "sweep": _run_sweep,
}
KINDS = tuple(_HANDLERS)


def run(kind: str, scenario_path, out_dir, tol: float = 1e-10, step=None) -> int:
    """Execute one scenario; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        try:
            scenario = json.loads(Path(scenario_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read scenario: {exc}") from exc
        if not isinstance(scenario, dict):
            raise ValidationError("scenario must be a JSON object")
        declared = scenario.get("kind")
        if declared is not None and declared != kind:
            raise ValidationError(f"scenario kind {declared!r} does not match command {kind!r}")
        try:
            # numpy stays quiet on overflow: a check refuses every non-finite result (exit 2 or 3)
            with np.errstate(over="ignore", invalid="ignore"):
                _write(out, _HANDLERS[kind](scenario, tol, step))  # sweep records computed here
        except OverflowError as exc:  # Python float arithmetic past 1.8e308, e.g. b**2
            raise ValidationError(f"arithmetic overflow: {exc}") from exc
    except PseudospinError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        _write(out, {**getattr(exc, "files", {}), "error.json": error})
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pseudospin",
        description="Two-level pseudo-Hermitian dynamics: checks, metrics, evolution, "
        "Rabi scenarios, damping suppression and Grassmann verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        name = kind.replace("_", "-")
        cmd = sub.add_parser(name, help=f"run a {name} scenario")
        cmd.add_argument("--scenario", required=True, help="scenario JSON file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance")
        cmd.add_argument("--step", type=float, default=None, help="time-grid step override")
    args = parser.parse_args(argv)
    kind = args.command.replace("-", "_")
    return run(kind, args.scenario, args.out, tol=args.tol, step=args.step)


if __name__ == "__main__":
    sys.exit(main())
