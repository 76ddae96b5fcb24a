"""Output verification against independent references, outside the timed loop.

Each check recomputes what an op should have written from the scenario
alone (scipy's expm and solve_ivp, or the closed forms) and compares within
a stated tolerance, so refactors that change results at the ulp level
still pass.  A check returns a Verdict; any problem fails the op.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

# Stated tolerances.
EVOLVE_TOL = 1e-8  # Bloch components and norms against expm, relative to max(1, |ref|)
ETA_NORM_TOL = 1e-9  # |norm_eta - 1| on every row of an eta run
UNIT_TOL = 1e-8  # |projected n| - 1 on every row of a bloch run
BLOCH_TOL = 1e-7  # final Bloch vector against solve_ivp; RK4 at h = 0.01 errs by ~1e-9
CLOSED_FORM_TOL = 1e-12  # closed-form scalars, relative to max(1, |ref|)
SURFACE_TOL = 1e-10  # the CLI's default tolerance; sets the suppression-surface band

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass
class Verdict:
    """Outcome of verifying one op's output directory."""

    problems: list = field(default_factory=list)
    rows: int = 0
    bytes: int = 0
    points: int = 0
    # Sweep/rabi records whose regime and omega_sq disagree inside the
    # suppression-surface tolerance band (the known predicate defect).
    surface_disagreements: int = 0

    def expect(self, condition, message):
        if not condition:
            self.problems.append(message)


def _cplx(value):
    """Decode the CLI's [re, im] pair encoding (also nested) into complex arrays."""
    a = np.asarray(value, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _scen_field(raw) -> np.ndarray:
    return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in raw])


def _close(a, b, tol=CLOSED_FORM_TOL) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def _hamiltonian(f) -> np.ndarray:
    return 0.5 * sum(c * s for c, s in zip(f, SIGMA))


def _read_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _grid(window) -> np.ndarray:
    start = float(window.get("start", 0.0))
    if "num" in window:
        return np.linspace(start, float(window["stop"]), int(window["num"]))
    step = float(window["step"])
    return start + step * np.arange(int(round((float(window["stop"]) - start) / step)) + 1)


def _tally(out: Path, verdict: Verdict) -> None:
    """Rows are CSV data rows and JSONL records; each JSON report counts as one."""
    for path in out.iterdir():
        verdict.bytes += path.stat().st_size
        lines = path.read_bytes().count(b"\n")
        if path.suffix == ".csv":
            verdict.rows += lines - 1
        elif path.suffix == ".jsonl":
            verdict.rows += lines
        else:
            verdict.rows += 1


# ------------------------------------------------------------------ evolve


def _limit_real_field(f: np.ndarray) -> np.ndarray:
    """Real field of the alpha family: sqrt(F.F) / |Re F| * Re F."""
    return np.sqrt(np.sum(f * f).real) / np.linalg.norm(f.real) * f.real


def _check_evolve(scen, out, v: Verdict):
    data = _read_csv(out / "trajectory.csv")
    times = _grid(scen["time"])
    v.expect(data.shape == (len(times), 9), f"trajectory shape {data.shape}")
    if data.shape != (len(times), 9):
        return
    v.expect(_close(data[:, 0], times), "time column differs from the grid")
    f = _scen_field(scen["field"])
    h = _hamiltonian(f)
    psi0 = np.array([complex(*z) for z in scen["state"]])
    eta = iso = None
    if scen.get("metric", "canonical") == "eta":
        b = _limit_real_field(f)
        iso = np.array([[b[0] / f[0], (f[2] - b[2]) / f[0]], [0.0, 1.0]])
        eta = np.linalg.inv(iso @ iso.conj().T)
        psi0 = psi0 / np.sqrt(np.vdot(psi0, eta @ psi0).real)
        v.expect(np.all(np.abs(data[:, 8] - 1.0) <= ETA_NORM_TOL), "eta norm column is not 1")
    else:
        psi0 = psi0 / np.linalg.norm(psi0)
        v.expect(np.array_equal(data[:, 7], data[:, 8]), "canonical run: norm columns differ")
    # Every row: psi(t) = expm(-i H t) psi0, batched over the grid.
    psi = expm(-1j * h[None] * (times - times[0])[:, None, None]) @ psi0
    if eta is None:
        weight, ops = np.eye(2), SIGMA
    else:
        weight = eta
        bare = scen.get("observables", "dressed") == "bare"
        ops = SIGMA if bare else [iso @ s @ np.linalg.inv(iso) for s in SIGMA]
    norm_sq = np.einsum("ki,ij,kj->k", psi.conj(), weight, psi).real
    n = np.stack([np.einsum("ki,ij,kj->k", psi.conj(), weight @ s, psi) for s in ops], axis=1)
    n /= norm_sq[:, None]
    ref = np.column_stack([n.real[:, 0], n.imag[:, 0], n.real[:, 1], n.imag[:, 1],
                           n.real[:, 2], n.imag[:, 2], np.linalg.norm(psi, axis=1),
                           np.sqrt(norm_sq)])
    ok = np.abs(data[:, 1:] - ref) <= EVOLVE_TOL * np.maximum(1.0, np.abs(ref))
    bad = np.flatnonzero(~np.all(ok, axis=1))
    if len(bad):
        v.problems.append(f"{len(bad)} rows differ from the expm reference, first {bad[0]}")
    summary = json.loads((out / "evolve.json").read_text())
    v.expect(summary["samples"] == len(times), "evolve.json sample count")


# ------------------------------------------------------------------- bloch


def _bloch_rhs(scen):
    model = scen.get("model", "damped")
    if model in ("damped", "precession"):
        f = _scen_field(scen["field"])
        return lambda t, n: -np.cross(n, f.real) - np.cross(n, np.cross(n, f.imag))
    b = _scen_field(scen["field"]).real
    alpha = scen["alpha"]

    def llg(t, n):
        return (-np.cross(n, b) - alpha * np.cross(n, np.cross(n, b))) / (1.0 + alpha**2)

    if model == "llg":
        return llg
    a, p = scen["a"], np.array(scen["polarization"])
    return lambda t, n: llg(t, n) + a * np.cross(n, np.cross(n, p))


def _check_bloch(scen, out, v: Verdict):
    data = _read_csv(out / "trajectory.csv")
    times = _grid(scen["time"])
    v.expect(data.shape == (len(times), 9), f"trajectory shape {data.shape}")
    if data.shape != (len(times), 9):
        return
    v.expect(_close(data[:, 0], times), "time column differs from the grid")
    v.expect(not np.any(data[:, 2:7:2]), "classical Bloch vector has imaginary parts")
    v.expect(np.all(np.abs(data[:, 8] - 1.0) <= UNIT_TOL), "projected |n| is not 1")
    ref = solve_ivp(
        _bloch_rhs(scen), (times[0], times[-1]), np.array(scen["n0"], dtype=float),
        method="DOP853", rtol=1e-12, atol=1e-12,
    ).y[:, -1]
    v.expect(np.max(np.abs(data[-1, 1:7:2] - ref)) <= BLOCH_TOL,
             "final state differs from the solve_ivp reference")
    summary = json.loads((out / "bloch.json").read_text())
    v.expect(np.allclose(summary["final"], data[-1, 1:7:2], rtol=0, atol=1e-15),
             "bloch.json final differs from the last row")


# -------------------------------------------------------------------- rabi


def _check_rabi_record(r, p, v: Verdict):
    """Recompute a sweep/rabi record from the closed forms.

    Inside the tolerance band around the suppression surface the record's
    regime and omega_sq come from predicates with different tolerance
    scales; a disagreement there is tallied as the known defect.  Anywhere
    else regime and omega_sq must agree with an independent classification.
    """
    b, b_z, omega, alpha = p["b"], p["b_z"], p["omega"], p.get("alpha", 0.0)
    delta = b_z - omega
    residual = b**2 + delta**2 - (alpha * omega) ** 2 + delta * omega * (1.0 - alpha**2)
    v.expect(all(r[k] == p.get(k, 0.0) for k in ("b", "b_z", "omega", "alpha", "a")),
             "record parameters differ from the grid")
    v.expect(_close(r["delta"], delta) and _close(r["rabi_freq_sq"], b**2 + delta**2),
             "delta or rabi_freq_sq")
    v.expect(abs(r["cond_residual"] - residual) <= CLOSED_FORM_TOL * max(1.0, b**2, omega**2),
             "cond_residual")
    radicand = b_z * (omega * (1.0 + alpha**2) - b_z)
    solvable = alpha != 0.0 and b_z != 0.0 and radicand > 0.0 and delta * omega <= 0.0
    if solvable:
        v.expect(r["suppression_b"] is not None and _close(r["suppression_b"], np.sqrt(radicand)),
                 "suppression_b")
    else:
        v.expect(r["suppression_b"] is None, "suppression_b should be null")
    if r["omega_sq"] is not None:
        v.expect(r["omega_sq"] == -delta * omega, "omega_sq differs from -delta * omega")
    ph_like = r["regime"] in ("pseudo_hermitian", "critical")
    consistent = (r["omega_sq"] is not None) == ph_like
    scale = max(1.0, b**2, delta**2, omega**2, (alpha * omega) ** 2)
    if alpha == 0.0:
        v.expect(r["regime"] == "hermitian", "alpha = 0 must be hermitian")
    elif abs(residual) > SURFACE_TOL * scale:
        v.expect(r["regime"] == "non_pseudo_hermitian" and r["omega_sq"] is None,
                 "point off the suppression surface classified as suppressed")
    elif abs(residual) <= 1e-3 * SURFACE_TOL and delta * omega < 0.0:
        v.expect(r["regime"] == "pseudo_hermitian" and r["omega_sq"] is not None,
                 "point on the suppression surface not classified as suppressed")
    elif not consistent:
        v.surface_disagreements += 1


def _check_sweep(scen, out, v: Verdict):
    grid = scen["grid"]
    axes = [grid.get(k, [scen.get(k, 0.0)]) for k in ("b", "b_z", "omega", "alpha", "a")]
    lines = (out / "sweep.jsonl").read_text().splitlines()
    points = list(itertools.product(*axes))
    v.expect(len(lines) == len(points), f"{len(lines)} records for {len(points)} points")
    for line, point in zip(lines, points):
        _check_rabi_record(json.loads(line), dict(zip(("b", "b_z", "omega", "alpha", "a"), point)), v)
    v.points += len(lines)
    v.expect(json.loads((out / "sweep.json").read_text()) == {"points": len(points)}, "sweep.json")


def _check_rabi(scen, out, v: Verdict):
    r = json.loads((out / "rabi.json").read_text())
    _check_rabi_record(r, scen, v)
    v.points += 1
    p = scen
    delta = p["b_z"] - p["omega"]
    omega_r = np.sqrt(p["b"] ** 2 + delta**2)
    if p.get("alpha", 0.0) == 0.0:
        form, freq = "undamped", omega_r
    elif r["omega_sq"] is not None:
        form, freq = "suppressed_damping", np.sqrt(max(-delta * p["omega"], 0.0))
    else:
        form = freq = None
    v.expect(r["amplitude_form"] == form, "amplitude_form")
    if form is None or "time" not in scen:
        v.expect(not (out / "amplitude.csv").exists(), "unexpected amplitude.csv")
        return
    data = _read_csv(out / "amplitude.csv")
    times = _grid(scen["time"])
    v.expect(data.shape == (len(times), 3), f"amplitude shape {data.shape}")
    if data.shape == (len(times), 3):
        amp = -1j * (p["b"] / omega_r) * np.sin(0.5 * freq * times)
        v.expect(_close(data[:, 0], times) and _close(data[:, 1] + 1j * data[:, 2], amp),
                 "amplitude differs from the closed form")


# ------------------------------------------------------------ small reports


def _check_check(scen, out, v: Verdict):
    r = json.loads((out / "check.json").read_text())
    f = _scen_field(scen["field"])
    sq = np.sum(f * f)
    v.expect(_close(complex(*r["field_square"]), sq), "field_square")
    v.expect(_close(complex(*r["det"]), -0.25 * sq), "det")
    eig = sorted(_cplx(r["eigenvalues"]), key=lambda z: (z.real, z.imag))
    ref = sorted(np.linalg.eigvals(_hamiltonian(f)), key=lambda z: (z.real, z.imag))
    v.expect(_close(eig, ref, 1e-9), "eigenvalues differ from numpy's")
    ph = abs(sq.imag) <= 1e-10 * max(1.0, abs(sq.real)) and sq.real >= 0.0
    v.expect(r["pseudo_hermitian"] == ph, "pseudo_hermitian flag")


def _check_metric(scen, out, v: Verdict):
    r = json.loads((out / "metric.json").read_text())
    f = _scen_field(scen["field"])
    b = _scen_field(scen["b_field"]) if "b_field" in scen else _limit_real_field(f)
    m, eta, rot = _cplx(r["isometry"]), _cplx(r["eta"]), _cplx(r["rotation"])
    v.expect(_close(_cplx(r["b_field"]), b, 1e-10), "b_field")
    v.expect(_close(m @ _hamiltonian(b) @ np.linalg.inv(m), _hamiltonian(f), 1e-10),
             "isometry does not conjugate H(b) into H(F)")
    v.expect(_close(eta, np.linalg.inv(m @ m.conj().T), 1e-10), "eta != (M M^dagger)^-1")
    v.expect(np.all(np.linalg.eigvalsh(0.5 * (eta + eta.conj().T)) > 0), "eta not positive")
    v.expect(_close(rot @ b, f, 1e-10) and _close(rot @ rot.T, np.eye(3), 1e-10), "rotation")


def _check_suppress(scen, out, v: Verdict):
    r = json.loads((out / "suppress.json").read_text())
    b_z, omega, alpha, a = scen["b_z"], scen["omega"], scen["alpha"], scen.get("a", 0.0)
    sq = b_z * (omega * (1 + alpha**2) - b_z) + (a / alpha) * (
        alpha * a - b_z * (1 - alpha**2) + omega * (1 + alpha**2)
    )
    v.expect(_close(r["b_squared"], sq) and _close(r["b"], np.sqrt(sq)), "suppression amplitude")
    v.expect(abs(r["residual"]) <= SURFACE_TOL * max(1.0, sq, omega**2), "residual not small")
    v.expect(r["delta"] == b_z - omega and r["a"] == a, "delta or a")


def _check_grassmann(scen, out, v: Verdict):
    r = json.loads((out / "grassmann.json").read_text())
    v.expect(r["required_pairs_exact"] is True, "required pairs not exact")
    v.expect(all(e["exact"] for e in r["generator_pairs"] + r["hamiltonian_pairs"]),
             "generator or Hamiltonian pair not exact")
    v.expect(len(r["generator_pairs"]) == 9 and len(r["hamiltonian_pairs"]) == 3, "pair counts")
    non_exact = [(e["a"], e["b"]) for e in r["basis_pairs"] if not e["exact"]]
    v.expect(non_exact == [(7, 7)], f"non-exact basis pairs {non_exact}, expected the top pair")
    v.expect([(e["a"], e["b"]) for e in r["non_exact_pairs"]] == [(7, 7)], "non_exact_pairs")
    v.expect(r["b_field"] == scen["b_field"], "b_field")


_CHECKS = {
    "evolve": _check_evolve,
    "bloch": _check_bloch,
    "sweep": _check_sweep,
    "rabi": _check_rabi,
    "check": _check_check,
    "metric": _check_metric,
    "suppress": _check_suppress,
    "grassmann_verify": _check_grassmann,
}


def verify(op, out: Path, code) -> Verdict:
    """Check one op's exit code and output files; code is an int or the exception raised."""
    v = Verdict()
    if out.is_dir():
        _tally(out, v)
    if code != op.expect_code:
        v.problems.append(f"exit code {code!r}, expected {op.expect_code}")
        return v
    try:
        if op.expect_code:
            err = json.loads((out / "error.json").read_text())
            v.expect(err["error"] == op.expect_error, f"error {err['error']}")
        else:
            _CHECKS[op.kind](op.scenario, out, v)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        v.problems.append(f"unreadable output: {exc!r}")
    return v
