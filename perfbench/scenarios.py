"""Seeded scenario generator for the four benchmark workloads.

Each workload is a fixed composition of operations; the seed only draws
their parameters, so every seed costs about the same and run-to-run spread
measures the program rather than the draw.  Scenarios are written to disk
before timing starts; the program only ever sees these files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("quantum_evolve", "classical_rk4", "rabi_sweep", "scenario_mix")

# Default sizes; the tests shrink them.
SIZES = {
    # Ops of about 20 ms, so that a run makes many passes over the scenario
    # set and its medians rest on many calls of every scenario.  The three
    # evolve kinds are sized to cost about the same:
    # a unimodal op-time distribution keeps the median off the gap between
    # kinds (a canonical sample is ~2x cheaper than an eta one).
    "evolve_samples": {"canonical": 401, "bare": 241, "dressed": 211},
    "bloch_steps": 50,
    "sweep_b": 60,
    "sweep_alpha": 6,
    "amplitude_samples": 1001,
}

# Relative offsets of b from the suppression surface: exactly on it, and
# log-uniformly between 1e-11 and 1e-9 either side.  These points sit in the
# tolerance band where the three suppression-surface predicates disagree.
NEAR_SURFACE_OFFSETS = 6


@dataclass(frozen=True)
class Op:
    """One cli.run call: its kind, scenario file and the expected outcome."""

    index: int
    kind: str
    label: str
    scenario: dict
    path: Path
    expect_code: int = 0
    expect_error: str | None = None


def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _unit(rng, size=3) -> np.ndarray:
    v = rng.normal(size=size)
    return v / np.linalg.norm(v)


def _ph_plane_field(rng):
    """Pseudo-Hermitian x-z field a e1 + i b e2 (e1 _|_ e2, b < a) and its family alpha.

    The CLI builds the real field from the limit family
    F(s) = Re F + i (s / alpha) Im F, which is real at s = 0.
    """
    theta = rng.uniform(0.3, 1.2)
    e1 = np.array([np.sin(theta), 0.0, np.cos(theta)])
    e2 = np.array([np.cos(theta), 0.0, -np.sin(theta)])
    a = rng.uniform(0.8, 1.6)
    b = a * rng.uniform(0.2, 0.8)
    field = a * e1 + 1j * b * e2
    return [_c(z) for z in field], float(rng.uniform(0.2, 0.9))


def _drive(rng):
    """Above-resonance drive (b_z < omega) where the suppression condition is solvable."""
    b_z = float(rng.uniform(0.5, 1.5))
    omega = float(b_z * rng.uniform(1.2, 2.5))
    return b_z, omega


def _state(rng) -> list:
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return [_c(z) for z in psi / np.linalg.norm(psi)]


def _quantum_evolve(rng, sizes):
    ops = []
    for _ in range(4):
        for metric, observables in (("canonical", None), ("eta", "dressed"), ("eta", "bare")):
            field, alpha = _ph_plane_field(rng)
            scen = {
                "kind": "evolve",
                "field": field,
                "alpha": alpha,
                "metric": metric,
                "state": _state(rng),
                "time": {"start": 0.0, "stop": float(rng.uniform(10, 30)),
                         "num": sizes["evolve_samples"][observables or metric]},
            }
            if observables:
                scen["observables"] = observables
            ops.append(("evolve", "/".join(filter(None, ("evolve", metric, observables))), scen))
    return ops


def _classical_rk4(rng, sizes):
    ops = []
    step = 0.01
    for _ in range(2):
        for model in ("damped", "llg", "llg_spin_valve"):
            for renormalize in (False, True):
                scen = {
                    "kind": "bloch",
                    "model": model,
                    "n0": _unit(rng).tolist(),
                    "renormalize": renormalize,
                    "time": {"start": 0.0, "stop": step * sizes["bloch_steps"], "step": step},
                }
                real = _unit(rng) * rng.uniform(0.5, 1.5)
                if model == "damped":
                    imag = _unit(rng) * rng.uniform(0.05, 0.3)
                    scen["field"] = [_c(z) for z in real + 1j * imag]
                else:
                    scen["field"] = real.tolist()
                    scen["alpha"] = float(rng.uniform(0.05, 0.3))
                if model == "llg_spin_valve":
                    scen["a"] = float(rng.uniform(0.02, 0.1))
                    scen["polarization"] = _unit(rng).tolist()
                ops.append(("bloch", f"bloch/{model}/{'renorm' if renormalize else 'raw'}", scen))
    return ops


def _sweep(rng, sizes, solve_b):
    """Product grid b x alpha at one drive; alpha = 0 gives the Hermitian regime.

    For every nonzero alpha the b axis carries solve_suppression_B's amplitude
    and NEAR_SURFACE_OFFSETS relative offsets of it, so a fixed share of the
    grid lies on or next to the suppression surface.
    """
    b_z, omega = _drive(rng)
    alphas = [0.0] + sorted(rng.uniform(0.05, 0.95, size=sizes["sweep_alpha"] - 1).tolist())
    b_axis = []
    for alpha in alphas[1:]:
        b_star = solve_b(b_z, omega, alpha)
        mags = 10.0 ** rng.uniform(-11, -9, size=NEAR_SURFACE_OFFSETS)
        signs = rng.choice([-1.0, 1.0], size=NEAR_SURFACE_OFFSETS)
        b_axis += [b_star] + [b_star * (1.0 + s * m) for s, m in zip(signs, mags)]
    regular = sizes["sweep_b"] - len(b_axis)
    b_axis += np.linspace(0.1, 3.0, max(regular, 0)).tolist()
    return {
        "kind": "sweep",
        "b_z": b_z,
        "omega": omega,
        "grid": {"b": [float(b) for b in b_axis], "alpha": alphas},
    }


def _rabi_sweep(rng, sizes, solve_b):
    ops = [("sweep", "sweep", _sweep(rng, sizes, solve_b)) for _ in range(4)]
    b_z, omega = _drive(rng)
    alpha = float(rng.uniform(0.05, 0.95))
    window = {"start": 0.0, "stop": float(rng.uniform(20, 60)), "num": sizes["amplitude_samples"]}
    ops.append(("rabi", "rabi/suppressed", {
        "kind": "rabi", "b": solve_b(b_z, omega, alpha), "b_z": b_z, "omega": omega,
        "alpha": alpha, "time": window}))
    ops += [("sweep", "sweep", _sweep(rng, sizes, solve_b)) for _ in range(4)]
    b_z, omega = _drive(rng)
    ops.append(("rabi", "rabi/undamped", {
        "kind": "rabi", "b": float(rng.uniform(0.2, 2.0)), "b_z": b_z, "omega": omega,
        "time": window}))
    return ops


def _scenario_mix(rng, sizes, solve_b):
    """Fixed composition of 50 small ops; the seed draws parameters and order.

    Ranked by cost the cheap ops (invalid, suppress, rabi) fill the lowest
    38%, check ops 38-62% and grassmann-verify the top 20%, so the median
    falls in the middle of the check ops and the 90th percentile in the
    middle of the Grassmann suites rather than on a boundary between kinds.
    """
    ops = []
    for _ in range(10):
        ops.append(("grassmann_verify", "grassmann",
                    {"kind": "grassmann_verify", "b_field": (rng.normal(size=3)).tolist()}))
    for _ in range(12):
        if rng.random() < 0.5:
            field, _ = _ph_plane_field(rng)
        else:
            field = [_c(z) for z in rng.normal(size=3) + 1j * rng.normal(size=3)]
        ops.append(("check", "check", {"kind": "check", "field": field}))
    for i in range(9):
        field, alpha = _ph_plane_field(rng)
        scen = {"kind": "metric", "field": field, "alpha": alpha}
        if i % 2:
            # Same real field, given explicitly instead of through the family.
            f = np.array([complex(*z) for z in field])
            b = np.sqrt(np.sum(f * f).real) / np.linalg.norm(f.real) * f.real
            del scen["alpha"]
            scen["b_field"] = b.tolist()
        ops.append(("metric", "metric", scen))
    for i in range(4):
        b_z, omega = _drive(rng)
        scen = {"kind": "suppress", "b_z": b_z, "omega": omega,
                "alpha": float(rng.uniform(0.05, 0.95))}
        if i % 3 == 2:
            scen["a"] = float(rng.uniform(0.01, 0.1))
        ops.append(("suppress", "suppress", scen))
    for i in range(3):
        b_z, omega = _drive(rng)
        alpha = float(rng.uniform(0.05, 0.95)) if i % 3 else 0.0
        b = solve_b(b_z, omega, alpha) if i % 3 == 1 else float(rng.uniform(0.2, 2.0))
        ops.append(("rabi", "rabi", {"kind": "rabi", "b": b, "b_z": b_z, "omega": omega,
                                     "alpha": alpha}))
    # Invalid or infeasible scenarios with a defined exit code.
    for _ in range(3):
        ops.append(("check", "invalid/field_length",
                    {"kind": "check", "field": rng.normal(size=2).tolist()}, 2, "ValidationError"))
        b_z = float(rng.uniform(0.5, 1.5))
        ops.append(("suppress", "infeasible/below_resonance",
                    {"kind": "suppress", "b_z": b_z, "omega": b_z * float(rng.uniform(0.2, 0.8)),
                     "alpha": float(rng.uniform(0.05, 0.5))}, 3, "NoRealSolutionError"))
        field = [_c(z) for z in rng.normal(size=3) + 1j * rng.normal(size=3)]
        ops.append(("metric", "invalid/metric_without_b_field",
                    {"kind": "metric", "field": field}, 2, "ValidationError"))
        ops.append(("check", "invalid/kind_mismatch",
                    {"kind": "metric", "field": rng.normal(size=3).tolist()}, 2,
                    "ValidationError"))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def describe(workload: str) -> dict:
    """Composition of one pass over a workload's scenario set, as label -> count."""
    counts: dict = {}
    for op in _specs(workload, 0, SIZES):
        counts[op[1]] = counts.get(op[1], 0) + 1
    return dict(sorted(counts.items()))


def _specs(workload, seed, sizes):
    from pseudospin.rabi import solve_suppression_B

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "quantum_evolve":
        return _quantum_evolve(rng, sizes)
    if workload == "classical_rk4":
        return _classical_rk4(rng, sizes)
    if workload == "rabi_sweep":
        return _rabi_sweep(rng, sizes, solve_suppression_B)
    if workload == "scenario_mix":
        return _scenario_mix(rng, sizes, solve_suppression_B)
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, directory: Path, sizes=None) -> list[Op]:
    """Write one pass of the workload's scenarios into directory; return the ops."""
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for index, spec in enumerate(_specs(workload, seed, sizes or SIZES)):
        kind, label, scenario = spec[:3]
        path = directory / f"{index:03d}-{kind}.json"
        path.write_text(json.dumps(scenario))
        ops.append(Op(index, kind, label, scenario, path, *spec[3:]))
    return ops
