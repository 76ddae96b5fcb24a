"""Command-line driver: scenario files in, trajectories and reports out.

Scenarios are JSON; complex numbers are [re, im] pairs (plain numbers are
accepted as reals).  A scenario file is read in one unbuffered binary read
and decoded as strict UTF-8 with universal newlines; a file that is missing,
not UTF-8 or not JSON, nests past the recursion limit or holds an integer
past the digit limit is a validation problem.  Every run writes its output
into the --out directory (created with its parents if it is not a directory
yet) and exits 0 on success, 2 on a validation problem and 3 when the
mathematics refuses (no real solution, wrong regime, ...).
Handlers compute and return their files; run() checks every number in
them for finiteness and encodes them all to bytes before it writes any, so
a non-zero exit writes only error.json (plus grassmann.json for a failed
suite).  Each file is rewritten in place with os.write, without Python's
text I/O layer.  Identical scenarios produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import __version__
from ._g17 import csv_text
from .dynamics import (  # rhs_llg only because perfbench/tests looks up cli.rhs_llg
    Trajectory,
    _check_observables,
    bloch_model,
    evolve_trajectory,
    integrate,
    rhs_llg,
)
from .exceptions import PseudospinError, ValidationError
from .grassmann import _fixed_part, _hamiltonian_pairs
from .linalg import (
    DEFAULT_TOL,
    _operator_square,
    field_square,
    hamiltonian_from_field,
    principal_sqrt,
    spectrum,
)
from .metric import _square_in_r_plus, build_isometry, canonical_limit_field, canonical_rotation
from .rabi import (
    REGIME_CRITICAL,
    REGIME_HERMITIAN,
    REGIME_NON_PSEUDO_HERMITIAN,
    REGIME_PSEUDO_HERMITIAN,
    PseudoHermitianRabi,
    RabiParameters,
    _is_critical,
    _spin_valve_residual,
    _surface_test,
    ph_condition_residual,
    ph_condition_residual_spin_valve,
    ph_rabi_amplitude,
    rabi_amplitude,
    solve_suppression_B,
    solve_suppression_spin_valve,
)

# ----------------------------------------------------------- scenario parsing

_MAX_POINTS = 10**6  # samples in a time grid or points in a sweep: 100x the largest documented


def _parse_real(value, where: str) -> float:
    """Every real number a scenario holds is read here: a finite JSON number, or a ValidationError.

    A bool or a string is not a number here, though float() would take either.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past 1.8e308
        x = math.inf
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


def _parse_count(value, where: str) -> int:
    """A scenario's sample or point count: a whole number in range."""
    x = _parse_real(value, where)
    if not x.is_integer():
        raise ValidationError(f"{where}: expected a whole number, got {value!r}")
    return _check_count(int(x), where)


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
        return np.linspace(start, stop, _parse_count(window["num"], "time.num"))
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


class _Encoded:
    """JSON text that _report writes as it stands: a value of a report's top-level dict, encoded
    beforehand at that indent (as _report(value, "\n  ") gives it)."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


# the text of a str, int, float or bool, by its exact type
_LEAF_TEXTS = {
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    str: encode_basestring_ascii,
}


def _report(value, newline: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False) writes it.

    json takes its C encoder only without indent, so reports are encoded here, by exact type:
    dicts with str keys, lists, str, int, float, bool and None, plus an ndarray as its tolist()
    and a complex as [re, im], which a parent writes in its own loop, and an _Encoded child,
    written as its text.  Any other type, a subclass or NumPy scalar too, is a TypeError, and
    NaN and Infinity are json's ValueError.
    A list of records is written column by column (_records).  newline is the line break and
    indent that precede a closing bracket of value.
    """
    if type(value) is np.ndarray:
        value = value.tolist()
    kind = type(value)
    if kind is complex:
        value, kind = [value.real, value.imag], list
    elif kind is not dict and kind is not list:
        if value is None:
            return "null"
        if kind not in _LEAF_TEXTS:
            raise TypeError(f"{kind.__name__} is not JSON serializable")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return _LEAF_TEXTS[kind](value)
    brackets = "{}" if kind is dict else "[]"
    if not value:
        return brackets
    if kind is list and type(value[0]) is dict:
        text = _records(value, newline)
        if text is not None:
            return text
    inner = newline + "  "
    texts = []
    for v in sorted(value.items()) if kind is dict else value:
        if kind is dict:  # the key is encoded before the value: a key that is not a str is refused
            key, v = encode_basestring_ascii(v[0]), v[1]
        child = type(v)
        if child is float:
            text = float.__repr__(v)
            if text in _NON_FINITE:
                raise ValueError(f"Out of range float values are not JSON compliant: {text}")
        elif child is str:
            text = encode_basestring_ascii(v)
        elif child is int:
            text = int.__repr__(v)
        elif child is bool:
            text = "true" if v else "false"
        elif v is None:
            text = "null"
        elif child is complex:  # [re, im], as the recursion writes the list
            re, im = float.__repr__(v.real), float.__repr__(v.imag)
            if re in _NON_FINITE or im in _NON_FINITE:
                bad = re if re in _NON_FINITE else im
                raise ValueError(f"Out of range float values are not JSON compliant: {bad}")
            text = f"[{inner}  {re},{inner}  {im}{inner}]"
        elif child is _Encoded:
            text = v.text
        else:
            text = _report(v, inner)
        texts.append(f"{key}: {text}" if kind is dict else text)
    return f"{brackets[0]}{inner}{(',' + inner).join(texts)}{newline}{brackets[1]}"


def _records(records, newline: str):
    """_report of a list of records, written column by column, or None to take the recursion.

    Records are dicts with one set of keys, whose column for each key holds one exact type of
    _LEAF_TEXTS.  One % template covers all the records: an int or float column goes into it as
    it is, since %s of an exact int or float is its repr, and a bool or str column as the texts
    of one map.  Anything else is None, and so is a float column whose sum is not finite: the
    recursion writes it, or refuses it with json's message.
    """
    if set(map(type, records)) != {dict} or not records[0]:
        return None
    if set(map(len, records)) != {len(records[0])}:
        return None
    try:
        keys = sorted(records[0])
        texts = []
        for key in keys:
            column = list(map(itemgetter(key), records))  # KeyError: the keys differ
            kind, *others = set(map(type, column))
            if others or kind not in _LEAF_TEXTS:
                return None
            if kind is float and not math.isfinite(sum(column)):
                return None
            texts.append(column if kind is int or kind is float else map(_LEAF_TEXTS[kind], column))
        inner = newline + "  "
        fields = f",{inner}  ".join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
        )
        template = f",{inner}".join([f"{{{inner}  {fields}{inner}}}"] * len(records))
        return f"[{inner}{template % tuple(chain.from_iterable(zip(*texts)))}{newline}]"
    except (KeyError, TypeError, ValueError):  # TypeError: a key that is not a str
        return None


# JSON lines per join, and sweep lines per block of arrays: holding a str per sweep line until
# the end costs about 49 B of header a line.
_BLOCK = 4096


def _encode(name: str, content) -> bytes:
    """File bytes by content: a dict is a JSON report, a (header, columns) tuple a CSV table,
    and any other iterable the lines of a JSON-lines file.  Reports and lines are ASCII: their
    strings went through encode_basestring_ascii.  A table is a memoryview and JSON lines are a
    bytearray, grown by a block at a time, so the file is never held twice."""
    try:
        if isinstance(content, dict):
            return (_report(content) + "\n").encode("ascii")
        # lines of _sweep_lines, each checked as it comes, so that the first bad point decides:
        # a non-finite line is refused before a later point raises an OverflowError
        if not isinstance(content, tuple):
            data, block = bytearray(), []
            for line in content:
                # NaN and Infinity are the only capital letters such a line can hold; the
                # message is the one json's C encoder gives for them with allow_nan=False
                if "N" in line or "I" in line:
                    raise ValueError("Out of range float values are not JSON compliant")
                block.append(line)
                if len(block) == _BLOCK:
                    data += "".join(block).encode("ascii")
                    block = []
            data += "".join(block).encode("ascii")
            return data
    except ValueError as exc:  # Infinity and NaN are not JSON
        raise ValidationError(f"result is not finite: {exc}") from exc
    header, columns = content
    if not all(np.isfinite(column).all() for column in columns):
        raise ValidationError(f"result is not finite: {name} has a non-finite entry")
    return csv_text(header, columns)


def _write(out: str, files: dict) -> None:
    """Write {file name: content} into out; every file is encoded before any is written.  A file
    is rewritten in place, opened without O_TRUNC (ext4 frees and flushes the blocks of a file
    truncated to zero) and cut at the end of the new bytes."""
    encoded = {name: _encode(name, content) for name, content in files.items()}
    for name, data in encoded.items():
        fd = os.open(os.path.join(out, name), os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            rest = memoryview(data)
            while rest:  # os.write may write fewer bytes than it is given
                rest = rest[os.write(fd, rest) :]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)


# --------------------------------------------------------------- trajectories


_TRAJECTORY_HEADER = "t,n1_re,n1_im,n2_re,n2_im,n3_re,n3_im,norm_canonical,norm_eta"


def _trajectory_table(traj: Trajectory) -> tuple:
    canonical = traj.norms.get("canonical", traj.norms.get("raw"))
    eta = traj.norms.get("eta", traj.norms.get("projected"))
    if canonical is None:
        raise ValidationError("trajectory has no norm record")
    if eta is None:
        eta = canonical
    # views of complex states; real (bloch) states have new +0.0 arrays for .imag, not a cast
    n_re_im = [part for n in traj.states.reshape(len(traj), 3).T for part in (n.real, n.imag)]
    return _TRAJECTORY_HEADER, [traj.times, *n_re_im, canonical, eta]


def emit_trajectory(traj: Trajectory, path) -> None:
    """Write a finite trajectory as CSV with 17 significant digits and LF endings.

    Columns are the fixed schema t, n{1,2,3}_{re,im}, norm_canonical,
    norm_eta.  Quantum runs fill the norm columns with the canonical and
    metric norms; classical runs carry the raw and projected |n| there.
    """
    parent, name = os.path.split(os.fspath(path))
    _write(parent, {name: _trajectory_table(traj)})


def read_trajectory(path):
    """Parse a trajectory CSV back into (times, states, norms) arrays."""
    with open(path, newline="") as fh:
        if fh.readline().strip() != _TRAJECTORY_HEADER:
            raise ValidationError(f"{path}: not a trajectory file")
        with warnings.catch_warnings():
            # a header-only file is the empty trajectory emit_trajectory writes
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, 9)
    states = data[:, 1:7:2] + 1j * data[:, 2:8:2]
    return data[:, 0], states, {"canonical": data[:, 7], "eta": data[:, 8]}


# ----------------------------------------------------------------- metric aid


def _real_field(scenario: dict, field: np.ndarray, tol: float) -> np.ndarray:
    """The real field paired with the parsed field: b_field, the alpha limit, or a real field."""
    if "b_field" in scenario:
        return _parse_vector(scenario["b_field"], "b_field", 3)
    if "alpha" in scenario:
        alpha = _parse_real(scenario["alpha"], "alpha")
        if alpha == 0.0:
            raise ValidationError("alpha must be nonzero for the limit family")

        def family(a):
            return field.real + 1j * (a / alpha) * field.imag

        return canonical_limit_field(family, alpha, tol).astype(complex)
    if np.max(np.abs(field.imag)) < tol:
        return field.real.astype(complex)
    raise ValidationError("metric construction needs b_field or alpha for a complex field")


# ------------------------------------------------------------------- handlers


def _run_check(scenario, tol, step):
    field = _parse_vector(_require(scenario, "field"), "field", 3)
    h = hamiltonian_from_field(field)
    # the square that spectrum(h) and is_pseudo_hermitian(h, tol) would each compute
    sq = _operator_square(h, DEFAULT_TOL)
    e_plus = 0.5 * principal_sqrt(sq)
    payload = {
        "field": field,
        "field_square": field_square(field),
        "det": complex(np.linalg.det(h)),
        "pseudo_hermitian": _square_in_r_plus(sq, tol),
        "eigenvalues": [e_plus, -e_plus],
    }
    return {"check.json": payload}


def _run_metric(scenario, tol, step):
    field = _parse_vector(_require(scenario, "field"), "field", 3)
    real_field = _real_field(scenario, field, tol)
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
        # the canonical readout is bare: any other set is refused as bloch_eta refuses it
        # without an isometry
        _check_observables(scenario.get("observables", "bare"), None)
        traj = evolve_trajectory(h, psi0, grid)
    elif metric_tag == "eta":
        pair = build_isometry(field, _real_field(scenario, field, tol), tol)
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
    renormalize = scenario.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise ValidationError(f"renormalize: expected true or false, got {renormalize!r}")
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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x) -> str:
    """x as json.dumps(allow_nan=True) writes a float; float.__repr__ also reads an np.float64."""
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _numbers(values: np.ndarray) -> list:
    """_number of each entry of a float64 array, in C order."""
    floats = values.ravel().tolist()
    texts = list(map(float.__repr__, floats))
    # a sum of finite floats is finite unless it overflows, which only costs the slow path
    return texts if math.isfinite(sum(floats)) else [_NON_FINITE.get(t, t) for t in texts]


def _squares(values, stride: int, raised: list) -> list:
    """Python's x**2 of each value on its own type (numpy's x * x differs in the last bit).  A
    square that raises OverflowError reads inf, and (stride times the value's position, the
    error) goes into raised."""
    squares = []
    for k, x in enumerate(values):
        try:
            squares.append(x**2)
        except OverflowError as exc:
            squares.append(math.inf)
            raised.append((stride * k, exc))
    return squares


def _suppression(z, w, alpha) -> str:
    """The text from suppression_b to the end of a line, for one (drive, alpha)."""
    try:
        return f'"suppression_b": {_number(solve_suppression_B(z, w, alpha))}}}\n'
    except PseudospinError:
        return '"suppression_b": null}\n'
    except OverflowError:  # alpha**2, so the sweep stops before alpha's first point
        return ""


def _sweep_lines(axes, tol):
    """Per point of the axes (b, b_z, omega, alpha, a), in itertools.product order, the line
    json.dumps(record, sort_keys=True, allow_nan=True) writes.

    Each text that depends on fewer than all five axes is formatted once, into a table indexed
    by the axes it depends on (an index, unlike a value, keeps 0.0 and -0.0 apart); squares are
    Python's x**2 on the axes' own types.  Lines come in blocks of at most _BLOCK, and np.divmod
    of a block's line numbers gives each line's (b, drive, alpha, a) indices.  rabi_freq_sq,
    cond_residual and the surface verdict are float64 arrays over the block in the rabi
    module's operation order, so each is the float the scalar code gives; rabi_freq_sq is
    formatted once per (b, drive) row, as a block's rows are consecutive.  A line is the join
    of its table entries (those that follow the verdict are looked up with it) and its two
    numbers.  A spin-valve residual (a != 0) is computed per line.  A square that raises
    OverflowError raises it after the lines of the points before the first point whose record
    needs it, so the first bad point in product order decides between a non-finite line and an
    overflow.
    """
    bs, zs, ws, alphas, torques = axes
    drives = [(z, w, z - w) for z in zs for w in ws]
    n_d, n_alpha, n_a = len(drives), len(alphas), len(torques)
    raised = []  # (point index, OverflowError) of each square that overflows
    b_sq = np.array(_squares(bs, n_d * n_alpha, raised))
    d_sq = np.array(_squares([d for _, _, d in drives], n_alpha, raised))
    w_sq = np.array(_squares([w for _, w, _ in drives], n_alpha, raised))
    dw = np.array([d * w for _, w, d in drives])
    alpha_sq = np.array(_squares(alphas, 1, raised))
    aw_sq = np.array(_squares([a * w for _, w, _ in drives for a in alphas], 1, raised))
    stop, error = min(raised, key=lambda r: r[0]) if raised else (len(bs) * n_d * n_alpha, None)
    a_texts, w_texts = [_number(a) for a in torques], [_number(w) for w in ws]
    heads = [f'{{"a": {a}, "alpha": {x}, "b": ' for x in map(_number, alphas) for a in a_texts]
    b_texts = [_number(b) for b in bs]
    z_texts = [f', "b_z": {_number(z)}, "cond_residual": ' for z in zs for _ in ws]
    mids = []  # per (drive, verdict): on the surface omega_sq is PseudoHermitianRabi.omega_sq
    for (_, w, d), w_text in zip(drives, w_texts * len(zs)):
        fields = f', "delta": {_number(d)}, "omega": {w_text}, "omega_sq": %s, "rabi_freq_sq": '
        mids += [fields % _number(max(-d * w, 0.0)), fields % "null"]
    # per (regime kind, verdict): classify_regime puts alpha = 0, then a critical drive, before
    # the surface test; kinds holds 0, 2 or 4 per (drive, alpha)
    regimes = [f', "regime": "{r}", ' for r in (
        REGIME_HERMITIAN, REGIME_HERMITIAN, REGIME_CRITICAL, REGIME_CRITICAL,
        REGIME_PSEUDO_HERMITIAN, REGIME_NON_PSEUDO_HERMITIAN,
    )]
    kinds = np.array([
        0 if alpha == 0.0 else 2 if critical else 4
        for critical in (_is_critical(d, w, z, tol) for z, w, d in drives) for alpha in alphas
    ], dtype=np.int8)
    ends = [_suppression(z, w, alpha) for z, w, _ in drives for alpha in alphas]
    heads, b_texts, z_texts, mids, regimes, ends = (
        np.array(table, dtype=object) for table in (heads, b_texts, z_texts, mids, regimes, ends)
    )
    spin_valve = np.array([a != 0.0 for a in torques])
    for start in range(0, stop * n_a, _BLOCK):
        line = np.arange(start, min(start + _BLOCK, stop * n_a))
        row, col = np.divmod(line, n_alpha * n_a)  # (b, drive) row and (alpha, a) column
        (i, n), (j, m) = np.divmod(row, n_d), np.divmod(col, n_a)
        q = n * n_alpha + j  # (drive, alpha)
        rows = np.arange(row[0], row[-1] + 1)  # a block's rows are consecutive
        row -= row[0]
        with np.errstate(over="ignore", invalid="ignore"):
            rabi_freq_sq = b_sq[rows // n_d] + d_sq[rows % n_d]  # per row
            b2, d2, aw, dw_n = b_sq[i], d_sq[n], aw_sq[q], dw[n]
            residual = (rabi_freq_sq[row] - aw) + dw_n * (1.0 - alpha_sq[j])
            off = np.logical_or(*_surface_test(residual, dw_n, b2, d2, w_sq[n], aw, tol))
        tails = ends[q]
        for k in np.flatnonzero(spin_valve[m]).tolist():
            z, w, _ = drives[n[k]]
            text = _number(_spin_valve_residual(bs[i[k]], z, w, alphas[j[k]], torques[m[k]]))
            tails[k] = f'"spin_valve_residual": {text}, {tails[k]}'
        rabi_texts = np.array(_numbers(rabi_freq_sq), dtype=object)
        yield from map("".join, zip(
            heads[col].tolist(), b_texts[i].tolist(), z_texts[n].tolist(), _numbers(residual),
            mids[2 * n + off].tolist(), rabi_texts[row].tolist(), regimes[kinds[q] + off].tolist(),
            tails.tolist(),
        ))
    if error is not None:
        raise error


def _run_rabi(scenario, tol, step):
    p = RabiParameters(
        b=_parse_real(_require(scenario, "b"), "b"),
        b_z=_parse_real(_require(scenario, "b_z"), "b_z"),
        omega=_parse_real(_require(scenario, "omega"), "omega"),
        alpha=_parse_real(scenario.get("alpha", 0.0), "alpha"),
        a=_parse_real(scenario.get("a", 0.0), "a"),
    )
    # a one-point grid: the record is that point's sweep line, read back
    payload = json.loads(next(_sweep_lines([[p.b], [p.b_z], [p.omega], [p.alpha], [p.a]], tol)))
    files = {"rabi.json": payload}
    if p.alpha == 0.0:
        form = "undamped"
    else:  # omega_sq is null off the suppression surface
        form = None if payload["omega_sq"] is None else "suppressed_damping"
    payload["amplitude_form"] = form
    if form is not None and "time" in scenario:
        grid = _parse_time_grid(scenario["time"], step)
        if form == "undamped":
            z = rabi_amplitude(p, grid)
        else:  # the line's omega_sq says p is on the surface, so PseudoHermitianRabi accepts it
            z = ph_rabi_amplitude(PseudoHermitianRabi(p, tolerance=tol), grid)
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


@functools.lru_cache(maxsize=16)
def _fixed_report(tol: float) -> tuple:
    """The suite's fixed part at tol and its generator, basis and non-exact record lists, each
    encoded once as an _Encoded value of the report.  The cache keys on tol alone and holds at
    most 16 tolerances; the text is that of the part it is returned with."""
    fixed = _fixed_part(tol)
    return fixed, tuple(_Encoded(_report(records, "\n  ")) for records in fixed.records())


def _run_grassmann(scenario, tol, step):
    """correspondence_suite's report and the two keys of the CLI, with the 73 field-independent
    records written from text encoded once per tolerance."""
    field = _parse_vector(scenario.get("b_field", [0.7, -1.1, 0.4]), "b_field", 3, _parse_real)
    tol = max(tol, 1e-13)
    fixed, (generator_pairs, basis_pairs, non_exact_pairs) = _fixed_report(tol)
    hamiltonian = _hamiltonian_pairs(field, tol)
    suite = {
        "generator_pairs": generator_pairs,
        "hamiltonian_pairs": hamiltonian,
        "basis_pairs": basis_pairs,
        **fixed.totals(hamiltonian),
        "non_exact_pairs": non_exact_pairs,
        "required_pairs_exact": fixed.generators_exact and all(e["exact"] for e in hamiltonian),
        "b_field": field,
    }
    if not suite["required_pairs_exact"]:
        error = ValidationError("generator or Hamiltonian correspondence pairs failed")
        error.files = {"grassmann.json": suite}  # run() writes the failed suite next to error.json
        raise error
    return {"grassmann.json": suite}


def _grid_axis(axis, name: str) -> list:
    where = f"grid.{name}"
    if isinstance(axis, dict):
        start, stop = (_parse_real(axis.get(key), f"{where}.{key}") for key in ("start", "stop"))
        return list(np.linspace(start, stop, _parse_count(axis.get("num"), f"{where}.num")))
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
    return {"sweep.jsonl": _sweep_lines(list(axes.values()), tol), "sweep.json": {"points": count}}


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
    out = os.fspath(out_dir) or os.curdir
    if not os.path.isdir(out):  # an existing directory costs one stat, not os.makedirs' failed mkdir
        os.makedirs(out, exist_ok=True)
    try:
        if not 0.0 < tol < 1.0:  # NaN fails this test too
            raise ValidationError(f"tol must be a finite number in (0, 1), got {tol!r}")
        try:
            with open(scenario_path, "rb", buffering=0) as fh:  # one read: no buffer to fill
                text = fh.read().decode("utf-8")
            if "\r" in text:  # universal newlines, as text mode reads them: error offsets stay
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            # a str, not bytes: json.loads would take a BOM and UTF-16/32 from bytes
            scenario = json.loads(text)
        # ValueError: not UTF-8, not JSON, or an int past the digit limit; RecursionError: nesting
        except (OSError, ValueError, RecursionError) as exc:
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
        cmd.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance in (0, 1)")
        cmd.add_argument("--step", type=float, default=None, help="time-grid step override")
    args = parser.parse_args(argv)
    kind = args.command.replace("-", "_")
    return run(kind, args.scenario, args.out, tol=args.tol, step=args.step)


if __name__ == "__main__":
    sys.exit(main())
