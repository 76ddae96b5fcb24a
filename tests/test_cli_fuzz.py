"""Property-based fuzzing of the CLI's exit-code and output-file contract.

Each example takes a valid scenario of one kind, mutates one to three of
its nodes (a leaf replaced by a huge, tiny, signed-zero or string number, a
list lengthened or shortened, a key removed) and runs it through cli.run.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospin import cli

TIME = {"start": 0.0, "stop": 1.0, "step": 0.25}
TEMPLATES = {
    "check": {"field": [1.0, 0.0, [0.0, 0.5]]},
    "metric": {"field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0.6},
    "evolve": {"field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0.6, "metric": "eta",
               "observables": "dressed", "state": [[0.0, 0.0], [1.0, 0.0]], "time": TIME},
    "bloch": {"model": "llg_spin_valve", "field": [0.0, 0.0, 1.0], "alpha": 0.1, "a": 0.05,
              "polarization": [0.0, 0.0, 1.0], "n0": [0.6, 0.0, 0.8], "renormalize": True,
              "time": TIME},
    "rabi": {"b": 1.2247448713915890, "b_z": 1.0, "omega": 2.0, "alpha": 0.5, "a": 0.0,
             "time": {"start": 0.0, "stop": 5.0, "num": 5}},
    "suppress": {"b_z": 1.0, "omega": 2.0, "alpha": 0.5, "a": 0.1},
    "grassmann_verify": {"b_field": [0.7, -1.1, 0.4]},
    "sweep": {"grid": {"b": {"start": 0.5, "stop": 1.5, "num": 3}, "alpha": [0.0, 0.5]},
              "b_z": 1.0, "omega": 2.0},
}

# Huge, tiny, signed-zero and string numbers, and values of the wrong type.
# Finite numbers stay small or extreme, so no mutation asks for a long grid.
LEAVES = [1e300, -1e300, 1e200, 1.3e154, 1e-300, 5e-324, -0.0, 0.0, -1.0, 2.0,
          "1.5", "-0.0", "1e400", "nan", "x", float("nan"), float("inf"), None, True, [], {}]


def _nodes(tree, path=()):
    """Paths to every node below the root."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(TEMPLATES)))
    scenario = json.loads(json.dumps(TEMPLATES[kind]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_nodes(scenario))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = scenario
        for step in parents:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "remove", "lengthen"]))
        leaf = copy.deepcopy(draw(st.sampled_from(LEAVES)))  # [] and {} are shared
        if action == "remove":
            del parent[key]
        elif action == "lengthen" and isinstance(parent[key], list):
            parent[key].append(leaf)
        else:
            parent[key] = leaf
    return kind, scenario


def _finite_constant(name):
    raise AssertionError(f"{name} in a JSON output")


def _assert_finite(path: Path) -> None:
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=_finite_constant)
    elif path.suffix == ".jsonl":
        for line in text.splitlines():
            json.loads(line, parse_constant=_finite_constant)
    else:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert np.isfinite(np.array(rows, dtype=float)).all(), path.name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_cli_exit_codes_and_files(case):
    kind, scenario = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = Path(tmp) / "out"
        code = cli.run(kind, path, out)  # any exception escaping run() fails the test
        names = {p.name for p in out.iterdir()}
        assert code in (0, 2, 3)
        assert ("error.json" in names) == (code != 0)
        if code != 0:
            failed_suite = {"grassmann.json"} if kind == "grassmann_verify" else set()
            assert names <= {"error.json"} | failed_suite, names
        for name in names:
            _assert_finite(out / name)
