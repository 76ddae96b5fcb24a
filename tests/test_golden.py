"""Golden digests: the byte-identical output contract of bloch and evolve.

Each scenario below is run through the CLI and every file it writes is
compared by sha256 with a digest recorded from an earlier version of the
package.  A refactor of a hot path must leave these bytes alone; a change
that means to alter an output updates its digest and says why.

The digests assume this numpy build and its OpenBLAS: the RK4 norms are
`v @ v` (ddot, which may fuse multiply-adds) and the quantum path uses
numpy's complex kernels, so another BLAS or CPU may differ in the last bit
of some cells without anything being wrong.
"""

import hashlib
import json

import pytest

from pseudospin import cli

N0 = [0.48, 0.6, 0.64]
BLOCH_TIME = {"start": 0.0, "stop": 4.0, "step": 0.02}
BLOCH = {
    "damped": {"field": [[0.3, 0.2], [-0.7, 0.1], [1.1, -0.3]]},
    "llg": {"field": [0.3, -0.7, 1.1], "alpha": 0.15},
    "llg_spin_valve": {
        "field": [0.3, -0.7, 1.1],
        "alpha": 0.15,
        "a": 0.07,
        "polarization": [0.6, 0.0, 0.8],
    },
}
EVOLVE_BASE = {
    "field": [1.0, 0.0, [0.0, 0.6]],
    "state": [[0.3, 0.1], [1.0, 0.0]],
    "time": {"start": 0.0, "stop": 5.0, "step": 0.025},
}
EVOLVE = {
    "canonical": {},
    "eta_dressed": {"alpha": 0.6, "metric": "eta"},
    "eta_bare": {"alpha": 0.6, "metric": "eta", "observables": "bare"},
}

SCENARIOS = {
    **{
        f"bloch-{model}-{'renorm' if renormalize else 'raw'}": (
            "bloch",
            {"model": model, "n0": N0, "time": BLOCH_TIME, "renormalize": renormalize, **extra},
        )
        for model, extra in BLOCH.items()
        for renormalize in (False, True)
    },
    **{f"evolve-{name}": ("evolve", {**EVOLVE_BASE, **extra}) for name, extra in EVOLVE.items()},
}

GOLDEN = {
    "bloch-damped-raw": {
        "bloch.json": "7e980dd2ad21ee85633978aa16059209e387ec183e3ab6dbc80d270edcd087c2",
        "trajectory.csv": "614c1fd3cee13f3fbbb9bae06d430829738bfc2912624dc375391343f2534e91",
    },
    "bloch-damped-renorm": {
        "bloch.json": "2c774b726ad868de3e01a596e37056af3de4b90fb5940209e72403ff3717bd46",
        "trajectory.csv": "fd4b72c699055fafc7951103f4cb45d42689ad44e16ccb4c502ba166eb85a5c0",
    },
    "bloch-llg-raw": {
        "bloch.json": "e7e1a7cf9976ad0454bb6268ea905f0479bb78383c777617e263bdb5b9edc570",
        "trajectory.csv": "e31d9258e08bf659b2b53ae052bf66de0e49859391c402e6d22488a8a172e870",
    },
    "bloch-llg-renorm": {
        "bloch.json": "8c444fc58a918d9f79d1a07dbfa5321a32a03a571ed998a92e725d04393c530e",
        "trajectory.csv": "98e17bc76a118a7b2af84e8c938b52b1923a1cc65787f14ba88c969e3c307a10",
    },
    "bloch-llg_spin_valve-raw": {
        "bloch.json": "399ed70958b99676a5c08a6d29cd845cf7c5682e22b24487940703392e9f3f09",
        "trajectory.csv": "e4eab1b1c8804864d73f84ccc96fe12ee6dfa9fb436789e77ee24f865865e3cf",
    },
    "bloch-llg_spin_valve-renorm": {
        "bloch.json": "f2dc1c09f95cebeb711e5afdd2289c2ce4c63c0aadd1626f85d55224836b9b37",
        "trajectory.csv": "28129652cb7e099863b60616c8f15f1638eb54dc27d658ca45ac6081b334b6f2",
    },
    "evolve-canonical": {
        "evolve.json": "ad46af69955dcd13a4075c26d45a870f99c1fd93d497b194b546e7f48a65b7d4",
        "trajectory.csv": "505a9c855484da4c332c7258f67de9e97d20af83276ca266ad07cf5f177c9980",
    },
    "evolve-eta_bare": {
        "evolve.json": "e5c6b805c184f8df72051be886058edcbefe420380c6e5564ce0fb47c0fe69d0",
        "trajectory.csv": "b1a2ea1c33dea4bdbf0a5da6f8c3de908ba1647c9c5af18ebba978c8434395af",
    },
    "evolve-eta_dressed": {
        "evolve.json": "e5c6b805c184f8df72051be886058edcbefe420380c6e5564ce0fb47c0fe69d0",
        "trajectory.csv": "0484f19b56c6669be9fa7451513b9c5d1e8328765e4e8fcfaae88f9f754325f2",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_digests(tmp_path, name):
    kind, scenario = SCENARIOS[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": kind, **scenario}))
    out = tmp_path / "out"
    assert cli.run(kind, path, out) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    assert digests == GOLDEN[name]
