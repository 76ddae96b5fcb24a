"""Golden digests: the byte-identical output contract of every CLI kind.

Each scenario below is run through the CLI and every file it writes is
compared by sha256 with a digest recorded from an earlier version of the
package; the kinds with two branches (metric from alpha or from b_field,
rabi's three amplitude forms, suppress with and without a torque, a sweep
over a = 0 and a != 0) pin each branch, and seven refusals pin their exit-3 and
exit-2 error.json: the report encoder's refusal of an inf, and four RK4 norm
drifts in either mode, at t = 0 and later, one of them a NaN.  The
sweeps also pin the per-point decisions: critical
points where a b_z and an omega axis meet, alpha of either sign and zero,
the tolerance band either side of a solved b (and a point clamped to
omega_sq = 0 on the imaginary side), a signed-zero a axis, and linspace
(np.float64) axes.  A refactor of a hot path must leave these bytes alone; a change
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

SUPPRESSED_B = 1.0862780491200217  # solve_suppression_B(1.0, 2.0, 0.3): on the surface
RABI_TIME = {"start": 0.0, "stop": 3.0, "step": 0.05}
RABI = {"b_z": 1.0, "omega": 2.0}
OTHER_KINDS = {
    "check": ("check", {"field": [0.8, [0.1, 0.2], [0.5, -0.3]]}),
    "metric-alpha": ("metric", {"field": [1.0, 0.0, [0.0, 0.6]], "alpha": 0.6}),
    "metric-b_field": ("metric", {"field": [1.0, 0.0, [0.0, 0.8]], "b_field": [0.48, 0.0, 0.36]}),
    "rabi-undamped": ("rabi", {**RABI, "b": 1.0, "time": RABI_TIME}),
    "rabi-suppressed": ("rabi", {**RABI, "b": SUPPRESSED_B, "alpha": 0.3, "time": RABI_TIME}),
    "rabi-off-surface": ("rabi", {**RABI, "b": 1.0, "alpha": 0.3, "time": RABI_TIME}),
    "suppress-no-torque": ("suppress", {**RABI, "alpha": 0.3}),
    "suppress-torque": ("suppress", {**RABI, "alpha": 0.3, "a": 0.05}),
    "sweep": (
        "sweep",
        {**RABI, "alpha": 0.3, "grid": {"b": {"start": 0.5, "stop": 1.5, "num": 5}, "a": [0.0, 0.05]}},
    ),
    "sweep-critical": (
        "sweep",
        {"grid": {"b": [0.5, 1.2], "b_z": [1.0, 2.0], "omega": {"start": 1.0, "stop": 2.0, "num": 3},
                  "alpha": [0.0, -0.4, 0.3]}},
    ),
    "sweep-band": (
        "sweep",
        {**RABI, "alpha": 0.3, "grid": {"b": [SUPPRESSED_B + e for e in (-1e-9, -1e-10, 0.0, 1e-10, 1e-9)],
                                        "a": [-0.0, 0.05]}},
    ),
    # on the surface with 0 < delta * omega <= tol * scale: omega_sq clamped to 0.0
    "sweep-clamped": (
        "sweep",
        {"grid": {"b": [1.5000000000833333, 1.5000000010833333], "b_z": [1.0000000002, 1.0]},
         "omega": 1.0, "alpha": 1.5},
    ),
    "grassmann_verify": ("grassmann_verify", {"b_field": [0.7, -1.1, 0.4]}),
}
# name -> (kind, scenario, exit code, error.json digest)
REFUSED = {
    # a non-pseudo-Hermitian field (square -3) has no metric: exit 3 with only error.json
    "metric-non-pseudo-hermitian": (
        "metric", {"field": [1.0, 0.0, [0.0, 2.0]], "alpha": 0.5}, 3,
        "233c49c1fdd846e8e64ee405bf65a7d8d278ea4d4198f05fe81a1a9ee224e2b8",
    ),
    # b^2 and delta^2 are finite but rabi_freq_sq = b^2 + delta^2 is not: exit 2
    "sweep-not-finite": (
        "sweep", {"grid": {"b": [1.3e154]}, "b_z": 1.3e154, "omega": 0.0, "alpha": 0.5}, 2,
        "51c1f8e45ea8809b508ccfae8dcdea95856f10c9d727cacfb5373690ff02e4ea",
    ),
    # the same point as a rabi report: the JSON report encoder refuses its inf, exit 2
    "rabi-not-finite": (
        "rabi", {"b": 1.3e154, "b_z": 1.3e154, "omega": 0.0, "alpha": 0.5}, 2,
        "3e43bc4888567a5a55f61b227cd04eb802a514e5f04f37c2a16eb546067032b0",
    ),
    # RK4 refusals (exit 3): the first step whose norm drift is not <= 0.01 names its t
    "bloch-overflow": (  # the rate overflows in the first step: a NaN drift at t=0
        "bloch", {"field": [0, 0, 1e150], "n0": [1, 0, 0], "time": {"stop": 1.0, "step": 0.1},
                  "renormalize": False}, 3,
        "4f2421ce851b775524b642b3e14bfc1b191f9a6e14e4ce3fe1658818327bb6a9",
    ),
    "bloch-drift-renorm": (  # a finite drift of 0.0207 at t=0
        "bloch", {"model": "damped", "field": [0, 0, 15], "n0": [0.6, 0, 0.8],
                  "time": {"stop": 10.0, "step": 0.1}, "renormalize": True}, 3,
        "6cd3d698a06ac09fa2490db08803c7ddb2eacec6e639ca0e5c449fdd8d466d4f",
    ),
    # an imaginary field that draws n from near +z to the equator, where the drift grows
    "bloch-drift-raw-later": (  # 0.0107 at t=1.4
        "bloch", {"model": "damped", "field": [0, 0, [12, -1.0]], "n0": [0.28, 0, 0.96],
                  "time": {"stop": 10.0, "step": 0.1}, "renormalize": False}, 3,
        "c27c4662a9da0fbf3a4493dd5682e6925533db9e1c4c830ca3e1654a2c3bde86",
    ),
    "bloch-drift-renorm-later": (  # 0.0103 at t=3.3
        "bloch", {"model": "damped", "field": [0, 0, [12, -0.5]], "n0": [0.28, 0, 0.96],
                  "time": {"stop": 10.0, "step": 0.1}, "renormalize": True}, 3,
        "9a7e95f273023c34c5e1b4870dbfac2e9aaa515f16bbfaa5758753d5bdcba5e2",
    ),
}

SCENARIOS = {
    **OTHER_KINDS,
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
    "check": {
        "check.json": "8a414e8c232ddfb34d84424256a5fee32fb5fa46d2b022d17242286e0e24b853",
    },
    "metric-alpha": {
        "metric.json": "02a2424f44571dc97396ddad88b8f412bb707e826215ed76ddee83d6f6dccf02",
    },
    "metric-b_field": {
        "metric.json": "0d818815c43e9c8e4f490d8c662f0b04b8f09c03047496aed24d646aaf028bca",
    },
    "rabi-undamped": {
        "amplitude.csv": "67aac51046fd9c553c1ff027b135122e3b17531520d0d4c7c4862d1b30d4a501",
        "rabi.json": "f7b1fd17970b84af4cd6cc489467220964efb876145bf639d16a1eca171d309e",
    },
    "rabi-suppressed": {
        "amplitude.csv": "d43570181e992a3c69ec3e16db083afe046e9f4e6227e65d369e2b9142a3c87c",
        "rabi.json": "9c5fda2ec7e21f1fa7d18e4aeb65d818a1942c8ed4be2f73031755c338d6f30c",
    },
    "rabi-off-surface": {
        "rabi.json": "c1a3f08dee0b023a84d1998f89a90f1f57c358ae50ee0ca595d4d10c5daa76d7",
    },
    "suppress-no-torque": {
        "suppress.json": "ab7f4132f2d74fe21a481108550361bd77204edf21fd0ca9ee294d5ff38ee029",
    },
    "suppress-torque": {
        "suppress.json": "82c032ddf38ff0b91385e3691e924b96bc48597b42dabdda2dc17de3a3547687",
    },
    "sweep": {
        "sweep.json": "ae87e0bdce1e97d60d2b2ed419fa7657d472d4e544af49559fa8e32f20f23af1",
        "sweep.jsonl": "a39bd0452bb76d1a27b4354a54ebe5f7e291abbbe3ab6caaef9bd2757ba4bb39",
    },
    "sweep-critical": {
        "sweep.json": "534aeadd5a781e1697dccbcabb99f886b15e99844ae496bf3ce129c5a12742ae",
        "sweep.jsonl": "4c748e96f8a4b72d1a918a576ee70bbf5524db49ee09d8bcf1a6d796321528e1",
    },
    "sweep-band": {
        "sweep.json": "ae87e0bdce1e97d60d2b2ed419fa7657d472d4e544af49559fa8e32f20f23af1",
        "sweep.jsonl": "1bf8a8483182b659148bcceead92abc8cd2e79bc7f33c0bdb67bf37cc0619fe5",
    },
    "sweep-clamped": {
        "sweep.json": "7cc6feb5993c2f650f5ac8520c2cd718f11bcfdaf1fc9b4d76418c9c6325cdf5",
        "sweep.jsonl": "dd2ebe8647d397a7a3f53fccf0c1cfb36e872562a953c0ddb7ac6f11800b6edb",
    },
    "grassmann_verify": {
        "grassmann.json": "140f946cf17731c308b569b8a5dbcefcb56b8a929541757769c8093b28235907",
    },
    "bloch-damped-raw": {
        "bloch.json": "7e980dd2ad21ee85633978aa16059209e387ec183e3ab6dbc80d270edcd087c2",
        "trajectory.csv": "614c1fd3cee13f3fbbb9bae06d430829738bfc2912624dc375391343f2534e91",
    },
    "bloch-damped-renorm": {
        "bloch.json": "2c774b726ad868de3e01a596e37056af3de4b90fb5940209e72403ff3717bd46",
        "trajectory.csv": "fd4b72c699055fafc7951103f4cb45d42689ad44e16ccb4c502ba166eb85a5c0",
    },
    "bloch-llg-raw": {
        "bloch.json": "0d9a458b1b4ddc736391efdf34b75c7fe4d1d9448872800e22067f323ae3d484",
        "trajectory.csv": "28307c8aa056454983709702f1fed1922f96d15b4f34326282073c5fc7d5b8c6",
    },
    "bloch-llg-renorm": {
        "bloch.json": "a218b9b6733cc0d09ff1e0f02ead953d5ac492a670a77afac9bbc18b71951989",
        "trajectory.csv": "dbdfc0cf0c6c38b3295c41992fb13297a689ee6ddb896c9a6b12b177dcaa0c9d",
    },
    "bloch-llg_spin_valve-raw": {
        "bloch.json": "803fdf90ef891b70411b4a812b4657e7dfcc3ab20a643a3a6611f68edb1e60ec",
        "trajectory.csv": "3ee2ea7440e8bfc57707109355f9a38b7ac409f94459f985ec3828f5cef4a3ff",
    },
    "bloch-llg_spin_valve-renorm": {
        "bloch.json": "5f14109c3b667ec8c293844327472de25b8b3f227ca0fe76932405d0cbcb90a5",
        "trajectory.csv": "4e998f160ef17f90c85ac8f2fc96ae54cf8ba92e7872a7037eca7a08e7ee3cb2",
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


def test_refusal_matches_golden_digest(tmp_path):
    for name, (kind, scenario, code, digest) in REFUSED.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": kind, **scenario}))
        out = tmp_path / name
        assert cli.run(kind, path, out) == code, name
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
        assert digests == {"error.json": digest}, name
