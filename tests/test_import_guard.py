"""The package and the service boot without SciPy.

SciPy (and, through its array-API shim, NumPy's f2py) costs about 40% of
a service boot and 25 MB of its memory, yet only Alg. 3 and the FDM
reference use it.  Those import it on first call, so ``import repro``
and ``python -m repro serve`` load none of it.  The check runs in fresh
interpreters, since this test process has long imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Regularizes a small raw matrix and solves a tiny FDM problem both ways,
#: printing the modules loaded by the imports and the digests of the results.
SCRIPT = r"""
import hashlib, json, sys
if sys.argv[1] == "scipy-first":
    import scipy.sparse, scipy.sparse.csgraph, scipy.sparse.linalg
import repro, repro.cli, repro.service.server
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "scipy" or m.startswith("numpy.f2py")
)
import numpy as np
from repro import Box, CapacitanceMatrix, Conductor, Structure, regularize
from repro.fdm.extractor import FDMExtractor

rng = np.random.default_rng(5)
values = -rng.uniform(0.1, 2.0, (4, 6))
values[np.arange(4), np.arange(4)] = rng.uniform(6.0, 9.0, 4)
raw = CapacitanceMatrix(
    values=values, masters=[0, 1, 2, 3], names=list("abcdef"),
    sigma2=rng.uniform(1e-3, 1e-2, (4, 6)),
    hits=np.full((4, 6), 50, dtype=np.int64),
)
plates = Structure(
    [Conductor.single("a", Box.from_bounds(0, 2, 0, 2, 0, 0.25)),
     Conductor.single("b", Box.from_bounds(0, 2, 0, 2, 0.75, 1.0))],
    enclosure=Box.from_bounds(-1, 3, -1, 3, -1, 2),
)
digests = {"regularize": regularize(raw).values}
for method in ("direct", "cg"):
    digests[method] = FDMExtractor(
        plates, resolution=(9, 9, 13), method=method
    ).extract().capacitance
print(json.dumps({
    "loaded": loaded,
    "digests": {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in digests.items()},
}))
"""


def _run(mode: str) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    return {mode: _run(mode) for mode in ("lean", "scipy-first")}


def test_import_loads_no_scipy(runs):
    assert runs["lean"]["loaded"] == []
    assert "scipy" in runs["scipy-first"]["loaded"]


def test_lazy_scipy_gives_the_same_values(runs):
    """Alg. 3 and both FDM solves load SciPy on first call and give the
    same bits as a process that imported it up front."""
    assert runs["lean"]["digests"] == runs["scipy-first"]["digests"]
