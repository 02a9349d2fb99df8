"""Start-up import graph: what a fresh interpreter loads, and what it must not.

No ``scipy`` module loads in a process that calibrates an estimator or
serves an ingest (the chi-square quantiles and the calibration root are
computed in-repo; ``scipy.special`` alone costs about 0.3 s and 26 MiB),
``numpy.ma`` stays out of a serving process (numpy's medians import it;
``core.batch.median`` does not), and the ``repro`` package loads its
subpackages on first access.  Both
are properties of a fresh process, so the probe runs in a subprocess.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

_PROBE = r"""
import json, sys

import numpy as np

import repro

out = {"bare": sorted(
    m for m in ("repro.experiments", "repro.cluster") if m in sys.modules
)}
out["core"] = repro.core.__name__
from repro import serving

out["serving"] = serving.__name__
import repro.parallel
from repro.core import BatchRobustPCA, RobustIncrementalPCA


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


x = np.random.default_rng(0).normal(size=(64, 12))
RobustIncrementalPCA(3).update_block(x)
BatchRobustPCA(3).fit(x)
# A 60-sigma row in the warm-up trips the warm-up gate into the Maronna
# start, the same one robust_init=True forces; a gap in it takes the
# warm-up's median patch.
poisoned = x.copy()
poisoned[5] += 60.0 * np.random.default_rng(1).normal(size=12)
poisoned[7, 4] = np.nan
gated = RobustIncrementalPCA(3)
forced = RobustIncrementalPCA(3, robust_init=True)
for est in (gated, forced):
    est.update_block(poisoned)
out["gated"] = bool(np.array_equal(gated.state.basis, forced.state.basis))
out["scipy_estimators"] = scipy_modules()

service = serving.PCAService(serving.ServingConfig(n_lanes=1))
server = serving.ServingServer(service).start()
service.add_tenant(serving.TenantSpec("t", n_components=2))
with serving.ServingClient(server.host, server.port) as client:
    out["ingest"] = client.ingest("t", x).code
    service.pool.drain()
    out["queries"] = [
        client.transform("t", x[:4]).code, client.snapshot("t").code
    ]
out["applied"] = service.tenant("t").model.rows_applied
server.stop()
out["scipy_serving"] = scipy_modules()
out["numpy_ma"] = "numpy.ma" in sys.modules
out["dir"] = sorted(set(dir(repro)) & set(repro.__all__))
try:
    repro.no_such_subpackage
except AttributeError as exc:
    out["missing"] = str(exc)
print(json.dumps(out))
"""


def _probe() -> dict:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_fresh_process_import_graph():
    out = _probe()
    assert out["bare"] == []
    assert out["gated"]
    assert out["scipy_estimators"] == []
    assert (out["ingest"], out["applied"]) == (202, 64)
    assert out["queries"] == [200, 200]
    assert out["scipy_serving"] == []
    assert not out["numpy_ma"]
    assert out["core"] == "repro.core"
    assert out["serving"] == "repro.serving"
    assert out["dir"] == sorted(repro.__all__)
    assert "no_such_subpackage" in out["missing"]
