"""Every benchmark span must still fire on its workloads.

perfbench's tracer wraps ckl functions by name, and ``run.py --trace 1``
reports a span that did not fire on a workload it names.  This test runs each
workload's ops once under the tracer, so a renamed target or a path that
stops calling a traced function fails here too.  ``Tracer.install`` rebinds
functions in every loaded ckl module, so each workload runs in its own
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer, workloads
tracer.check_targets()
spans = tracer.Tracer()
spans.install()
for i, op in enumerate(workloads.make_ops(sys.argv[3], 1)):
    op.run(f"{sys.argv[4]}/op{i}.out")
print(json.dumps({"snapshot": spans.snapshot(),
                  "fires_on": {s.name: s.fires_on for s in tracer.SPANS}}))
"""


@pytest.mark.parametrize("workload", ["sweep", "expand", "scan"])
def test_spans_fire(workload, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"),
         str(ROOT / "perfbench"), workload, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    silent = [name for name, entry in out["snapshot"].items()
              if workload in out["fires_on"][name] and entry["calls"] == 0]
    assert silent == []
