"""The benchmark tracer's contract with the package: every name the benchmark
reads (``perfbench/layers.py``'s EXPECTED and ``perfbench/tracer.py``'s
SUMMARIES) is a public function that the tracer wraps, and the summary of
``mle.fit`` reads a real fit result. A renamed or privatised function would
otherwise show up only as ``trace.absent_names`` in a traced benchmark run.

``tracer.install`` rebinds module globals, so the check runs in a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import layers, tracer

recorder = tracer.Recorder()
modules = tracer.load_modules()
wrapped = tracer.install(modules, recorder)
modules["mle"].fit(np.full((2, 2, 2), 10), modules["mle"].CmleConfig(n_starts=1))
[span] = [s for s in recorder.spans if s["name"] == "mle.fit"]
print(json.dumps({
    "absent": sorted((set(layers.EXPECTED) | set(tracer.SUMMARIES)) - set(wrapped)),
    "fit_summary": span["info"],
    "fit_summary_failed": span["summary_failed"],
}))
"""


def test_tracer_wraps_every_name_the_benchmark_reads():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["absent"] == []
    assert not result["fit_summary_failed"]
    assert result["fit_summary"]["starts"] == 1
    assert result["fit_summary"]["converged"] == 1
