"""The benchmark tracer's contract with the package: every name the benchmark
reads (``perfbench/layers.py``'s EXPECTED and ``perfbench/tracer.py``'s
SUMMARIES) is a public function that the tracer wraps, and the summary of
``mle.fit`` reads a real fit result. A renamed or privatised function would
otherwise show up only as ``trace.absent_names`` in a traced benchmark run.

``tracer.install`` rebinds module globals, so the check runs in a subprocess.
The benchmark's command lines (``perfbench/run.py``'s ``stage_args``) are a
contract too: each must parse, or every benchmark run fails.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from latentcat import cli

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


def test_cli_parses_every_benchmark_command_line(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # dataclasses look it up
    spec.loader.exec_module(bench)
    parser = cli._build_parser()
    for workload in bench.WORKLOADS.values():
        for stage in bench.OUTPUTS:  # every stage a run can start
            for seed in (0, 1, 10):
                argv = bench.stage_args(stage, workload, seed)
                args = parser.parse_args(argv)
                assert args.command == argv[0]
