"""Smoke test of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py

The ``smoke`` workload runs every stage kind on acceptance criterion 8's
two-cell, 6k-record generator, so every metric the benchmark defines is
produced in about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import share_wall_time  # noqa: E402

# End-to-end figures printed by untraced runs beyond BENCHMARK.json's list.
DETAIL = ("test_s", "identify_s", "estimate_s", "boot_rep_s", "latent_beta_err",
          "loglik_excess", "test_p_pooled", "stages_failed_frac",
          "cells_failed_frac", "starts_unconverged_frac", "boot_drop_frac")
ROW = re.compile(r"^  (\S+) +(\S+) (\S+) +n=(\d+)$")


def _span(span_id, parent, thread, t0, t1, name="x.f"):
    return {"id": span_id, "parent": parent, "thread": thread, "name": name,
            "t0": t0, "t1": t1, "ok": True, "info": None}


def test_wall_time_shares_add_up_across_threads():
    # Main thread: run [0, 10] waits in run_plan [2, 8] while two workers
    # run replicates: [2, 5] and [5, 8] on one, [2, 8] on the other.
    spans = [
        _span(1, None, "main", 0.0, 10.0),
        _span(2, 1, "main", 2.0, 8.0),
        _span(3, 2, "a", 2.0, 5.0),
        _span(4, 2, "b", 2.0, 8.0),
        _span(5, 2, "a", 5.0, 8.0),
    ]
    self_time, inclusive = share_wall_time(spans)
    assert self_time[1] == pytest.approx(4.0)
    assert self_time.get(2, 0.0) == pytest.approx(0.0)
    assert self_time[3] == pytest.approx(1.5)
    assert self_time[4] == pytest.approx(3.0)
    assert self_time[5] == pytest.approx(1.5)
    assert sum(self_time.values()) == pytest.approx(10.0)
    assert inclusive[1] == pytest.approx(10.0)
    assert inclusive[2] == pytest.approx(6.0)


def _run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_passes_checks(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert not any(line.startswith("  FAIL") for line in lines)
    table = {}
    for line in lines:
        match = ROW.match(line)
        if match:
            table[match[1]] = match[3]
    expected = {m["name"]: m["unit"] for m in declared}
    if not trace:
        expected.update({name: None for name in DETAIL})
    for name, unit in expected.items():
        assert name in table, name
        assert unit is None or table[name] == unit, name
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["trace.absent_names"] == 0
        for name in ("mle.fit_calls", "mle.starts", "data.ingest_rows_per_s"):
            assert values[name] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
