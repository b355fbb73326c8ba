"""Per-layer metrics from the span files that tracer.py writes.

Wall time is shared out so that it adds up: at every instant each thread's
innermost open span is busy, unless it is waiting on open spans of another
thread (its children); when k spans are busy at once, each gets 1/k of that
instant. A span's self time is its share; its inclusive time adds its
children's inclusive times. So the self times of all spans of a stage sum
to the wall time the stage spent inside ``cli.run``, even while
``run_plan`` runs replicates on a thread pool.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

# Names the metrics below read; a refactor that drops one is reported as
# absent rather than failing the run.
EXPECTED = (
    "cli.run",
    "data.ingest",
    "data.tabulate",
    "citest.bootstrap_test",
    "mle.fit",
    "resampling.resample",
    "resampling.run_plan",
    "pipeline.fit_cells",
    "pipeline.parametric_fit",
    "ordered.latent_conditional",
    "ordered.reported_conditional",
    "ordered.skedastic",
    "ordered.hetero_ordered_probit",
    "ordered.homo_ordered_probit",
    "generate.make_model",
    "generate.draw",
)
ORDERED = EXPECTED[9:14]
LAYERS = ("cli", "data", "citest", "spectral", "mle", "ordered", "resampling",
          "pipeline", "generate", "report")


def share_wall_time(spans: list[dict]) -> tuple[dict[int, float], dict[int, float]]:
    """Self and inclusive wall-time shares per span id (see module docstring)."""
    by_id = {s["id"]: s for s in spans}
    cross_parent = {
        s["id"]: s["parent"] for s in spans
        if s["parent"] in by_id and by_id[s["parent"]]["thread"] != s["thread"]
    }
    # Ends sort before starts at equal times, inner (later-opened) spans first.
    events = sorted(
        [(s["t0"], 1, s["id"]) for s in spans]
        + [(s["t1"], 0, -s["id"]) for s in spans]
    )
    open_by_thread: dict[int, set[int]] = defaultdict(set)
    waiting_on = Counter()
    self_time: dict[int, float] = defaultdict(float)
    prev = None
    for t, starts, key in events:
        if prev is not None and t > prev:
            busy = [max(ids) for ids in open_by_thread.values() if ids]
            busy = [i for i in busy if waiting_on[i] == 0]
            for span_id in busy:
                self_time[span_id] += (t - prev) / len(busy)
        prev = t
        span_id = key if starts else -key
        thread = by_id[span_id]["thread"]
        if starts:
            open_by_thread[thread].add(span_id)
        else:
            open_by_thread[thread].discard(span_id)
        if span_id in cross_parent:
            waiting_on[cross_parent[span_id]] += 1 if starts else -1
    inclusive = {s["id"]: self_time[s["id"]] for s in spans}
    for span_id in sorted(inclusive, reverse=True):
        parent = by_id[span_id]["parent"]
        if parent in inclusive:
            inclusive[parent] += inclusive[span_id]
    return dict(self_time), inclusive


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The order statistic at ceil(pct/100 * n); 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (0 if none)."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct
    return 0


def replicate_durations(spans: list[dict]) -> list[float]:
    """Per replicate: its ``resample`` start to the end of the next
    ``parametric_fit`` on the same thread."""
    out = []
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s["thread"]].append(s)
    for thread_spans in by_thread.values():
        pending = None
        for s in sorted(thread_spans, key=lambda s: s["t0"]):
            if s["name"] == "resampling.resample":
                pending = s["t0"]
            elif s["name"] == "pipeline.parametric_fit" and pending is not None:
                out.append(s["t1"] - pending)
                pending = None
    return out


class StageTraces:
    """Accumulates the traced stages of one pass into per-layer totals."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)   # outermost spans of each name
        self.self_by_layer = defaultdict(float)
        self.ordered_self = 0.0
        self.fit_ms: list[float] = []
        self.replicate_ms: list[float] = []
        self.info = defaultdict(Counter)
        self.wrapped: set[str] = set()
        self.summary_failed: set[str] = set()
        self.startup_s = 0.0
        self.exit_s = 0.0
        self.wall_s = 0.0
        self.stages = 0

    def add(self, trace: dict, wall_s: float) -> None:
        spans = trace["spans"]
        self.stages += 1
        self.wall_s += wall_s
        self.wrapped.update(trace["wrapped"])
        self_time, inclusive = share_wall_time(spans)
        by_id = {s["id"]: s for s in spans}
        runs = [s for s in spans if s["name"] == "cli.run" and s["parent"] is None]
        if runs:
            self.startup_s += min(s["t0"] for s in runs) - trace["t_spawn"]
            self.exit_s += trace["t_spawn"] + wall_s - max(s["t1"] for s in runs)
        for s in spans:
            name = s["name"]
            self.calls[name] += 1
            self.self_by_layer[name.split(".", 1)[0]] += self_time.get(s["id"], 0.0)
            if name in ORDERED:
                self.ordered_self += self_time.get(s["id"], 0.0)
            if not self._nested_in_same_name(s, by_id):
                self.inclusive[name] += inclusive[s["id"]]
            if name == "mle.fit":
                self.fit_ms.append(1000.0 * (s["t1"] - s["t0"]))
            if s["info"]:
                self.info[name].update(s["info"])
            if s["summary_failed"]:
                self.summary_failed.add(name)
        self.replicate_ms.extend(1000.0 * d for d in replicate_durations(spans))

    @staticmethod
    def _nested_in_same_name(span: dict, by_id: dict) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return True
            parent = by_id.get(parent["parent"])
        return False

    def absent(self) -> list[str]:
        """Expected names that were not wrapped."""
        return [name for name in EXPECTED if name not in self.wrapped]

    def metrics(self) -> dict[str, tuple[float, str, int]]:
        """Per-layer metrics as name -> (value, unit, sample count)."""
        c, inc, info = self.calls, self.inclusive, self.info
        fit_ms = sorted(self.fit_ms)
        rep_ms = sorted(self.replicate_ms)
        tail = tail_percentile(len(fit_ms))
        fits = info["mle.fit"]
        ingest_s = inc["data.ingest"]
        test_s = inc["citest.bootstrap_test"]
        out = {
            "data.ingest_s": (ingest_s, "s", c["data.ingest"]),
            "data.ingest_rows_per_s": (
                info["data.ingest"]["rows"] / ingest_s if ingest_s else 0.0,
                "1/s", c["data.ingest"]),
            "data.tabulate_calls": (c["data.tabulate"], "count", c["data.tabulate"]),
            "data.tabulate_s": (inc["data.tabulate"], "s", c["data.tabulate"]),
            "citest.bootstrap_test_calls": (
                c["citest.bootstrap_test"], "count", c["citest.bootstrap_test"]),
            "citest.bootstrap_test_s": (test_s, "s", c["citest.bootstrap_test"]),
            "citest.replicates_per_s": (
                info["citest.bootstrap_test"]["b"] / test_s if test_s else 0.0,
                "1/s", c["citest.bootstrap_test"]),
            "mle.fit_calls": (c["mle.fit"], "count", c["mle.fit"]),
            "mle.fit_s": (inc["mle.fit"], "s", c["mle.fit"]),
            "mle.fit_ms_p50": (nearest_rank(fit_ms, 50), "ms", len(fit_ms)),
            "mle.fit_ms_tail": (nearest_rank(fit_ms, tail) if tail else 0.0,
                                "ms", len(fit_ms)),
            "mle.fit_tail_pct": (tail, "%", len(fit_ms)),
            "mle.starts": (fits["starts"], "count", c["mle.fit"]),
            "mle.lbfgs_iters_mean": (
                fits["iterations"] / fits["starts"] if fits["starts"] else 0.0,
                "count", fits["starts"]),
            "mle.start_yield": (
                fits["agreeing"] / fits["starts"] if fits["starts"] else 0.0,
                "fraction", fits["starts"]),
            "resampling.resample_calls": (
                c["resampling.resample"], "count", c["resampling.resample"]),
            "resampling.resample_s": (
                inc["resampling.resample"], "s", c["resampling.resample"]),
            "resampling.run_plan_s": (
                inc["resampling.run_plan"], "s", c["resampling.run_plan"]),
            "resampling.replicates_dropped": (
                info["resampling.run_plan"]["dropped"], "count",
                info["resampling.run_plan"]["b"]),
            "pipeline.fit_cells_calls": (
                c["pipeline.fit_cells"], "count", c["pipeline.fit_cells"]),
            "pipeline.fit_cells_s": (
                inc["pipeline.fit_cells"], "s", c["pipeline.fit_cells"]),
            "pipeline.replicate_ms_p50": (nearest_rank(rep_ms, 50), "ms", len(rep_ms)),
            "pipeline.replicate_ms_p95": (nearest_rank(rep_ms, 95), "ms", len(rep_ms)),
            "ordered.calls": (sum(c[n] for n in ORDERED), "count",
                              sum(c[n] for n in ORDERED)),
            "ordered.s": (self.ordered_self, "s", sum(c[n] for n in ORDERED)),
            "cli.startup_s": (self.startup_s, "s", self.stages),
            "cli.exit_s": (self.exit_s, "s", self.stages),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_by_layer[layer], "s", self.stages)
        return out
