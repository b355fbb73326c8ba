"""Run one latentcat CLI stage with a timing span around every public function.

Usage: python3 tracer.py SPANS_JSON T_SPAWN CLI_ARG...

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks agree).
Every public function of every ``latentcat`` module is replaced, in each
module namespace that binds it, by a wrapper that records a span: name,
thread, start, end, parent span and a small summary of the result for the
calls the benchmark reads counts from. Span stacks are kept per thread; a
span that opens on a worker thread with an empty stack takes the innermost
open span of the main thread as its parent (``run_plan`` fans out to a
thread pool). A summary that fails (say, after a result attribute is
renamed) is flagged on its span, which makes the benchmark count the name as
absent. Spans stay in memory and are written to SPANS_JSON when the
stage returns. Private names are never touched.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
import types


def _fit_summary(out):
    return {
        "starts": len(out.starts),
        "agreeing": out.n_starts_agreeing,
        "converged": out.n_starts_converged,
        "iterations": sum(s.n_iterations for s in out.starts),
    }


# Result summaries read by the benchmark, keyed by "<module>.<function>".
SUMMARIES = {
    "data.ingest": lambda out: {"rows": out[0].n},
    "citest.bootstrap_test": lambda out: {"b": out.b_replicates},
    "mle.fit": _fit_summary,
    "resampling.run_plan": lambda out: {"b": out.n_requested, "dropped": out.n_dropped},
}


class Recorder:
    """In-memory span log with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        if threading.current_thread() is not self._main_thread:
            try:
                return self._main_stack[-1]
            except IndexError:
                return None
        return None

    def wrap(self, name: str, fn):
        summarize = SUMMARIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            ok = False
            t0 = time.monotonic()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.monotonic()
                stack.pop()
                info = None
                summary_failed = False
                if ok and summarize is not None:
                    try:
                        info = summarize(out)
                    except Exception as exc:  # noqa: BLE001 - never fail the stage
                        summary_failed = True
                        print(f"tracer: no summary of {name}: {exc!r}", file=sys.stderr)
                self.spans.append({
                    "id": span_id, "parent": parent,
                    "thread": threading.get_ident(), "name": name,
                    "t0": t0, "t1": t1, "ok": ok, "info": info,
                    "summary_failed": summary_failed,
                })

        return traced


def load_modules() -> dict[str, types.ModuleType]:
    """The latentcat package and every submodule, by short name."""
    import latentcat

    modules = {"latentcat": latentcat}
    for info in pkgutil.iter_modules(latentcat.__path__):
        modules[info.name] = importlib.import_module(f"latentcat.{info.name}")
    return modules


def install(modules: dict[str, types.ModuleType], recorder: Recorder) -> list[str]:
    """Wrap each public latentcat function in every namespace that binds it."""
    wrappers: dict[int, tuple[str, object]] = {}
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            home = value.__module__ or ""
            if not home.startswith("latentcat.") or value.__name__.startswith("_"):
                continue
            if id(value) not in wrappers:
                name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                wrappers[id(value)] = (name, recorder.wrap(name, value))
            setattr(module, attr, wrappers[id(value)][1])
    return sorted(name for name, _ in wrappers.values())


def main(argv: list[str]) -> int:
    spans_path, t_spawn, cli_args = argv[0], float(argv[1]), argv[2:]
    recorder = Recorder()
    modules = load_modules()
    wrapped = install(modules, recorder)
    cli = modules["cli"]
    try:
        code = cli.run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"t_spawn": t_spawn, "wrapped": wrapped,
                       "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
