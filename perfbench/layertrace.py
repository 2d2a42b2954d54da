"""Per-layer spans recorded from outside the program.

The traced run wraps the public functions of each layer (named after
its ``repro`` module) with a span that records entry counts and self
time: the span's duration minus the time of the spans it encloses.
Nothing inside ``src/`` changes.  A name bound by ``from ... import``
is replaced in every ``repro`` module that holds it, so the call sites
that look it up see the wrapper.

Pool workers are forked after the wrappers are installed, so they run
the wrapped functions too.  A hook around the runner's
``_worker_chunk`` ships each chunk's tally back in the chunk metadata's
``spans`` list, which the runner already appends to ``repro.obs.trace``
in the parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Record name of a worker chunk's tally in ``repro.obs.trace``.
CHUNK_RECORD = "perfbench.chunk"

#: (layer, operation, module, public names).  ``Class.method`` names a
#: method; plain names are module-level functions.
TARGETS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("generator.taskgen", "call", "repro.generator.taskgen",
     ("random_task", "generate_taskset", "generate_taskset_with_targets", "population")),
    ("io", "call", "repro.io", ("load_taskset", "taskset_from_json")),
    ("model.transform", "call", "repro.model.transform",
     ("shorten_hi_deadlines", "degrade_lo_tasks", "terminate_lo_tasks",
      "apply_uniform_scaling", "scale_wcet_uncertainty", "restrict_to")),
    ("model.fingerprint", "call", "repro.model.fingerprint",
     ("taskset_fingerprint", "digest_task_rows")),
    ("model.fingerprint", "call", "repro.pipeline.cache", ("request_fingerprint",)),
    ("model.fingerprint", "call", "repro.pipeline.core", ("job_fingerprint",)),
    ("analysis.tuning", "call", "repro.analysis.tuning",
     ("density_preparation_factor", "structural_floor", "exact_preparation_factor",
      "min_preparation_factor")),
    ("analysis.schedulability", "call", "repro.analysis.schedulability",
     ("lo_mode_schedulable", "hi_mode_schedulable", "system_schedulable")),
    ("analysis.speedup", "call", "repro.analysis.speedup",
     ("min_speedup", "speedup_schedulable")),
    ("analysis.resetting", "call", "repro.analysis.resetting",
     ("resetting_time", "resetting_curve")),
    ("analysis.population", "call", "repro.analysis.population",
     ("min_speedup_many", "lo_mode_schedulable_many", "resetting_many",
      "min_preparation_factor_many")),
    ("analysis.kernels", "compile", "repro.analysis.kernels",
     ("compile_taskset", "compile_tasksets", "compile_population",
      "CompiledTaskSet.with_hi_lo_deadline_factor", "CompiledTaskSet.with_lo_deadline",
      "CompiledTaskSet.with_wcet_uncertainty")),
    ("analysis.kernels", "eval", "repro.analysis.kernels",
     ("CompiledTaskSet.total_dbf_lo", "CompiledTaskSet.total_dbf_hi",
      "CompiledTaskSet.total_adb_hi", "CompiledTaskSet.window_peak",
      "CompiledTaskSet.lo_demand_ok", "CompiledTaskSet.breakpoints_in",
      "CompiledPopulation.eval_many", "CompiledPopulation.breakpoints_many")),
    ("pipeline.request", "evaluate", "repro.pipeline.request", ("evaluate_request",)),
    ("pipeline.request", "codec", "repro.pipeline.request",
     ("AnalysisReport.to_dict", "AnalysisReport.from_dict")),
    ("pipeline.cache", "get", "repro.pipeline.cache", ("ResultCache.get",)),
    ("pipeline.cache", "put", "repro.pipeline.cache", ("ResultCache.put",)),
    ("pipeline.fault_tolerance", "append", "repro.pipeline.fault_tolerance",
     ("DurableAppender.append",)),
    ("pipeline.fault_tolerance", "commit", "repro.pipeline.fault_tolerance",
     ("DurableAppender.commit",)),
    ("pipeline.fault_tolerance", "decode", "repro.pipeline.fault_tolerance",
     ("decode_durable_line",)),
    ("pipeline.runner", "run", "repro.pipeline.runner", ("BatchRunner.run",)),
    ("pipeline.core", "submit", "repro.pipeline.core", ("WorkQueueCore.submit",)),
    ("pipeline.core", "run", "repro.pipeline.core", ("WorkQueueCore.run",)),
    ("service.schema", "parse", "repro.service.schema", ("parse_analyze_payload",)),
    ("service.schema", "encode", "repro.service.schema", ("job_payload",)),
]

#: Spans whose individual (start, duration) pairs are kept: the serve
#: breakdown needs their distributions, not just their sums.
EVENT_KEYS = frozenset({
    "pipeline.core|submit",
    "pipeline.runner|run",
    "service.schema|parse",
    "service.schema|encode",
})

#: Outcome counters read off a wrapped call: ``(args, result) ->
#: (counter, increment)``.  A non-zero increment also flags the call's
#: event record.
OUTCOMES: Dict[str, Callable[[Tuple[Any, ...], Any], Tuple[str, int]]] = {
    "pipeline.cache|get": lambda args, result: ("hits", int(result is not None)),
    "pipeline.core|submit": lambda args, result: ("coalesced", int(bool(result[1]))),
    "pipeline.runner|run": lambda args, result: (
        "faults", sum(args[0].faults.to_dict().values())),
}


class _Tally:
    """One thread's open-span stack and running sums."""

    __slots__ = ("thread", "stack", "self_s", "calls", "counts", "events")

    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        self.stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.events: Dict[str, List[List[float]]] = defaultdict(list)


class LayerClock:
    """Self-time and entry-count accounting for nested layer spans.

    Each thread keeps its own stack and sums, so no lock is taken per
    span; :meth:`export` merges them.  ``calls`` counts entries into a
    layer: a call made from inside the same layer is part of the
    enclosing call, not a new entry.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._tallies: List[_Tally] = []
        self._registry = threading.Lock()

    def _tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally()
            self._local.tally = tally
            with self._registry:
                self._tallies.append(tally)
        return tally

    def wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        layer = key.split("|", 1)[0]
        clock = self._clock
        keep_events = key in EVENT_KEYS
        outcome = OUTCOMES.get(key)
        tally_of = self._tally

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            tally = tally_of()
            stack = tally.stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                tally.self_s[key] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if parent is None or parent[0] != layer:
                    tally.calls[key] += 1
            flag = 0
            if outcome is not None:
                name, flag = outcome(args, result)
                tally.counts[f"{key}|{name}"] += flag
            if keep_events:
                tally.events[key].append([start, duration, flag])
            return result

        span.__wrapped_layer_key__ = key  # type: ignore[attr-defined]
        return span

    def reset(self) -> None:
        """Forget every sum (call only while no span is open elsewhere)."""
        with self._registry:
            self._tallies = []
        self._local = threading.local()

    def export(self) -> Dict[str, Any]:
        """Merged sums of all threads as a JSON-ready dict."""
        out = empty_export()
        for part in self.export_by_thread().values():
            merge(out, part)
        return out

    def export_by_thread(self) -> Dict[str, Dict[str, Any]]:
        """Sums per thread name (threads overlap in wall time)."""
        with self._registry:
            tallies = list(self._tallies)
        out: Dict[str, Dict[str, Any]] = {}
        for tally in tallies:
            merge(out.setdefault(tally.thread, empty_export()), {
                "self_s": dict(tally.self_s),
                "calls": dict(tally.calls),
                "counts": dict(tally.counts),
                "events": {k: list(v) for k, v in tally.events.items()},
            })
        return out


def empty_export() -> Dict[str, Any]:
    return {"self_s": {}, "calls": {}, "counts": {}, "events": {}}


def merge(into: Dict[str, Any], other: Dict[str, Any]) -> Dict[str, Any]:
    """Add ``other``'s sums to ``into`` (events are concatenated)."""
    for section in ("self_s", "calls", "counts"):
        target = into.setdefault(section, {})
        for key, value in other.get(section, {}).items():
            target[key] = target.get(key, 0) + value
    events = into.setdefault("events", {})
    for key, value in other.get("events", {}).items():
        events.setdefault(key, []).extend(value)
    return into


class Installation:
    """The wrappers currently patched into the ``repro`` modules."""

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        # A class keeps its raw attribute (a classmethod stays one).
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def install(self) -> "Installation":
        replacements: Dict[int, Tuple[Any, Any]] = {}
        for layer, op, module_name, names in TARGETS:
            module = importlib.import_module(module_name)
            key = f"{layer}|{op}"
            for name in names:
                if "." in name:
                    class_name, method = name.split(".", 1)
                    cls = getattr(module, class_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped: Any = classmethod(self.clock.wrap(key, raw.__func__))
                    else:
                        wrapped = self.clock.wrap(key, raw)
                    self._set(cls, method, wrapped)
                else:
                    original = getattr(module, name)
                    replacements[id(original)] = (original, self.clock.wrap(key, original))
        runner = importlib.import_module("repro.pipeline.runner")
        chunk = runner._worker_chunk
        replacements[id(chunk)] = (chunk, _chunk_hook(self.clock, chunk))
        for module in [m for n, m in list(sys.modules.items()) if n == "repro" or n.startswith("repro.")]:
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(module, attr, entry[1])
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []


def _chunk_hook(clock: LayerClock, chunk_fn: Callable[..., Any]) -> Callable[..., Any]:
    """Worker-side wrapper: tally one chunk and ship it back with the results."""

    @functools.wraps(chunk_fn)
    def _worker_chunk(*args: Any, **kwargs: Any) -> Any:
        clock.reset()  # drop sums inherited from the parent through fork
        results, meta = chunk_fn(*args, **kwargs)
        meta["spans"].append({
            "name": CHUNK_RECORD,
            "busy_s": meta["seconds"],
            "perf": meta["perf"],
            "layers": clock.export(),
        })
        clock.reset()
        return results, meta

    return _worker_chunk


def per_layer(export: Dict[str, Any], section: str) -> Dict[str, float]:
    """One section (``self_s`` or ``calls``) summed over each layer's operations."""
    out: Dict[str, float] = defaultdict(float)
    for key, value in export.get(section, {}).items():
        out[key.split("|", 1)[0]] += value
    return dict(out)


def layer_table(
    title: str,
    export: Dict[str, Any],
    wall_s: float,
    extra_rows: Optional[List[Tuple[str, float]]] = None,
) -> Tuple[str, float]:
    """A table of self time per layer that adds up to ``wall_s``.

    ``extra_rows`` (for example idle pool-worker time) are listed before
    the ``unattributed`` remainder.  Returns the text and the
    unattributed seconds.
    """
    selfs = per_layer(export, "self_s")
    calls = per_layer(export, "calls")
    rows = sorted(selfs.items(), key=lambda item: -item[1])
    extra = list(extra_rows or [])
    unattributed = wall_s - sum(selfs.values()) - sum(v for _, v in extra)
    lines = [f"{title}: wall {wall_s:.3f} s", f"  {'layer':<28}{'self_s':>10}{'share':>8}{'calls':>10}"]
    for name, value in rows:
        lines.append(f"  {name:<28}{value:>10.4f}{_share(value, wall_s):>8}{int(calls.get(name, 0)):>10}")
    for name, value in extra + [("unattributed", unattributed)]:
        lines.append(f"  {name:<28}{value:>10.4f}{_share(value, wall_s):>8}{'':>10}")
    total = sum(selfs.values()) + sum(v for _, v in extra) + unattributed
    lines.append(f"  {'total':<28}{total:>10.4f}{_share(total, wall_s):>8}")
    return "\n".join(lines), unattributed


def _share(value: float, wall: float) -> str:
    return f"{100.0 * value / wall:.1f}%" if wall > 0 else "-"
