"""The four workloads, each driven through the entry points users call.

* ``fig6`` -- the Figure-6 population through ``repro.api.analyze_many``
  (``jobs=2``): many small sets where per-set Python work dominates.
* ``fig7`` -- the Figure-7 grid population through ``analyze_many``
  (``jobs=2``): equally small sets whose Theorem-2 scan is ~50x dearer,
  the one workload where kernel array work dominates.
* ``batch`` -- ``repro-mc batch`` called in-process through
  ``repro.cli.main``: a cold pass with cache and checkpoint, a
  ``--resume`` pass and a warm-cache pass over a corpus with renamed
  copies.  Analysis is cheap, so the pipeline's I/O dominates.
* ``serve`` -- ``repro-mc serve`` in its own process under an open loop
  (see :mod:`loadgen`).

Every timed round analyses inputs the process has not seen: inputs
come from ``--seed``, the warm-up uses a disjoint seed, and the kernel
memo and compile cache are cleared after it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pickle
import resource
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import benchmath
import layertrace
import loadgen
from benchmath import CpuTime
from repro import api, cli
from repro.analysis import kernels
from repro.generator import taskgen
from repro.generator.taskgen import FIG7_CONFIG, GeneratorConfig
from repro.obs import trace
from repro.pipeline.core import WorkQueueCore
from repro.service.schema import parse_analyze_payload

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"

#: Worker processes of the offline sweeps: ``analyze_many(jobs=2)``.
SWEEP_JOBS = 2
#: Set-up (input generation plus warm-up) is repeated this often; the median counts.
SETUP_REPEATS = 3
#: Sets re-evaluated by the scalar reference engine after a sweep.
CHECK_SAMPLE = 20

FIG6_U = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
FIG6_PER_POINT = 50
FIG7_U = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)
FIG7_PER_CELL = 2
BATCH_UNIQUE = 540
BATCH_COPIES = 60
BATCH_ROUNDS = 8

SERVE_LIGHT_RPS = 100.0
SERVE_LOADED_RPS = 200.0
SERVE_LADDER_STEPS = 6  # ladder steps after the loaded phase
SERVE_REPEAT_SHARE = 0.2
SERVE_BATCH_SHARE = 0.05
SERVE_BATCH_SETS = 16
SERVE_OPTIONS = {"speedup": 2.0}


class CheckFailed(Exception):
    """The program's output disagreed with the reference."""


@dataclass
class Detail:
    """One workload-specific end-to-end figure, for the text report."""

    name: str
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    e2e: Dict[str, float] = field(default_factory=dict)
    details: List[Detail] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    tables: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


class Machine:
    """CPU steal share of all CPUs over a window."""

    def __init__(self) -> None:
        self._start = cpu_times()

    def steal_frac(self) -> float:
        steal, total = cpu_times()
        return (steal - self._start[0]) / max(total - self._start[1], 1)

    def summary(self) -> str:
        return f"machine: cpu steal {self.steal_frac():.4f}"


def clear_kernel_state() -> None:
    kernels.clear_memo()
    kernels.clear_compile_cache()


# ---------------------------------------------------------------------------
# Traced windows
# ---------------------------------------------------------------------------
class TracedWindow:
    """Layer tallies summed over the traced rounds of one run."""

    def __init__(self) -> None:
        self.clock = layertrace.LayerClock()
        self.main = layertrace.empty_export()
        self.workers = layertrace.empty_export()
        self.perf: Dict[str, float] = {}
        self.wall_s = 0.0
        self.busy_s = 0.0
        self.chunks = 0

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        installed = layertrace.Installation(self.clock).install()
        self.clock.reset()
        trace.drain()
        perf_before = kernels.PERF.snapshot()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            installed.uninstall()
            layertrace.merge(self.main, self.clock.export())
            self.clock.reset()
            self.add_perf(kernels.PERF.delta_since(perf_before))
            for record in trace.drain():
                if record.get("name") == layertrace.CHUNK_RECORD:
                    layertrace.merge(self.workers, record["layers"])
                    self.add_perf(record["perf"])
                    self.busy_s += record["busy_s"]
                    self.chunks += 1

    def add_perf(self, delta: Dict[str, float]) -> None:
        for key, value in delta.items():
            self.perf[key] = self.perf.get(key, 0) + value

    def combined(self) -> Dict[str, Any]:
        return layertrace.merge(layertrace.merge(layertrace.empty_export(), self.main), self.workers)


# ---------------------------------------------------------------------------
# Round-based workloads (fig6, fig7, batch)
# ---------------------------------------------------------------------------
@dataclass
class RoundResult:
    sets: int
    seconds: Dict[str, float]  # pass name -> wall seconds
    cpu: Dict[str, CpuTime]  # pass name -> CPU time of the program's processes
    failed: int = 0


def process_cpu() -> CpuTime:
    """CPU time of this process and its reaped children (the pool workers).

    The kernel does not charge CPU steal to a process, and time spent
    waiting (for an fsync, a lock or an idle pool worker) is not CPU
    time either.
    """
    usages = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return CpuTime(sum(u.ru_utime for u in usages), sum(u.ru_stime for u in usages))


def sys_frac_detail(cpu: Sequence[CpuTime], samples: int) -> Detail:
    """The kernel's share of the CPU time a rate was computed from."""
    return Detail("cpu.sys_frac", sum(c.system for c in cpu) / sum(c.total for c in cpu), "ratio", samples)


class RoundWorkload:
    """A workload timed as rounds of fresh inputs until the time is up."""

    name = ""
    min_rounds = 2
    time_bounded = True

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.inputs: List[Any] = []
        self.results: List[RoundResult] = []
        self.traced_results: List[RoundResult] = []
        self.traced: Optional[TracedWindow] = None  # set for a traced run
        self.peak_rss_mb = 0.0

    # Subclass hooks ---------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self, rep: int) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def summarize(self, out: Outcome) -> None:
        raise NotImplementedError

    def rounds_needed(self) -> int:
        raise NotImplementedError

    @contextlib.contextmanager
    def session(self) -> Iterator[None]:
        """Held from input generation to the output checks."""
        yield

    def describe(self) -> str:
        traced = f", {len(self.traced_results)} traced" if self.traced is not None else ""
        return f"rounds: {len(self.results)} timed{traced}"

    # Round loop -------------------------------------------------------------
    def measure(self) -> None:
        """Run rounds until the time is up (or, if not time-bounded, all of them).

        A traced run traces every second round.
        """
        traced = self.traced
        deadline = time.perf_counter() + self.seconds
        for index in range(len(self.inputs)):
            done = len(self.results) + len(self.traced_results)
            enough = done >= self.min_rounds * (2 if traced else 1)
            if self.time_bounded and enough and time.perf_counter() >= deadline:
                break
            self.prepare_round(index)
            if traced is not None and index % 2 == 1:
                with traced.active():
                    self.traced_results.append(self.run_round(index))
            else:
                self.results.append(self.run_round(index))
            self.settle_round(index)
        self.peak_rss_mb = self.read_peak_rss_mb()

    def read_peak_rss_mb(self) -> float:
        raise NotImplementedError

    def prepare_round(self, index: int) -> None:
        """Ready a round's inputs, outside its timed or traced window."""

    def settle_round(self, index: int) -> None:
        """Work on a finished round's outputs, outside its timed or traced window."""

    @staticmethod
    def rate(results: Sequence[RoundResult], phase: str) -> float:
        """Sets per wall second over all rounds.

        Totals rather than a median of rounds: a set's cost varies
        several-fold with its inputs, so every set counts.
        """
        return sum(r.sets for r in results) / sum(r.seconds[phase] for r in results)


def _sample_indices(seed: int, population: int, k: int) -> List[int]:
    rng = np.random.default_rng([seed, 7919])
    return sorted(int(i) for i in rng.choice(population, size=min(k, population), replace=False))


class Sweep(RoundWorkload):
    """fig6 and fig7: rounds of ``analyze_many(jobs=2)`` on one population."""

    round_seconds_hint = 1.0

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        self.requests: List[api.AnalysisRequest] = []
        self.reports: List[Tuple[api.AnalysisRequest, Any]] = []

    def population(self, stream: int) -> List[api.AnalysisRequest]:
        raise NotImplementedError

    def rounds_needed(self) -> int:
        return math.ceil(1.25 * self.seconds / self.round_seconds_hint) + 2

    def generate(self) -> None:
        # Pickled, so the resident inputs stay small: pool workers fork
        # from this process and their peak memory would count them.
        self.inputs = [pickle.dumps(self.population(index)) for index in range(self.rounds_needed())]

    def warm_up(self, rep: int) -> None:
        # A disjoint stream: the timed rounds use streams 0..rounds-1.
        api.analyze_many(self.population(1_000_000 + rep)[:: 4], jobs=SWEEP_JOBS)
        clear_kernel_state()

    def prepare_round(self, index: int) -> None:
        self.requests = pickle.loads(self.inputs[index])

    def run_round(self, index: int) -> RoundResult:
        requests, self.requests = self.requests, []
        cpu = process_cpu()
        start = time.perf_counter()
        reports = api.analyze_many(requests, jobs=SWEEP_JOBS)
        seconds = time.perf_counter() - start
        cpu = process_cpu() - cpu
        # Only the checked sample is kept, so memory does not grow with
        # the number of rounds (pool workers are forked from this process).
        for i in _sample_indices(self.seed + index, len(requests), CHECK_SAMPLE // 2):
            self.reports.append((requests[i], reports[i]))
        failed = sum(1 for r in reports if r.failure is not None)
        return RoundResult(len(requests), {"sweep": seconds}, {"sweep": cpu}, failed)

    def read_peak_rss_mb(self) -> float:
        """Peak resident set of the largest pool worker so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self) -> None:
        self.check_reports([(q, r.to_dict()) for q, r in self.reports])

    def check_reports(self, analysed: Sequence[Tuple[api.AnalysisRequest, Dict[str, Any]]]) -> None:
        """Re-evaluate the kept sample with the scalar reference engine."""
        scalar = [
            dataclasses.replace(request, engine="scalar") for request, _ in analysed
        ]
        reference = api.analyze_many(scalar, jobs=SWEEP_JOBS)
        for (request, payload), ref in zip(analysed, reference):
            if canonical(ref.to_dict()) != canonical(payload):
                raise CheckFailed(
                    f"{self.name}: report for {request.taskset.name} differs "
                    f"from the scalar reference engine"
                )

    def summarize(self, out: Outcome) -> None:
        results = self.results
        sets = sum(r.sets for r in results)
        cpu = [r.cpu["sweep"] for r in results]
        out.e2e["sets_per_cpu_s"] = sets / sum(c.total for c in cpu)
        out.e2e["peak_rss_mb"] = self.peak_rss_mb
        out.attempted = sets
        out.failed = sum(r.failed for r in results)
        out.details.append(Detail("sets_per_s", self.rate(results, "sweep"), "sets/s", sets))
        out.details.append(Detail("sets_per_cpu_s", out.e2e["sets_per_cpu_s"], "sets/cpu_s", sets))
        out.details.append(sys_frac_detail(cpu, sets))


class Fig6(Sweep):
    """Figure 6: six U_bound points, generator defaults, exact x, y=2, s=3."""

    name = "fig6"
    round_seconds_hint = 1.0
    u_points = FIG6_U
    per_point = FIG6_PER_POINT

    def population(self, stream: int) -> List[api.AnalysisRequest]:
        config = GeneratorConfig()
        requests = []
        for k, u in enumerate(self.u_points):
            rng = np.random.default_rng([self.seed, stream, k])
            for i in range(self.per_point):
                taskset = taskgen.generate_taskset(u, rng, config, name=f"u{u:g}_{stream}_{i}")
                requests.append(api.AnalysisRequest(
                    taskset=taskset, speedup=3.0, auto_x="exact", y=2.0, resetting="always",
                ))
        return requests


class Fig7(Sweep):
    """Figure 7: the 6x6 (U_HI, U_LO) grid, gamma=10, LO terminated, s=2, 5 s budget."""

    name = "fig7"
    round_seconds_hint = 6.0
    u_points = FIG7_U
    per_cell = FIG7_PER_CELL

    def population(self, stream: int) -> List[api.AnalysisRequest]:
        requests = []
        for i, uh in enumerate(self.u_points):
            for j, ul in enumerate(self.u_points):
                rng = np.random.default_rng([self.seed, stream, i, j])
                for k in range(self.per_cell):
                    taskset = taskgen.generate_taskset_with_targets(
                        uh, ul, rng, FIG7_CONFIG, name=f"g{i}_{j}_{stream}_{k}", jitter=0.025,
                    )
                    requests.append(api.AnalysisRequest(
                        taskset=taskset, speedup=2.0, reset_budget=5000.0, y=math.inf,
                        resetting="auto", auto_x="exact",
                    ))
        return requests


class Batch(RoundWorkload):
    """``repro-mc batch``: cold, ``--resume`` and warm-cache passes per corpus."""

    name = "batch"
    PASSES = ("cold", "resume", "warm")
    unique = BATCH_UNIQUE
    copies = BATCH_COPIES
    # A fixed input size rather than --seconds of rounds: every round
    # creates ~1400 files, and on a 2-vCPU VM whose disk is mounted with
    # online discard, heavy create/fsync churn slowed file creation 20x
    # for minutes, so longer batch runs made every later run slower.
    time_bounded = False

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        super().__init__(seed, seconds, workdir)
        self.captured: List[Tuple[WorkQueueCore, List[Any]]] = []
        self.last_passes: Dict[str, Tuple[WorkQueueCore, List[Any]]] = {}

    def rounds_needed(self) -> int:
        return BATCH_ROUNDS

    def corpus(self, stream: int, unique: int, copies: int) -> List[Tuple[str, str]]:
        """Seeded small sets plus renamed copies of some of them: (file name, text)."""
        rng = np.random.default_rng([self.seed, stream])
        config = GeneratorConfig()
        files = []
        for i in range(unique):
            taskset = taskgen.generate_taskset(float(rng.uniform(0.3, 0.9)), rng, config, name=f"set{stream}_{i}")
            files.append((f"ts{i:04d}.json", api.taskset_to_json(taskset) + "\n"))
        for c, i in enumerate(rng.choice(unique, size=copies, replace=False)):
            files.append((f"ts{int(i):04d}-copy{c}.json", files[int(i)][1]))
        return files

    @staticmethod
    def write_corpus(directory: Path, files: Sequence[Tuple[str, str]]) -> None:
        directory.mkdir(parents=True)
        for name, text in files:
            (directory / name).write_text(text)

    def base(self, index: int) -> Path:
        return self.workdir / f"round{index}"

    def generate(self) -> None:
        # Only the texts.  Each round's files are written just before the
        # round (prepare_round), outside set-up and the timed passes: file
        # creation speed swings several-fold on a VM disk.  Compressed,
        # since the CLI runs in this process and its peak memory counts.
        self.inputs = [
            zlib.compress(pickle.dumps(self.corpus(index, self.unique, self.copies)))
            for index in range(self.rounds_needed())
        ]

    def prepare_round(self, index: int) -> None:
        self.write_corpus(self.base(index) / "in", pickle.loads(zlib.decompress(self.inputs[index])))

    @contextlib.contextmanager
    def session(self) -> Iterator[None]:
        """Record each pass's core and reports (one extra call per pass)."""
        original = WorkQueueCore.run
        captured = self.captured

        def run(core: WorkQueueCore, *args: Any, **kwargs: Any) -> Any:
            reports = original(core, *args, **kwargs)
            captured.append((core, reports))
            return reports

        WorkQueueCore.run = run  # type: ignore[method-assign]
        try:
            yield
        finally:
            WorkQueueCore.run = original  # type: ignore[method-assign]

    def passes(self, base: Path) -> Dict[str, List[str]]:
        tasksets = ["batch", "--tasksets", str(base / "in")]
        cache, ckpt = str(base / "cache"), str(base / "ckpt.jsonl")
        return {
            "cold": tasksets + ["--cache", cache, "--checkpoint", ckpt],
            "resume": tasksets + ["--resume", ckpt],
            "warm": tasksets + ["--cache", cache],
        }

    def warm_up(self, rep: int) -> None:
        base = self.workdir / f"warm{rep}"
        self.write_corpus(base / "in", self.corpus(1_000_000 + rep, max(self.unique // 10, 2), max(self.copies // 10, 1)))
        for argv in self.passes(base).values():
            self._cli(argv)
        shutil.rmtree(base)
        self.captured.clear()
        clear_kernel_state()

    def _cli(self, argv: List[str]) -> float:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"batch {' '.join(argv)} exited {code}")
        return seconds

    def run_round(self, index: int) -> RoundResult:
        base = self.base(index)
        seconds, cpu = {}, {}
        first = len(self.captured)
        for name, argv in self.passes(base).items():
            before = process_cpu()
            seconds[name] = self._cli(argv)
            cpu[name] = process_cpu() - before
        passes = dict(zip(self.PASSES, self.captured[first:]))
        self.last_passes = passes
        failed = sum(1 for r in passes["cold"][1] if r.failure is not None)
        return RoundResult(self.unique + self.copies, seconds, cpu, failed)

    @staticmethod
    def written_bytes(base: Path) -> Tuple[float, float]:
        """Bytes in the cache directory and in the checkpoint of one round."""
        cache = sum(p.stat().st_size for p in (base / "cache").rglob("*.json"))
        return float(cache), float((base / "ckpt.jsonl").stat().st_size)

    def verify_round(self, passes: Dict[str, Tuple[WorkQueueCore, List[Any]]]) -> None:
        """Byte-identical reports across passes; reconciled exactly-once stats."""
        total = self.unique + self.copies
        cold = [canonical(r.to_dict()) for r in passes["cold"][1]]
        for name in ("resume", "warm"):
            if [canonical(r.to_dict()) for r in passes[name][1]] != cold:
                raise CheckFailed(f"batch: {name} reports differ from the cold pass")
        expected = {
            "cold": {"computed": self.unique, "deduplicated": self.copies},
            "resume": {"resumed": total},
            "warm": {"cache_hits": total},
        }
        for name, want in expected.items():
            stats = passes[name][0].stats
            got = stats.to_dict()
            if not stats.reconciles() or got["total"] != total or any(got[k] != v for k, v in want.items()):
                raise CheckFailed(f"batch: {name} pass stats {got} do not reconcile to {want}")

    def read_peak_rss_mb(self) -> float:
        """The CLI runs in this process: its own peak resident set."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def settle_round(self, index: int) -> None:
        self.verify_round(self.last_passes)
        self.captured.clear()

    def check(self) -> None:
        pass  # each round is verified as it finishes (settle_round)

    def summarize(self, out: Outcome) -> None:
        results = self.results
        rates = {name: self.rate(results, name) for name in self.PASSES}
        per_pass = sum(r.sets for r in results)
        # The median round: analysis is cheap and rounds are alike, so a
        # round spread comes from the host (a steal burst), not the input.
        # User CPU only: the system time of the cold pass's file writes
        # and fsyncs, about half its CPU, moved 1.8x between consecutive
        # runs on a VM disk; cpu.sys_frac prints its share.
        out.e2e["sets_per_cpu_s"] = benchmath.median([r.sets / r.cpu["cold"].user for r in results])
        out.e2e["peak_rss_mb"] = self.peak_rss_mb
        out.attempted = 3 * per_pass
        out.failed = 3 * sum(r.failed for r in results)
        out.details += [
            Detail("sets_per_s", rates["cold"], "sets/s", per_pass),
            Detail("sets_per_cpu_s", out.e2e["sets_per_cpu_s"], "sets/cpu_s", per_pass),
            sys_frac_detail([r.cpu["cold"] for r in results], per_pass),
            Detail("resume_sets_per_s", rates["resume"], "sets/s", per_pass),
            Detail("warm_sets_per_s", rates["warm"], "sets/s", per_pass),
        ]


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
class Serve:
    """``repro-mc serve`` under the open loop: light, loaded, then the ladder.

    The light (100 req/s) and loaded (200 req/s) phases give latency
    from the due time.  The ladder starts at the loaded phase: while its
    steps pass (p99 <= 50 ms, no growing backlog) it climbs in steps of
    at most 10%; if the loaded phase missed, it descends the same way.
    It stops at its answer or after ``SERVE_LADDER_STEPS`` more steps.
    The end-to-end rate is the sets answered in the light and loaded
    phases per CPU second of the server.
    """

    name = "serve"

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        # Light runs for half the time, so 20 s gives the 1000 samples
        # a p99 needs; every other phase sends as many requests.
        self.per_phase = max(int(round(seconds * SERVE_LIGHT_RPS / 2)), 50)
        self.phases: List[List[loadgen.Request]] = []
        self.server: Optional[loadgen.ServerProcess] = None
        self.posted = 0
        self.runs: List[loadgen.PhaseRun] = []
        self.cpu = CpuTime(0.0, 0.0)  # server CPU over the light and loaded phases
        self.peak_rss_mb = 0.0
        self.ladder = False  # whether the last measure() ran the whole schedule

    def bodies(self, stream: int, count: int) -> List[loadgen.Request]:
        """Seeded bodies with an exact mix: 5% batches, 20% repeats, singles."""
        rng = np.random.default_rng([self.seed, stream])
        config = GeneratorConfig()
        n_batch = round(SERVE_BATCH_SHARE * count)
        n_repeat = round(SERVE_REPEAT_SHARE * count)
        kinds = ["batch"] * n_batch + ["repeat"] * n_repeat + ["single"] * (count - n_batch - n_repeat)
        kinds = [kinds[int(i)] for i in rng.permutation(count)]
        options = json.dumps(SERVE_OPTIONS)
        recent: List[loadgen.Request] = []
        out: List[loadgen.Request] = []

        def fresh(label: str) -> str:
            u = float(rng.uniform(0.3, 0.9))
            return api.taskset_to_json(taskgen.generate_taskset(u, rng, config, name=label), indent=None)

        for i, kind in enumerate(kinds):
            if kind == "repeat" and recent:
                out.append(recent[int(rng.integers(len(recent)))])
            elif kind == "batch":
                docs = ", ".join(fresh(f"s{stream}_{i}_{k}") for k in range(SERVE_BATCH_SETS))
                body = f'{{"wire_version": 1, "wait": true, "tasksets": [{docs}], "options": {options}}}'
                out.append(loadgen.Request(body.encode(), SERVE_BATCH_SETS))
            else:
                body = f'{{"wire_version": 1, "wait": true, "taskset": {fresh(f"s{stream}_{i}")}, "options": {options}}}'
                request = loadgen.Request(body.encode(), 1)
                out.append(request)
                recent = (recent + [request])[-50:]
        return out

    def generate(self) -> None:
        self.phases = [self.bodies(index, self.per_phase) for index in range(2 + SERVE_LADDER_STEPS)]

    @contextlib.contextmanager
    def session(self) -> Iterator[None]:
        try:
            yield
        finally:
            if self.server is not None:
                self.server.stop()

    def describe(self) -> str:
        rates = ", ".join(f"{run.step.rate:g}" for run in self.runs)
        return f"phases: {len(self.runs)} ({rates} req/s)"

    def start_server(self, traced_out: Optional[Path] = None) -> loadgen.ServerProcess:
        server = loadgen.ServerProcess(ROOT, self.workdir, traced_out=traced_out)
        self.server = server
        server.start()
        return server

    def warm_up(self, rep: int, traced_out: Optional[Path] = None) -> None:
        """A fresh server process, warmed on a disjoint seed."""
        if self.server is not None:
            self.server.stop()
        server = self.start_server(traced_out)
        warm = self.bodies(1_000_000 + rep, 60)
        answers = server.post_many([r.body for r in warm])
        if not all(loadgen.answered_ok(status, payload) for status, payload in answers):
            raise CheckFailed("serve: warm-up request failed")
        self.posted = len(warm)

    def keep_indices(self, phase: int) -> List[int]:
        rng = np.random.default_rng([self.seed, 104729, phase])
        return sorted(int(i) for i in rng.choice(self.per_phase, size=CHECK_SAMPLE // 2, replace=False))

    def next_rate(self) -> Optional[float]:
        if len(self.runs) < 2:
            return (SERVE_LIGHT_RPS, SERVE_LOADED_RPS)[len(self.runs)]
        return benchmath.ladder_next_rate([run.step for run in self.runs[1:]])

    def measure(self, phases: Optional[int] = None) -> None:
        """Light, loaded, then the ladder until its answer or its last step.

        ``phases`` limits the run to the first phases (the traced run
        uses light and loaded only).
        """
        assert self.server is not None
        self.ladder = phases is None
        cpu = self.server.cpu()
        for index in range(len(self.phases) if phases is None else phases):
            rate = self.next_rate()
            if rate is None:
                break
            keep = self.keep_indices(index) if index < 2 else []
            run = loadgen.run_phase(self.server.port, rate, self.phases[index], keep)
            self.runs.append(run)
            self.posted += len(self.phases[index])
            if index == 1:
                # Read after a fixed amount of work, so the ladder's
                # length does not move them.
                self.cpu = self.server.cpu() - cpu
                self.peak_rss_mb = self.server.peak_rss_mb()
            time.sleep(0.2)

    def failed(self) -> int:
        return sum(run.failed for run in self.runs)

    def check(self) -> None:
        assert self.server is not None
        status, metrics = self.server.get("/metrics")
        service = metrics.get("service", {})
        submitted = service.get("jobs_executed", -1) + service.get("jobs_coalesced", -1)
        failed = self.failed()
        if status != 200 or not (self.posted - failed <= submitted <= self.posted):
            raise CheckFailed(
                f"serve: /metrics counts {submitted} submissions, {self.posted} were posted"
            )
        if failed == 0 and submitted != self.posted:
            raise CheckFailed(f"serve: {submitted} submissions counted, {self.posted} posted")
        kept = [pair for run in self.runs for pair in run.kept]
        if not kept:
            raise CheckFailed("serve: no answered request to check")
        self.check_exchanges(kept)

    @staticmethod
    def check_exchanges(kept: Sequence[Tuple[bytes, bytes]]) -> None:
        """Each kept answer must equal a direct ``evaluate_request``."""
        for body, payload in kept:
            requests, _ = parse_analyze_payload(body)
            local = [canonical(json.loads(json.dumps(api.evaluate_request(r).to_dict()))) for r in requests]
            remote = [canonical(r) for r in json.loads(payload)["results"]]
            if local != remote:
                raise CheckFailed("serve: a response differs from a direct evaluate_request")

    def summarize(self, out: Outcome) -> None:
        steps = [run.step for run in self.runs]
        out.attempted = sum(len(s.latencies_ms) for s in steps)
        out.failed = self.failed()
        for label, step in zip(("light", "loaded"), steps[:2]):
            ordered = sorted(step.latencies_ms)
            tail, value, n = benchmath.tail_percentile(step.latencies_ms)
            out.details.append(Detail(f"{label}.p50_ms", benchmath.nearest_rank(ordered, 500), "ms", n))
            out.details.append(Detail(f"{label}.{tail}_ms", value, "ms", n))
        if self.ladder:
            out.details.append(Detail("max_rate_rps", self.max_rate(out), "req/s", len(steps) - 1))
        late = [v for s in steps[:2] for v in s.lateness_ms]
        out.details.append(Detail("loadgen.late.p99_ms", benchmath.tail_percentile(late)[1], "ms", len(late)))
        if len(self.runs) >= 2:
            light, loaded = self.runs[:2]
            sets = light.step.sets + loaded.step.sets
            out.e2e["sets_per_cpu_s"] = sets / self.cpu.total
            out.e2e["peak_rss_mb"] = self.peak_rss_mb
            n = len(loaded.step.latencies_ms)
            out.details.append(Detail("sets_per_s", loaded.step.sets / loaded.seconds, "sets/s", n))
            out.details.append(Detail("sets_per_cpu_s", out.e2e["sets_per_cpu_s"], "sets/cpu_s", 2 * self.per_phase))
            out.details.append(sys_frac_detail([self.cpu], 2 * self.per_phase))

    def max_rate(self, out: Outcome) -> float:
        """The ladder's answer; a note says when its steps ran out first."""
        light, ladder = self.runs[0].step, [run.step for run in self.runs[1:]]
        best = benchmath.ladder_max_rate(ladder)
        if benchmath.ladder_next_rate(ladder) is not None:
            where = "still passing" if ladder[0].passed else "still missing"
            out.notes.append(
                f"max_rate_rps: the ladder ran out of steps at {ladder[-1].rate:g} req/s, {where}"
            )
        if best is None and light.passed:
            return light.rate
        return best.rate if best is not None else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run
# ---------------------------------------------------------------------------
SIMPLE_LAYERS = (
    "generator.taskgen", "io", "model.transform", "model.fingerprint",
    "analysis.tuning", "analysis.schedulability", "analysis.speedup",
    "analysis.resetting", "analysis.population",
)

OPS = {
    "analysis.kernels": ("compile",),
    "pipeline.request": ("evaluate", "codec"),
    "pipeline.cache": ("get", "put"),
    "pipeline.fault_tolerance": ("append", "commit", "decode"),
    "service.schema": ("parse",),
}

#: Every per-layer metric a traced run prints, in order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    [(f"{layer}.{m}", unit) for layer in SIMPLE_LAYERS for m, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("analysis.kernels.compile.calls", "count"),
        ("analysis.kernels.compile.self_s", "s"),
        ("analysis.kernels.evals", "count"),
        ("analysis.kernels.cells", "count"),
        ("analysis.kernels.eval_s", "s"),
        ("analysis.kernels.cells_per_s", "1/s"),
        ("analysis.kernels.pruned_frac", "ratio"),
        ("analysis.kernels.memo_hit_frac", "ratio"),
        ("analysis.kernels.bytes_computed", "B"),
        ("pipeline.request.evaluate.calls", "count"),
        ("pipeline.request.evaluate.self_s", "s"),
        ("pipeline.request.codec.calls", "count"),
        ("pipeline.request.codec.self_s", "s"),
        ("pipeline.cache.get.calls", "count"),
        ("pipeline.cache.get.self_s", "s"),
        ("pipeline.cache.hit_frac", "ratio"),
        ("pipeline.cache.put.calls", "count"),
        ("pipeline.cache.put.self_s", "s"),
        ("pipeline.cache.bytes_written", "B"),
        ("pipeline.fault_tolerance.append.calls", "count"),
        ("pipeline.fault_tolerance.append.self_s", "s"),
        ("pipeline.fault_tolerance.commit.calls", "count"),
        ("pipeline.fault_tolerance.commit.self_s", "s"),
        ("pipeline.fault_tolerance.decode.calls", "count"),
        ("pipeline.fault_tolerance.decode.self_s", "s"),
        ("pipeline.fault_tolerance.checkpoint_bytes", "B"),
        ("pipeline.fault_tolerance.faults", "count"),
        ("pipeline.runner.run.self_s", "s"),
        ("pipeline.runner.worker_busy_s", "s"),
        ("pipeline.runner.pool_efficiency", "ratio"),
        ("pipeline.runner.chunks", "count"),
        ("pipeline.core.submits", "count"),
        ("pipeline.core.coalesced_frac", "ratio"),
        ("pipeline.core.queue_wait.p50_ms", "ms"),
        ("pipeline.core.queue_wait.p99_ms", "ms"),
        ("pipeline.core.exec.p50_ms", "ms"),
        ("service.schema.parse.calls", "count"),
        ("service.schema.parse.self_s", "s"),
        ("service.schema.encode.self_s", "s"),
        ("service.server.http.p50_ms", "ms"),
        ("loadgen.late.p99_ms", "ms"),
        ("env.steal_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("unattributed_frac", "ratio"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(values: Sequence[float], permille: int) -> float:
    return benchmath.nearest_rank(sorted(values), permille) if values else 0.0


def layer_metrics(
    export: Dict[str, Any],
    setup_export: Dict[str, Any],
    perf: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from a combined tally (see ``PER_LAYER``)."""
    selfs, calls, counts = export["self_s"], export["calls"], export["counts"]
    out: Dict[str, float] = {}
    for layer in SIMPLE_LAYERS:
        source = setup_export if layer == "generator.taskgen" else export
        out[f"{layer}.calls"] = float(sum(v for k, v in source["calls"].items() if k.startswith(layer + "|")))
        out[f"{layer}.self_s"] = sum(v for k, v in source["self_s"].items() if k.startswith(layer + "|"))
    for layer, ops in OPS.items():
        for op in ops:
            out[f"{layer}.{op}.calls"] = float(calls.get(f"{layer}|{op}", 0))
            out[f"{layer}.{op}.self_s"] = selfs.get(f"{layer}|{op}", 0.0)
    out["service.schema.encode.self_s"] = selfs.get("service.schema|encode", 0.0)
    cells = perf.get("cells", 0)
    eval_s = perf.get("kernel_seconds", 0.0)
    out["analysis.kernels.evals"] = float(perf.get("kernel_evals", 0))
    out["analysis.kernels.cells"] = float(cells)
    out["analysis.kernels.eval_s"] = eval_s
    out["analysis.kernels.cells_per_s"] = _ratio(cells, eval_s)
    out["analysis.kernels.pruned_frac"] = _ratio(perf.get("pruned", 0), perf.get("candidates", 0))
    memo = perf.get("memo_hits", 0) + perf.get("memo_misses", 0)
    out["analysis.kernels.memo_hit_frac"] = _ratio(perf.get("memo_hits", 0), memo)
    out["analysis.kernels.bytes_computed"] = 8.0 * cells
    out["pipeline.cache.hit_frac"] = _ratio(
        counts.get("pipeline.cache|get|hits", 0), calls.get("pipeline.cache|get", 0))
    out["pipeline.runner.run.self_s"] = selfs.get("pipeline.runner|run", 0.0)
    submits = calls.get("pipeline.core|submit", 0)
    out["pipeline.core.submits"] = float(submits)
    out["pipeline.core.coalesced_frac"] = _ratio(counts.get("pipeline.core|submit|coalesced", 0), submits)
    waits, execs = queue_waits(export)
    out["pipeline.core.queue_wait.p50_ms"] = _p(waits, 500)
    out["pipeline.core.queue_wait.p99_ms"] = benchmath.tail_percentile(waits)[1] if waits else 0.0
    out["pipeline.core.exec.p50_ms"] = _p(execs, 500) if submits else 0.0
    for key in ("pipeline.cache.bytes_written", "pipeline.fault_tolerance.checkpoint_bytes",
                "pipeline.runner.worker_busy_s",
                "pipeline.runner.pool_efficiency", "pipeline.runner.chunks",
                "service.server.http.p50_ms", "loadgen.late.p99_ms", "env.steal_frac",
                "trace.overhead_frac", "unattributed_frac"):
        out[key] = float(extra.get(key, 0.0))
    out["pipeline.fault_tolerance.faults"] = float(counts.get("pipeline.runner|run|faults", 0))
    return out


def queue_waits(export: Dict[str, Any]) -> Tuple[List[float], List[float]]:
    """Per-submission queue wait and execution time (ms) in the server.

    One dispatcher executes submissions first in, first out, so the
    k-th executed run belongs to the k-th submission that did not
    coalesce.  Coalesced submissions wait and execute for zero time.
    """
    submits = sorted(export["events"].get("pipeline.core|submit", []))
    runs = sorted(export["events"].get("pipeline.runner|run", []))
    fresh = [s for s in submits if not s[2]]
    waits = [max(run[0] - (sub[0] + sub[1]), 0.0) * 1000.0 for sub, run in zip(fresh, runs)]
    execs = [run[1] * 1000.0 for run in runs[: len(fresh)]]
    coalesced = len(submits) - len(fresh)
    return waits + [0.0] * coalesced, execs + [0.0] * coalesced
