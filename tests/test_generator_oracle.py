"""The generator against a frozen copy of its add-until-met loop.

The functions under "Reference" are the generator as it was before it
drew with ``rng.random()`` and kept its utilization terms in lists,
copied verbatim: one ``rng.uniform`` per draw, every metric re-summed
from the tasks, the last task rebuilt with ``dataclasses.replace``.
The generator must draw the same sets from the same seeds, names
included, and leave the bit generator at the same position after
every call.  Summing the same terms in the same order is what makes
the two agree on every Python version: from 3.12 ``sum()`` of floats
is compensated, so the set comparisons also run under a copy of that
``sum()`` (the ``summation`` fixture), whatever version runs them.
"""

import math
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.generator import taskgen
from repro.generator.taskgen import FIG7_CONFIG, GeneratorConfig
from repro.model.task import Criticality, MCTask, ModelError
from repro.model.taskset import TaskSet

# ----------------------------------------------------------------------
# Reference
# ----------------------------------------------------------------------


def _draw_period(rng: np.random.Generator, config: GeneratorConfig) -> float:
    lo, hi = config.period_range
    if config.log_uniform_periods:
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return float(rng.uniform(lo, hi))


def random_task(
    rng: np.random.Generator,
    config: GeneratorConfig = GeneratorConfig(),
    *,
    name: str = "task",
    crit: Optional[Criticality] = None,
) -> MCTask:
    """Draw one implicit-deadline task with the Figure-6 distributions.

    ``crit`` forces the criticality level (used by the Figure-7 variant
    that fills HI and LO budgets independently).
    """
    if crit is None:
        crit = Criticality.HI if rng.uniform() < config.p_hi else Criticality.LO
    period = _draw_period(rng, config)
    u_lo = float(rng.uniform(*config.u_lo_range))
    c_lo = u_lo * period
    if crit is Criticality.HI:
        gamma = float(rng.uniform(*config.gamma_range))
        c_hi = min(gamma * c_lo, period)  # C(HI) <= D(HI) = T structurally
        return MCTask.hi(name, c_lo=c_lo, c_hi=c_hi, d_lo=period, d_hi=period, period=period)
    return MCTask.lo(name, c=c_lo, d_lo=period, t_lo=period)


def _scale_task_u_lo(task: MCTask, factor: float) -> MCTask:
    """Shrink a task's LO utilization by ``factor`` (WCETs scale together)."""
    return replace(task, c_lo=task.c_lo * factor, c_hi=task.c_hi * factor)


def _mode_utils(tasks: List[MCTask]) -> Tuple[float, float]:
    u_lo = sum(t.c_lo / t.t_lo for t in tasks)
    u_hi = sum(t.c_hi / t.t_hi for t in tasks)
    return u_lo, u_hi


def _crit_utils(tasks: List[MCTask]) -> Tuple[float, float]:
    """(U^LO of the LO tasks, U^HI of the HI tasks) — Figure-7 notation."""
    u_lo_of_lo = sum(t.c_lo / t.t_lo for t in tasks if t.crit is Criticality.LO)
    u_hi_of_hi = sum(t.c_hi / t.t_hi for t in tasks if t.crit is Criticality.HI)
    return u_lo_of_lo, u_hi_of_hi


def _metric(tasks: List[MCTask], config: GeneratorConfig) -> float:
    if config.metric == "avg_crit":
        u_lo_of_lo, u_hi_of_hi = _crit_utils(tasks)
        return 0.5 * (u_lo_of_lo + u_hi_of_hi)
    u_lo, u_hi = _mode_utils(tasks)
    if config.metric == "avg":
        return 0.5 * (u_lo + u_hi)
    if config.metric == "max":
        return max(u_lo, u_hi)
    if config.metric == "lo":
        return u_lo
    return u_hi


def _max_admissible_scale(
    tasks: List[MCTask],
    candidate: MCTask,
    u_bound: float,
    config: GeneratorConfig,
) -> float:
    """Largest factor ``f`` so that ``tasks + f*candidate`` respects both
    the metric target and the per-mode cap (utilizations are linear in f)."""
    base = _metric(tasks, config)
    load = _metric(tasks + [candidate], config) - base
    factors = [1.0]
    if load > 0.0:
        factors.append((u_bound - base) / load)
    if config.metric in ("avg", "avg_crit") and math.isfinite(config.cap_each_mode):
        u_lo, u_hi = _mode_utils(tasks)
        c_lo, c_hi = _mode_utils([candidate])
        if c_lo > 0.0:
            factors.append((config.cap_each_mode - u_lo) / c_lo)
        if c_hi > 0.0:
            factors.append((config.cap_each_mode - u_hi) / c_hi)
    return min(factors)


def generate_taskset(
    u_bound: float,
    rng: np.random.Generator,
    config: GeneratorConfig = GeneratorConfig(),
    *,
    name: str = "synthetic",
    min_u_floor: float = 1e-4,
) -> TaskSet:
    """Generate one task set with dimensioning metric ``= u_bound``.

    Follows the add-until-met loop of [4] with the configured overshoot
    policy and dimensioning metric (see :class:`GeneratorConfig`).  The
    returned set is implicit-deadline and un-prepared; apply
    :func:`repro.model.transform.apply_uniform_scaling` afterwards.
    """
    if not 0.0 < u_bound <= 1.0 + 1e-9:
        raise ModelError(f"u_bound must be in (0, 1], got {u_bound}")
    tasks: List[MCTask] = []
    index = 0
    while _metric(tasks, config) < u_bound - 1e-12:
        candidate = random_task(rng, config, name=f"{name}_{index}")
        attempts = 0
        while True:
            scale = _max_admissible_scale(tasks, candidate, u_bound, config)
            if scale >= 1.0 - 1e-12:
                tasks.append(candidate)
                index += 1
                break
            if config.overshoot == "drop":
                return TaskSet(tasks, name=name)
            if config.overshoot == "resample" and attempts < 100:
                candidate = random_task(rng, config, name=f"{name}_{index}")
                attempts += 1
                continue
            # "scale" (and resample fallback): shrink the candidate so every
            # constraint is met exactly, then stop (nothing more fits).
            if scale <= min_u_floor:
                return TaskSet(tasks, name=name)
            tasks.append(_scale_task_u_lo(candidate, scale))
            return TaskSet(tasks, name=f"{name}")
    return TaskSet(tasks, name=name)


def generate_taskset_with_targets(
    u_hi_target: float,
    u_lo_target: float,
    rng: np.random.Generator,
    config: GeneratorConfig = FIG7_CONFIG,
    *,
    name: str = "synthetic",
    jitter: float = 0.0,
) -> TaskSet:
    """Generate a set hitting Figure 7's per-criticality utilizations.

    ``U_HI = sum over HI tasks of C(HI)/T`` and ``U_LO = sum over LO
    tasks of C(LO)/T`` are filled independently; ``jitter`` perturbs each
    target uniformly within ``±jitter`` (the paper samples a ±0.025
    neighbourhood of each grid point).
    """
    if jitter < 0.0:
        raise ModelError(f"jitter must be non-negative, got {jitter}")
    tasks: List[MCTask] = []
    targets = {
        Criticality.HI: max(1e-6, u_hi_target + float(rng.uniform(-jitter, jitter))),
        Criticality.LO: max(1e-6, u_lo_target + float(rng.uniform(-jitter, jitter))),
    }
    index = 0
    for crit, target in targets.items():
        def level_util(task_list: List[MCTask]) -> float:
            level = Criticality.HI if crit is Criticality.HI else Criticality.LO
            return sum(t.utilization(level) for t in task_list if t.crit is crit)

        while level_util(tasks) < target - 1e-12:
            candidate = random_task(rng, config, name=f"{name}_{index}", crit=crit)
            overshoot = level_util(tasks + [candidate]) - target
            if overshoot > 1e-12:
                load = level_util(tasks + [candidate]) - level_util(tasks)
                headroom = target - level_util(tasks)
                if load <= 0.0 or headroom <= 1e-6:
                    break
                candidate = _scale_task_u_lo(candidate, headroom / load)
                tasks.append(candidate)
                index += 1
                break
            tasks.append(candidate)
            index += 1
    return TaskSet(tasks, name=name)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _bits(taskset: TaskSet) -> Tuple:
    """Every name and every timing bit of a set."""
    return (taskset.name,) + tuple(
        (
            t.name,
            t.crit,
            *(float(v).hex() for v in (t.c_lo, t.c_hi, t.d_lo, t.d_hi, t.t_lo, t.t_hi)),
        )
        for t in taskset
    )


def _outcome(call, rng: np.random.Generator):
    try:
        result = _bits(call(rng))
    except Exception as error:  # the same failure counts as the same output
        result = (type(error).__name__, str(error))
    return result, rng.bit_generator.state


def _compensated_sum(values):
    """``sum()`` of floats as Python 3.12 computes it (Neumaier), on any
    version: start from the int 0, add the first term exactly, carry the
    rounding error of every later addition and add it once at the end."""
    terms = iter(values)
    total = 0
    for first in terms:
        total = 0 + first
        break
    carry = 0.0
    for term in terms:
        step = total + term
        if abs(total) >= abs(term):
            carry += (total - step) + term
        else:
            carry += (term - step) + total
        total = step
    if carry and math.isfinite(carry):
        total += carry
    return total


@pytest.fixture(params=["builtin", "compensated"])
def summation(request, monkeypatch):
    """Run a comparison under this interpreter's ``sum()`` and under a
    compensated one, in both generators: CI's 3.10 sums floats in
    sequence, 3.12 compensates, and a generator that kept running totals
    would match the reference under the first only."""
    if request.param == "compensated":
        monkeypatch.setattr(taskgen, "sum", _compensated_sum, raising=False)
        monkeypatch.setattr(sys.modules[__name__], "sum", _compensated_sum, raising=False)
    return request.param


def _assert_same_stream(new_call, old_call, seed: int, calls: int) -> None:
    """``calls`` successive draws from one seeded stream agree at each call."""
    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    for index in range(calls):
        new, new_state = _outcome(new_call, new_rng)
        old, old_state = _outcome(old_call, old_rng)
        assert new == old, f"call {index}"
        assert new_state == old_state, f"call {index}"


#: Every metric x overshoot policy, a finite cap on the two averaging
#: metrics, log-uniform periods, the HI probability at 0, 0.5 and 1,
#: degenerate and non-float ranges.
CONFIGS = {
    **{
        f"{metric}-{overshoot}": GeneratorConfig(metric=metric, overshoot=overshoot)
        for metric in ("avg", "avg_crit", "max", "lo", "hi")
        for overshoot in ("scale", "drop", "resample")
    },
    **{
        f"{metric}-cap-{overshoot}": GeneratorConfig(
            metric=metric, overshoot=overshoot, cap_each_mode=0.6
        )
        for metric in ("avg", "avg_crit")
        for overshoot in ("scale", "resample")
    },
    "log-uniform": GeneratorConfig(log_uniform_periods=True),
    "p_hi-0": GeneratorConfig(p_hi=0.0),
    "p_hi-1": GeneratorConfig(p_hi=1.0),
    "fig7": FIG7_CONFIG,
    "degenerate": GeneratorConfig(
        period_range=(10.0, 10.0), u_lo_range=(0.1, 0.1), gamma_range=(2.0, 2.0)
    ),
    "int-bounds": GeneratorConfig(period_range=(2, 2000), gamma_range=(1, 3)),
    "numpy-bounds": GeneratorConfig(
        period_range=(np.float64(2.0), np.float64(2000.0)),
        u_lo_range=(np.float64(0.01), np.float64(0.2)),
    ),
}

U_BOUNDS = (0.05, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 1.0)


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_generate_taskset_matches_reference(label, summation):
    config = CONFIGS[label]
    for k, u in enumerate(U_BOUNDS):
        _assert_same_stream(
            lambda rng: taskgen.generate_taskset(u, rng, config, name=f"{label}_{u}"),
            lambda rng: generate_taskset(u, rng, config, name=f"{label}_{u}"),
            seed=1000 + k,
            calls=6,
        )


@pytest.mark.parametrize("floor", [1e-4, 0.3])
def test_min_u_floor_matches_reference(floor, summation):
    config = GeneratorConfig(overshoot="scale")
    _assert_same_stream(
        lambda rng: taskgen.generate_taskset(0.6, rng, config, min_u_floor=floor),
        lambda rng: generate_taskset(0.6, rng, config, min_u_floor=floor),
        seed=77,
        calls=40,
    )


@pytest.mark.parametrize("jitter", [0.0, 0.025])
def test_targets_match_reference(jitter, summation):
    points = (0.05, 0.3, 0.55, 0.8)
    for i, u_hi in enumerate(points):
        for j, u_lo in enumerate(points):
            _assert_same_stream(
                lambda rng: taskgen.generate_taskset_with_targets(
                    u_hi, u_lo, rng, FIG7_CONFIG, name=f"g{i}_{j}", jitter=jitter
                ),
                lambda rng: generate_taskset_with_targets(
                    u_hi, u_lo, rng, FIG7_CONFIG, name=f"g{i}_{j}", jitter=jitter
                ),
                seed=[i, j],
                calls=3,
            )


@pytest.mark.parametrize("crit", [None, Criticality.HI, Criticality.LO])
@pytest.mark.parametrize("label", ["avg-scale", "log-uniform", "fig7", "int-bounds"])
def test_random_task_matches_reference(label, crit):
    config = CONFIGS[label]
    _assert_same_stream(
        lambda rng: TaskSet([taskgen.random_task(rng, config, name="t", crit=crit)]),
        lambda rng: TaskSet([random_task(rng, config, name="t", crit=crit)]),
        seed=5,
        calls=50,
    )


@pytest.mark.parametrize(
    "config",
    [
        GeneratorConfig(period_range=(2.0, math.inf)),
        GeneratorConfig(gamma_range=(1.0, math.inf)),
        GeneratorConfig(gamma_range=(1.0, math.inf), p_hi=0.0),
    ],
    ids=["infinite-periods", "infinite-gamma", "infinite-gamma-never-drawn"],
)
def test_infinite_ranges_fail_as_the_reference_does(config):
    # NumPy refuses an infinite range before drawing; so does the
    # generator, and a range that is never drawn from still works.
    _assert_same_stream(
        lambda rng: taskgen.generate_taskset(0.5, rng, config),
        lambda rng: generate_taskset(0.5, rng, config),
        seed=3,
        calls=3,
    )
