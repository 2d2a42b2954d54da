"""Dual-criticality sporadic tasks (Section II of the paper).

A task :class:`MCTask` carries one parameter triple per operation mode:

* LO mode: ``(t_lo, d_lo, c_lo)``
* HI mode: ``(t_hi, d_hi, c_hi)``

The paper's structural constraints are enforced at construction time:

* Eq. (1), HI-criticality tasks::

      T(HI) == T(LO),   D(LO) <= D(HI),   C(HI) >= C(LO)

  (``D(LO) < D(HI)`` is *required* for a finite speedup, see Theorem 2;
  equality is allowed by the model and yields ``s_min = +inf``.)

* Eq. (2), LO-criticality tasks::

      T(HI) >= T(LO),   D(HI) >= D(LO),   C(HI) == C(LO)

* Eq. (3), termination of a LO task is the special case
  ``T(HI) = D(HI) = +inf``.

All timing parameters are non-negative reals (floats); ``math.inf`` is a
legal value for ``t_hi``/``d_hi`` of LO tasks only.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Optional


class Criticality(enum.Enum):
    """Criticality level of a task (dual-criticality model)."""

    LO = "LO"
    HI = "HI"

    def __lt__(self, other: "Criticality") -> bool:
        order = {Criticality.LO: 0, Criticality.HI: 1}
        return order[self] < order[other]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ModelError(ValueError):
    """Raised when task parameters violate the paper's model constraints."""


def _timing_value(task: "MCTask", attr: str, label: str, value: Any) -> float:
    """Timing field ``attr`` as a float, or the ModelError its checks raise.

    A value whose type is exactly ``float`` skips the type check and is
    not written back; any other real number (an int, a NumPy float, a
    ``Fraction``) is converted and stored, and a bool never counts as one.
    """
    if type(value) is float:
        number: float = value
    else:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ModelError(
                f"{task.name}: {label} must be a real number, got "
                f"{value!r} ({type(value).__name__}); pass a float "
                "(math.inf is only legal for D(HI)/T(HI) of LO tasks)"
            )
        number = float(value)
        object.__setattr__(task, attr, number)
    if not number >= 0.0:
        if math.isnan(number):
            raise ModelError(
                f"{task.name}: {label} is NaN — timing parameters must "
                "be well-defined numbers; check the upstream computation "
                "or input file for a 0/0 or missing value"
            )
        raise ModelError(f"{task.name}: {label} must be non-negative, got {number}")
    return number


@dataclass(frozen=True)
class MCTask:
    """A dual-criticality constrained-deadline sporadic task.

    Parameters
    ----------
    name:
        Identifier used in traces and reports.
    crit:
        Criticality level, :attr:`Criticality.LO` or :attr:`Criticality.HI`.
    c_lo, c_hi:
        WCET estimates at the LO and HI assurance levels.
    d_lo, d_hi:
        Relative deadlines in LO and HI mode.
    t_lo, t_hi:
        Minimum inter-arrival times in LO and HI mode.
    """

    name: str
    crit: Criticality
    c_lo: float
    c_hi: float
    d_lo: float
    d_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self) -> None:
        # One pass over the checks in a fixed order: the first failing
        # check's message is the one raised, and a message is formatted
        # only when its check fails.
        name = self.name
        if not isinstance(name, str) or not name:
            raise ModelError(f"task name must be a non-empty string, got {name!r}")
        if not isinstance(self.crit, Criticality):
            raise ModelError(
                f"{name}: crit must be a Criticality "
                f"(Criticality.LO or Criticality.HI), got {self.crit!r}"
            )
        c_lo = _timing_value(self, "c_lo", "C(LO)", self.c_lo)
        c_hi = _timing_value(self, "c_hi", "C(HI)", self.c_hi)
        d_lo = _timing_value(self, "d_lo", "D(LO)", self.d_lo)
        d_hi = _timing_value(self, "d_hi", "D(HI)", self.d_hi)
        t_lo = _timing_value(self, "t_lo", "T(LO)", self.t_lo)
        t_hi = _timing_value(self, "t_hi", "T(HI)", self.t_hi)
        if not c_lo > 0:
            raise ModelError(f"{name}: C(LO) must be positive")
        if not c_hi > 0:
            raise ModelError(f"{name}: C(HI) must be positive")
        if not d_lo > 0:
            raise ModelError(f"{name}: D(LO) must be positive")
        if not t_lo > 0:
            raise ModelError(f"{name}: T(LO) must be positive")
        if not math.isfinite(c_lo):
            raise ModelError(f"{name}: C(LO) must be finite")
        if not math.isfinite(c_hi):
            raise ModelError(f"{name}: C(HI) must be finite")
        if not math.isfinite(d_lo):
            raise ModelError(f"{name}: D(LO) must be finite")
        if not math.isfinite(t_lo):
            raise ModelError(f"{name}: T(LO) must be finite")
        # Constrained deadlines (Section II).
        if not d_lo <= t_lo:
            raise ModelError(f"{name}: D(LO) <= T(LO) required")
        if not (d_hi <= t_hi or (math.isinf(d_hi) and math.isinf(t_hi))):
            raise ModelError(f"{name}: D(HI) <= T(HI) required")
        if not c_lo <= d_lo:
            raise ModelError(f"{name}: C(LO) <= D(LO) required")
        if self.crit is Criticality.HI:
            # Eq. (1).
            if not t_hi == t_lo:
                raise ModelError(f"{name}: HI task needs T(HI) == T(LO)")
            if not d_lo <= d_hi:
                raise ModelError(f"{name}: HI task needs D(LO) <= D(HI)")
            if not c_hi >= c_lo:
                raise ModelError(f"{name}: HI task needs C(HI) >= C(LO)")
            if not c_hi <= d_hi:
                raise ModelError(f"{name}: C(HI) <= D(HI) required")
        else:
            # Eq. (2); Eq. (3) is the inf special case.
            if not t_hi >= t_lo:
                raise ModelError(f"{name}: LO task needs T(HI) >= T(LO)")
            if not d_hi >= d_lo:
                raise ModelError(f"{name}: LO task needs D(HI) >= D(LO)")
            if not c_hi == c_lo:
                raise ModelError(f"{name}: LO task needs C(HI) == C(LO)")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def hi(
        name: str,
        c_lo: float,
        c_hi: float,
        d_lo: float,
        d_hi: float,
        period: float,
    ) -> "MCTask":
        """Create a HI-criticality task (``T(HI) = T(LO) = period``)."""
        return MCTask(
            name=name,
            crit=Criticality.HI,
            c_lo=c_lo,
            c_hi=c_hi,
            d_lo=d_lo,
            d_hi=d_hi,
            t_lo=period,
            t_hi=period,
        )

    @staticmethod
    def lo(
        name: str,
        c: float,
        d_lo: float,
        t_lo: float,
        d_hi: Optional[float] = None,
        t_hi: Optional[float] = None,
    ) -> "MCTask":
        """Create a LO-criticality task.

        Without ``d_hi``/``t_hi`` the task keeps its original service in HI
        mode (no degradation).
        """
        return MCTask(
            name=name,
            crit=Criticality.LO,
            c_lo=c,
            c_hi=c,
            d_lo=d_lo,
            d_hi=d_lo if d_hi is None else d_hi,
            t_lo=t_lo,
            t_hi=t_lo if t_hi is None else t_hi,
        )

    @staticmethod
    def implicit_hi(name: str, c_lo: float, c_hi: float, period: float, x: float) -> "MCTask":
        """Implicit-deadline HI task with LO deadline shortened by ``x`` (Eq. 13)."""
        if not 0 < x <= 1:
            raise ModelError("x must be in (0, 1]")
        return MCTask.hi(name, c_lo, c_hi, d_lo=x * period, d_hi=period, period=period)

    @staticmethod
    def implicit_lo(name: str, c: float, period: float, y: float = 1.0) -> "MCTask":
        """Implicit-deadline LO task with HI-mode service degraded by ``y`` (Eq. 14)."""
        if not y >= 1:
            raise ModelError("y must be >= 1")
        return MCTask.lo(name, c, d_lo=period, t_lo=period, d_hi=y * period, t_hi=y * period)

    # ------------------------------------------------------------------
    # Per-mode accessors
    # ------------------------------------------------------------------
    def period(self, level: Criticality) -> float:
        """Minimum inter-arrival time ``T_i(level)``."""
        return self.t_hi if level is Criticality.HI else self.t_lo

    def deadline(self, level: Criticality) -> float:
        """Relative deadline ``D_i(level)``."""
        return self.d_hi if level is Criticality.HI else self.d_lo

    def wcet(self, level: Criticality) -> float:
        """Worst-case execution time ``C_i(level)``."""
        return self.c_hi if level is Criticality.HI else self.c_lo

    def utilization(self, level: Criticality) -> float:
        """``U_i(level) = C_i(level) / T_i(level)`` (0 for terminated tasks in HI)."""
        period = self.period(level)
        if math.isinf(period):
            return 0.0
        return self.wcet(level) / period

    def density(self, level: Criticality) -> float:
        """``C_i(level) / D_i(level)`` (0 for terminated tasks in HI)."""
        deadline = self.deadline(level)
        if math.isinf(deadline):
            return 0.0
        return self.wcet(level) / deadline

    # ------------------------------------------------------------------
    # Predicates and derived quantities
    # ------------------------------------------------------------------
    @property
    def is_hi(self) -> bool:
        """True for HI-criticality tasks."""
        return self.crit is Criticality.HI

    @property
    def is_lo(self) -> bool:
        """True for LO-criticality tasks."""
        return self.crit is Criticality.LO

    @property
    def terminated_in_hi(self) -> bool:
        """True if the task is dropped in HI mode (Eq. 3)."""
        return self.is_lo and math.isinf(self.t_hi) and math.isinf(self.d_hi)

    @property
    def gamma(self) -> float:
        """WCET uncertainty ratio ``C(HI) / C(LO)`` (Section VI, gamma)."""
        return self.c_hi / self.c_lo

    @property
    def implicit_deadline(self) -> bool:
        """True if ``D == T`` holds in both modes (or the task is terminated)."""
        lo_implicit = self.d_lo == self.t_lo
        hi_implicit = self.d_hi == self.t_hi or self.terminated_in_hi
        if self.is_hi:
            # HI tasks under assumption (13) have D(HI) == T but a shortened
            # D(LO); "implicit" refers to the HI-mode deadline.
            return self.d_hi == self.t_hi
        return lo_implicit and hi_implicit

    def with_degraded_service(self, d_hi: float, t_hi: float) -> "MCTask":
        """Return a copy of a LO task with new degraded HI-mode parameters."""
        if not self.is_lo:
            raise ModelError(f"{self.name}: only LO tasks can be degraded")
        return replace(self, d_hi=d_hi, t_hi=t_hi)

    def with_lo_deadline(self, d_lo: float) -> "MCTask":
        """Return a copy of a HI task with a new (shortened) LO-mode deadline."""
        if not self.is_hi:
            raise ModelError(f"{self.name}: only HI tasks have tunable LO deadlines")
        return replace(self, d_lo=d_lo)

    def scaled(self, factor: float) -> "MCTask":
        """Return a copy with every timing parameter multiplied by ``factor``.

        Useful for changing time units (e.g. ms to us) without altering any
        analysis outcome apart from the same scaling of ``Delta_R``.
        """
        if not factor > 0:
            raise ModelError("scale factor must be positive")
        return replace(
            self,
            c_lo=self.c_lo * factor,
            c_hi=self.c_hi * factor,
            d_lo=self.d_lo * factor,
            d_hi=self.d_hi * factor,
            t_lo=self.t_lo * factor,
            t_hi=self.t_hi * factor,
        )

    def __str__(self) -> str:
        if self.terminated_in_hi:
            hi_part = "terminated in HI"
        else:
            hi_part = f"HI:(C={self.c_hi}, D={self.d_hi}, T={self.t_hi})"
        return (
            f"{self.name}[{self.crit.value}] "
            f"LO:(C={self.c_lo}, D={self.d_lo}, T={self.t_lo}) {hi_part}"
        )
