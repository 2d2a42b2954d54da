"""Baseline schedulers/tests the paper's approach is compared against.

* :mod:`repro.baselines.edf_vd` — classic EDF-VD (Baruah et al.,
  ECRTS 2012): virtual deadlines plus LO-task termination, *no*
  speedup.  This is the ``s_min = 1`` comparison point of Figure 6a and
  the "no processor speedup" region of Figure 7.
* :mod:`repro.baselines.amc` — fixed-priority AMC-rtb with Audsley's
  priority assignment (Baruah/Burns/Davis, RTSS 2011) and the SMC
  sufficient test: the fixed-priority state of the art.
* :mod:`repro.baselines.edf_vd_degraded` — EDF-VD with degraded quality
  guarantees (Liu et al.): LO tasks survive the mode switch at reduced
  service instead of being terminated — the "shed quality instead of
  buying speedup" axis of the multiprocessor comparison.
* :mod:`repro.baselines.fluid` — the dual-rate fluid reference bound
  (MC-Fluid family): the partitioning-loss-free upper frontier for the
  multiprocessor region maps.
"""

from repro.baselines.edf_vd import (
    EdfVdResult,
    edf_vd_schedulable,
    edf_vd_virtual_deadline_factor,
)
from repro.baselines.edf_vd_degraded import (
    EdfVdDegradedResult,
    degraded_lo_utilization,
    edf_vd_degraded_schedulable,
    rung_quality,
)
from repro.baselines.fluid import (
    FluidResult,
    fluid_schedulable,
    fluid_speedup_bound,
)
from repro.baselines.amc import AmcResult, amc_schedulable, smc_schedulable

__all__ = [
    "EdfVdResult",
    "edf_vd_schedulable",
    "edf_vd_virtual_deadline_factor",
    "EdfVdDegradedResult",
    "degraded_lo_utilization",
    "edf_vd_degraded_schedulable",
    "rung_quality",
    "FluidResult",
    "fluid_schedulable",
    "fluid_speedup_bound",
    "AmcResult",
    "amc_schedulable",
    "smc_schedulable",
]
