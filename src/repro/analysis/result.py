"""Common protocol shared by every analysis result type.

The Theorem-2, Corollary-5, schedulability and closed-form computations
each return a small frozen dataclass.  So that the batch pipeline
(:mod:`repro.pipeline`) can treat them uniformly — serialize any of them
to JSON/CSV, summarise them in one table, cache them under one key —
they all implement the same four-member protocol:

* ``.ok`` — did the computation certify a usable (finite / feasible)
  outcome;
* ``.value`` — the single headline number (``s_min``, ``Delta_R``, a
  bound);
* ``.diagnostics`` — a flat mapping of secondary facts (exactness,
  candidates examined, crossing kind, ...);
* ``.to_dict()`` — a JSON-ready dictionary that the matching
  ``from_dict`` classmethod inverts exactly.

``AnalysisResult`` is a :class:`typing.Protocol`, so conformance is
structural: the result dataclasses do not inherit from anything here,
they just implement the members (checked by ``tests/test_api.py``).

The protocol's two safety verdicts against a target are methods on the
result they read, and nowhere else:
:meth:`~repro.analysis.speedup.SpeedupResult.admits` (HI mode feasible at
speedup ``s``, Theorem 2) and
:meth:`~repro.analysis.resetting.ResettingResult.within` (recovery
within a budget, Corollary 5).  Both accept a value up to
:data:`VERDICT_RTOL` past the target.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Protocol, Union, runtime_checkable

#: Relative tolerance of the target verdicts: ``value <= target * (1 +
#: VERDICT_RTOL)`` passes.
VERDICT_RTOL = 1e-9

#: JSON-safe float encoding: finite floats pass through, ``inf``/``nan``
#: travel as strings, ``None`` means "not computed".
EncodedFloat = Union[None, float, str]


@runtime_checkable
class AnalysisResult(Protocol):
    """Structural protocol every analysis outcome satisfies."""

    @property
    def ok(self) -> bool: ...

    @property
    def value(self) -> float: ...

    @property
    def diagnostics(self) -> Dict[str, Any]: ...

    def to_dict(self) -> Dict[str, Any]: ...


def encode_float(value: Optional[float]) -> EncodedFloat:
    """JSON-safe float encoding: ``inf``/``nan`` become strings.

    Plain finite floats pass through untouched so documents stay
    readable; the string forms round-trip through :func:`decode_float`
    (and through ``float()`` itself).  ``None`` (field not computed)
    passes through unchanged.
    """
    if value is None:
        return None
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def decode_float(value: Union[EncodedFloat, int]) -> Optional[float]:
    """Inverse of :func:`encode_float` (``None`` passes through)."""
    if value is None:
        return None
    return float(value)
