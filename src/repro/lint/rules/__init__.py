"""The repro-lint rule pack; importing this package registers every rule.

==== =================================================================
Code Invariant protected
==== =================================================================
RL000 Suppression hygiene (engine-emitted): every ``# repro-lint:
      ignore[...]`` marker carries a justifying reason; reasonless
      markers are inert and flagged.
RL001 Layering: ``repro.obs`` imports nothing from the analysed stack;
      ``repro.experiments`` never touches ``repro.analysis`` internals
      (the :mod:`repro.api` facade is the only door).
RL002 Exactness: no ``==``/``!=``/``is`` on float-valued expressions in
      ``repro.analysis`` — demand-bound comparisons are proofs, so they
      use exact ``Fraction`` arithmetic, exactly-representable sentinel
      rewrites, or the kernels' documented tolerance scheme.
RL003 Determinism: no wall-clock, entropy or unseeded RNG in the
      fingerprint-, cache- and counter-affecting packages; pipeline
      output and MetricsRegistry counters must stay jobs-invariant.
RL004 Fork-safety: callables handed to a ``ProcessPoolExecutor`` are
      traversed transitively and flagged if they are unpicklable or
      communicate through module-level globals.
RL005 API surface: every ``repro.api`` export is annotated and
      documented; deprecation shims actually raise DeprecationWarning.
RL006 Contract drift: a serialized surface (payload fields, fingerprint
      encoding, cache entry, wire schema) changed without bumping its
      version constant against the committed ``lint-contracts.json``.
==== =================================================================

Exactly-once accounting and row-order determinism are checked at run
time rather than here: ``settle()`` refuses a second settlement, the
chaos harness checks ``BatchStats.settled() == total`` under every
fault family, and the jobs-invariance, resume byte-identity and pinned
content-address tests fix the serialized bytes.
"""

from repro.lint.rules import (  # noqa: F401  (import registers the rules)
    api_surface,
    contract_drift,
    determinism,
    exactness,
    forksafety,
    layering,
)

__all__ = [
    "api_surface",
    "contract_drift",
    "determinism",
    "exactness",
    "forksafety",
    "layering",
]
