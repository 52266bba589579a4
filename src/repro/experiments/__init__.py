"""One module per paper table/figure or ablation/extension study (the
per-experiment index of DESIGN.md).

Each module exposes ``run(...)``, returning a structured result, and
``report(result)``, printing the same rows/series the paper presents.
It also declares, once:

- ``SCALES`` — the keyword arguments of ``run`` at each of
  :data:`SCALE_NAMES`: ``smoke`` (the test suite's size), ``quick`` (the
  CLI's default) and ``paper`` (the record behind EXPERIMENTS.md). No
  other place states an artifact's size;
- ``CLAIMS`` — each a sentence quoting the paper's number, mapped to a
  predicate on ``run``'s result that holds when the reproduction
  agrees.

A module that hosts several artifacts keys both by artifact name.
``python -m repro all --scale NAME --out RECORD.json``
(:func:`repro.experiments.runner.run_all`) runs every artifact at one
scale, times it and checks its claims.
"""

from repro.experiments import reporting

#: The declared scales, smallest first.
SCALE_NAMES = ("smoke", "quick", "paper")

#: The ``SCALES`` of an artifact whose result does not depend on a size.
UNSCALED = {scale: {} for scale in SCALE_NAMES}


def failed_claims(claims, result):
    """The sentences of ``claims`` whose predicate ``result`` fails."""
    return [sentence for sentence, holds in claims.items() if not holds(result)]


__all__ = ["SCALE_NAMES", "UNSCALED", "failed_claims", "reporting"]
