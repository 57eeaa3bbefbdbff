"""Threshold calibration on pooled genuine/impostor score distributions.

A pair is accepted when its score strictly exceeds the threshold, so

    FAR(tau) = #(impostor scores > tau) / #impostor
    FRR(tau) = #(genuine scores <= tau) / #genuine

Both rates are step functions that only change at observed score values;
the candidate thresholds are therefore the distinct pooled scores plus
one sentinel below the minimum and one above the maximum.  FAR is
non-increasing and FRR non-decreasing over the candidates, so each
policy's threshold is found by binary search on the two sorted score
columns, without listing the candidates.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from faceaudit.errors import DataError
from faceaudit.inputs import decimal

_SENTINEL_GAP = 1.0


@dataclass(frozen=True)
class OperatingPoint:
    """A calibrated threshold and the pooled rates it induces."""

    tau: float
    far: float
    frr: float
    policy: str


def pooled_rates(genuine: np.ndarray, impostor: np.ndarray, tau):
    """(FAR, FRR) at ``tau``, a threshold or an array of them, over the
    ascending ``genuine`` and ``impostor`` scores."""
    far = (impostor.size - np.searchsorted(impostor, tau, side="right")) / impostor.size
    frr = np.searchsorted(genuine, tau, side="right") / genuine.size
    return far, frr


def parse_policy(text: str) -> tuple[str, float | None]:
    """Parse a policy string: ``eer`` or ``far@<target>``."""
    if text == "eer":
        return ("eer", None)
    if text.startswith("far@"):
        try:
            if text[4:] != text[4:].strip():  # the policy names the bundle's files
                raise ValueError(text)
            target = decimal(text[4:])
        except ValueError:
            raise DataError(f"malformed threshold policy {text!r}") from None
        if not 0.0 <= target <= 1.0:
            raise DataError(f"FAR target must lie in [0, 1], got {target}")
        return ("far", target)
    raise DataError(f"unknown threshold policy {text!r}; expected 'eer' or 'far@<rate>'")


def calibrate(genuine: np.ndarray, impostor: np.ndarray, policy: str) -> OperatingPoint:
    """Pick the operating threshold for a policy.

    ``genuine`` and ``impostor`` are the pooled scores of each kind,
    sorted ascending (as ``metrics.TrialCensus`` holds them).  ``eer``
    selects the candidate minimising |FAR - FRR|, taking the lowest
    threshold on ties.  ``far@t`` selects the smallest threshold whose
    FAR does not exceed the target.
    """
    kind, target = parse_policy(policy)
    if genuine.size == 0 or impostor.size == 0:
        raise DataError("calibration requires both genuine and impostor scores")
    # Sorted, so an infinity sits at an end and NaN at the top end.
    if not np.isfinite([genuine[0], genuine[-1], impostor[0], impostor[-1]]).all():
        raise DataError("scores must be finite")
    low = min(genuine[0], impostor[0]) - _SENTINEL_GAP
    if kind == "eer":
        tau = _eer_threshold(genuine, impostor, low)
    else:
        tau = _far_threshold(impostor, target, low)
    far, frr = pooled_rates(genuine, impostor, tau)
    return OperatingPoint(tau=float(tau), far=float(far), frr=float(frr), policy=policy)


def _far_threshold(impostor: np.ndarray, target: float, low):
    """The first candidate whose FAR is at most ``target``."""
    n = impostor.size
    # The most impostors a threshold may accept: the largest j with j / n <= target.
    j = bisect.bisect_right(range(n + 1), target, key=lambda j: j / n) - 1
    # Accepting at most j takes a threshold of at least impostor[n - j - 1];
    # at the low sentinel FAR is n / n.
    return low if j == n else impostor[n - j - 1]


def _eer_threshold(genuine: np.ndarray, impostor: np.ndarray, low):
    """The first candidate minimising |FAR - FRR|.

    Over the candidates the gap FAR - FRR falls from 1 at the low
    sentinel to -1 at the high one, and strictly: from one candidate to
    the next, FAR or FRR moves by at least one over its number of
    scores, far more than float rounding for fewer than 2**50 scores.
    So the magnitude of the gap is least either at the first candidate
    with a negative gap or at the one before it, which wins a tie.
    """
    columns = (genuine, impostor)
    high = max(genuine[-1], impostor[-1]) + _SENTINEL_GAP

    def gap(tau) -> float:
        far, frr = pooled_rates(genuine, impostor, tau)
        return float(far - frr)

    # By bisection: from its first negative gap on, a column's scores all have one.
    firsts = [bisect.bisect_left(scores, True, key=lambda s: gap(s) < 0) for scores in columns]
    below = min((c[k] for c, k in zip(columns, firsts) if k < c.size), default=high)
    lasts = [np.searchsorted(scores, below) for scores in columns]
    above = max((c[k - 1] for c, k in zip(columns, lasts) if k), default=low)
    return above if gap(above) <= -gap(below) else below
