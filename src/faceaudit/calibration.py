"""Threshold calibration on pooled genuine/impostor score distributions.

A pair is accepted when its score strictly exceeds the threshold, so

    FAR(tau) = #(impostor scores > tau) / #impostor
    FRR(tau) = #(genuine scores <= tau) / #genuine

Both rates are step functions that only change at observed score values;
the candidate grid is therefore the sorted distinct pooled scores plus
one sentinel below the minimum and one above the maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from faceaudit.errors import DataError

_SENTINEL_GAP = 1.0


@dataclass(frozen=True)
class OperatingPoint:
    """A calibrated threshold and the pooled rates it induces."""

    tau: float
    far: float
    frr: float
    policy: str


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    def __post_init__(self):
        if not (len(self.thresholds) == len(self.far) == len(self.frr)):
            raise DataError("threshold and rate arrays must share a length")


def sweep_rates(genuine: np.ndarray, impostor: np.ndarray) -> RocCurve:
    """Evaluate FAR and FRR on the full candidate threshold grid."""
    gen = np.sort(np.asarray(genuine, dtype=np.float64))
    imp = np.sort(np.asarray(impostor, dtype=np.float64))
    if gen.size == 0 or imp.size == 0:
        raise DataError("calibration requires both genuine and impostor scores")
    if not (np.isfinite(gen).all() and np.isfinite(imp).all()):
        raise DataError("scores must be finite")
    pooled = np.unique(np.concatenate([gen, imp]))
    thresholds = np.concatenate(
        [[pooled[0] - _SENTINEL_GAP], pooled, [pooled[-1] + _SENTINEL_GAP]]
    )
    far = (imp.size - np.searchsorted(imp, thresholds, side="right")) / imp.size
    frr = np.searchsorted(gen, thresholds, side="right") / gen.size
    return RocCurve(thresholds=thresholds, far=far, frr=frr)


def parse_policy(text: str) -> tuple[str, float | None]:
    """Parse a policy string: ``eer`` or ``far@<target>``."""
    if text == "eer":
        return ("eer", None)
    if text.startswith("far@"):
        try:
            target = float(text[4:])
        except ValueError:
            raise DataError(f"malformed threshold policy {text!r}") from None
        if not 0.0 <= target <= 1.0:
            raise DataError(f"FAR target must lie in [0, 1], got {target}")
        return ("far", target)
    raise DataError(f"unknown threshold policy {text!r}; expected 'eer' or 'far@<rate>'")


def calibrate(genuine: np.ndarray, impostor: np.ndarray, policy: str) -> OperatingPoint:
    """Pick the operating threshold for a policy.

    ``eer`` selects the candidate minimising |FAR - FRR|, taking the
    lowest threshold on ties.  ``far@t`` selects the smallest threshold
    whose FAR does not exceed the target.
    """
    kind, target = parse_policy(policy)
    curve = sweep_rates(genuine, impostor)
    if kind == "eer":
        idx = int(np.argmin(np.abs(curve.far - curve.frr)))
    else:
        eligible = np.flatnonzero(curve.far <= target)
        # FAR is non-increasing in tau, so the feasible set is a suffix
        # and is never empty: the top sentinel rejects everything.
        idx = int(eligible[0])
    return OperatingPoint(
        tau=float(curve.thresholds[idx]),
        far=float(curve.far[idx]),
        frr=float(curve.frr[idx]),
        policy=policy,
    )
