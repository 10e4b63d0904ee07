"""Rank-report assembly: every lower bound the library computes for one
matrix, aggregated into a single JSON-friendly record.

The headline number is monotone_rank_lower_bound, the max of the integer
bounds: Radon rank, VC rank, the two Forster-derived bounds (threshold side
minus one), and the completion rank when that search is enabled.  Forster
bounds are floats; their integer contribution is ceil with a tiny guard
against float noise just below an integer.

build_report works on the positive masks of the two tope sets from end
to end (topes, VC search, ±1 matrices, rank-two recognition, completion
search, tope strings).  Without the completion search it creates no
SignVector, and with it the only SignVectorSets it builds are the circuit
sets of the completion witnesses.  It checks its input once, through
_require_generic; the ±1 matrices it builds itself go to the SVD
unchecked, as does the checked matrix when singular values are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrices import _require_generic
from .omatroid import (
    DEFAULT_GROUND_GUARD,
    CompletionResult,
    MatrixCompletionRank,
    OmRankBound,
    _completion_rank_of_masks,
    _is_rank2_masks,
)
from .signs import SignVectorSet, _sign_matrix, _zero_free_set
from .spectral import (
    _forster,
    _singular_values,
    forster_bound,
    sign_matrix_with_columns,
)
from .topes import _difference_masks, _threshold_masks
from .vc import _vc_of_masks

_CEIL_GUARD = 1e-6


def ceil_bound(x: float) -> int:
    """Integer implied by a real lower bound, guarded against float noise."""
    return math.ceil(x - _CEIL_GUARD)


@dataclass(frozen=True, slots=True)
class RankReport:
    shape: tuple[int, int]
    generic: bool
    radon_rank: int
    vc_rank: int
    forster_bound_thresh: float
    forster_bound_diff: float
    om_rank2_feasible: bool
    monotone_rank_lower_bound: int
    om_completion: MatrixCompletionRank | None = None
    singular_values: tuple[float, ...] | None = None
    threshold_tope_strings: tuple[str, ...] | None = None
    difference_tope_strings: tuple[str, ...] | None = None
    perturbed_ties: bool = False

    def integer_bounds(self) -> dict[str, int]:
        return _integer_bounds(
            self.radon_rank,
            self.vc_rank,
            self.forster_bound_thresh,
            self.forster_bound_diff,
            self.om_completion,
        )

    def as_dict(self) -> dict:
        out: dict = {
            "shape": list(self.shape),
            "generic": self.generic,
            "perturbed_ties": self.perturbed_ties,
            "radon_rank": self.radon_rank,
            "vc_rank": self.vc_rank,
            "forster_bound_thresh": self.forster_bound_thresh,
            "forster_bound_diff": self.forster_bound_diff,
            "om_rank2_feasible": self.om_rank2_feasible,
            "monotone_rank_lower_bound": self.monotone_rank_lower_bound,
        }
        if self.om_completion is not None:
            om = self.om_completion
            out["om_completion_rank"] = om.value
            out["om_completion_exceeds_d_max"] = om.exceeds
            out["om_completion_threshold"] = _bound_dict(om.threshold)
            out["om_completion_difference"] = _bound_dict(om.difference)
        if self.singular_values is not None:
            out["singular_values"] = list(self.singular_values)
        if self.threshold_tope_strings is not None:
            out["threshold_topes"] = list(self.threshold_tope_strings)
            out["difference_topes"] = list(self.difference_tope_strings or ())
        return out


def _integer_bounds(radon, vcr, f_thresh, f_diff, completion) -> dict[str, int]:
    """The integer bounds whose max is monotone_rank_lower_bound, by name:
    the Forster bounds rounded up, and the completion rank when the
    MatrixCompletionRank `completion` is not None."""
    bounds = {
        "radon_rank": radon,
        "vc_rank": vcr,
        "forster_diff": ceil_bound(f_diff),
        "forster_thresh_minus_one": ceil_bound(f_thresh) - 1,
    }
    if completion is not None:
        bounds["om_completion_rank"] = completion.value
    return bounds


def _bound_dict(bound: OmRankBound) -> dict:
    attempts = [_attempt_dict(rank, result) for rank, result in bound.attempts]
    return {"rank_bound": bound.value, "exceeds_d_max": bound.exceeds, "attempts": attempts}


def _attempt_dict(rank: int, result: CompletionResult) -> dict:
    """The JSON of one completion attempt: rank, feasible, then the C4
    violation or the missing support of an infeasible one."""
    entry: dict = {"rank": rank, "feasible": result.feasible}
    if result.violation is not None:
        entry["violation"] = result.violation.as_dict()
    if result.missing_support is not None:
        entry["missing_support"] = sorted(result.missing_support)
    return entry


def build_report(
    matrix: np.ndarray,
    *,
    complete_d_max: int | None = None,
    with_svd: bool = False,
    with_topes: bool = False,
    threads: int = 1,
    max_ground: int = DEFAULT_GROUND_GUARD,
    tie_tolerance: float = 0.0,
) -> RankReport:
    """Compute every enabled bound for a generic matrix.

    Raises GenericityError when the matrix has tied column entries; callers
    wanting to proceed anyway perturb first (see matrices.perturb_ties).
    `threads` is ignored: every search runs on the calling thread.  It
    stays for callers that still pass it.
    """
    a = _require_generic(matrix, tie_tolerance)
    m, n = a.shape
    thresh = _threshold_masks(a)
    diff = _difference_masks(a)
    radon = _vc_of_masks(m, thresh) - 1
    vcr = _vc_of_masks(n, diff)
    f_thresh = _forster(_sign_matrix(thresh, m).T)
    f_diff = _forster(_sign_matrix(diff, n)) if diff else 0.0
    rank2 = _is_rank2_masks(n, diff)
    completion = None
    if complete_d_max is not None:
        completion = _completion_rank_of_masks(
            a.shape, thresh, diff, complete_d_max, max_ground=max_ground
        )
    bounds = _integer_bounds(radon, vcr, f_thresh, f_diff, completion)
    return RankReport(
        shape=(m, n),
        generic=True,
        radon_rank=radon,
        vc_rank=vcr,
        forster_bound_thresh=f_thresh,
        forster_bound_diff=f_diff,
        om_rank2_feasible=rank2,
        monotone_rank_lower_bound=max(bounds.values()),
        om_completion=completion,
        singular_values=tuple(_singular_values(a).tolist()) if with_svd else None,
        threshold_tope_strings=tuple(_zero_free_set(m, thresh).strings()) if with_topes else None,
        difference_tope_strings=tuple(_zero_free_set(n, diff).strings()) if with_topes else None,
    )


def encode_report(vectors: SignVectorSet) -> dict:
    """Report accompanying an encoded matrix: the Forster bound of the input
    sign set is a sign-rank lower bound for a submatrix of the encoded
    matrix's threshold topes, hence (minus one) a monotone-rank lower bound
    for the encoded matrix itself."""
    f = forster_bound(sign_matrix_with_columns(vectors))
    return {
        "ground_size": vectors.ground_size,
        "vector_count": len(vectors),
        "forster_bound_signs": f,
        "monotone_rank_lower_bound": max(ceil_bound(f) - 1, 0),
    }
