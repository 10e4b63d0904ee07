"""build_report on tope masks: it creates no SignVector on its default
path, and its reports equal those assembled the former way, on
SignVectorSets from the object builders kept as oracles."""

import dataclasses

import numpy as np
import pytest

from monorank import (
    RankReport,
    SignVector,
    build_report,
    forster_bound,
    om_completion_rank_of_matrix,
    random_representation,
)
from monorank.report import ceil_bound

from .fixtures import DISTORTION_A, DISTORTION_B, RAD_STRICT
from .test_omatroid import reference_is_rank2_topes
from .test_spectral import per_bit_sign_matrix_with_columns
from .test_topes import object_difference_topes, object_threshold_topes
from .test_vc import levelwise_vc

# RAD_STRICT is the README matrix; the three fixtures are the acceptance
# suite's matrices
MATRICES = [RAD_STRICT, DISTORTION_A, DISTORTION_B] + [
    random_representation(m, n, d, seed).matrix
    for m, n, d, seed in [(6, 5, 2, 3), (7, 6, 3, 1), (1, 4, 1, 0), (5, 1, 1, 0)]
]


def object_report(a: np.ndarray, complete_d_max: int | None, with_topes: bool) -> RankReport:
    """Reference oracle: build_report's former assembly on SignVectorSets."""
    thresh, diff = object_threshold_topes(a), object_difference_topes(a)
    radon = levelwise_vc(thresh) - 1
    vcr = levelwise_vc(diff)
    f_thresh = forster_bound(per_bit_sign_matrix_with_columns(thresh))
    f_diff = forster_bound(per_bit_sign_matrix_with_columns(diff).T) if len(diff) else 0.0
    completion = None
    candidates = [radon, vcr, ceil_bound(f_diff), ceil_bound(f_thresh) - 1]
    if complete_d_max is not None:
        completion = om_completion_rank_of_matrix(a, complete_d_max)
        candidates.append(completion.value)
    return RankReport(
        shape=a.shape,
        generic=True,
        radon_rank=radon,
        vc_rank=vcr,
        forster_bound_thresh=f_thresh,
        forster_bound_diff=f_diff,
        om_rank2_feasible=reference_is_rank2_topes(diff),
        monotone_rank_lower_bound=max(candidates),
        om_completion=completion,
        threshold_tope_strings=tuple(thresh.strings()) if with_topes else None,
        difference_tope_strings=tuple(diff.strings()) if with_topes else None,
    )


@pytest.mark.parametrize("complete_d_max", [None, 3])
@pytest.mark.parametrize("with_topes", [False, True])
def test_report_matches_object_assembly(complete_d_max, with_topes):
    for a in MATRICES:
        got = build_report(a, complete_d_max=complete_d_max, with_topes=with_topes)
        want = object_report(a, complete_d_max, with_topes)
        assert got == want
        assert got.as_dict() == want.as_dict()


def test_default_report_makes_no_sign_vectors(monkeypatch):
    made = 0
    init = SignVector.__init__

    def counted(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    monkeypatch.setattr(SignVector, "__init__", counted)
    for a in MATRICES:
        build_report(a)
        build_report(a, with_svd=True, with_topes=True)
    assert made == 0
    # the completion search runs on SignVectorSets, and the counter sees them
    build_report(RAD_STRICT, complete_d_max=3)
    assert made > 0


def test_integer_bounds_with_completion():
    report = build_report(RAD_STRICT, complete_d_max=3)
    bounds = report.integer_bounds()
    assert bounds["om_completion_rank"] == report.om_completion.value == 3
    assert max(bounds.values()) == report.monotone_rank_lower_bound
    assert "om_completion_rank" not in build_report(RAD_STRICT).integer_bounds()


def test_rank_report_is_slotted():
    report = build_report(RAD_STRICT)
    assert not hasattr(report, "__dict__")
    assert dataclasses.replace(report, vc_rank=0).vc_rank == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.vc_rank = 0
