"""build_report on tope masks: it creates no SignVector on its default
path, nor do radon_rank and vc_rank, and its reports equal those
assembled the former way, on SignVectorSets from the object builders
kept as oracles."""

import dataclasses

import numpy as np
import pytest

from monorank import (
    DomainError,
    RankReport,
    SignVector,
    SignVectorSet,
    build_report,
    difference_topes,
    forster_bound,
    om_completion_rank_of_matrix,
    radon_rank,
    random_representation,
    sign_matrix_with_columns,
    sign_matrix_with_rows,
    singular_values,
    threshold_topes,
    vc_rank,
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


def test_report_spectra_equal_the_public_adapters_bit_for_bit():
    # build_report skips the input checks of forster_bound and
    # singular_values; the floats must still be those of the public path,
    # which the benchmark's traced assembly of a report takes
    report_small = [
        random_representation(m, n, d, seed).matrix
        for seed, (m, n, d) in enumerate([(8, 8, 2), (9, 10, 3), (10, 8, 3), (10, 10, 2)])
    ]
    for a in MATRICES + report_small:
        got = build_report(a, with_svd=True)
        thresh, diff = threshold_topes(a), difference_topes(a)
        f_thresh = forster_bound(sign_matrix_with_columns(thresh))
        f_diff = forster_bound(sign_matrix_with_rows(diff)) if len(diff) else 0.0
        assert got.forster_bound_thresh.hex() == f_thresh.hex()
        assert got.forster_bound_diff.hex() == f_diff.hex()
        assert [s.hex() for s in got.singular_values] == [
            float(s).hex() for s in singular_values(a)
        ]


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
        radon_rank(a)
        vc_rank(a)
    assert made == 0


def test_completion_builds_no_sign_vector_set_but_its_witnesses(monkeypatch):
    # the completion search runs on tope masks: the only SignVectorSets it
    # builds are the circuit sets of the feasible attempts' witnesses.  A
    # set is built by __init__ or, from sorted keys, by _from_keys.
    made = []
    init = SignVectorSet.__init__
    from_keys = SignVectorSet._from_keys

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counted_from_keys(cls, *args, **kwargs):
        made.append(from_keys(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(SignVectorSet, "__init__", counted)
    monkeypatch.setattr(SignVectorSet, "_from_keys", classmethod(counted_from_keys))
    witnesses = 0
    for a in MATRICES:
        for build in (
            lambda: build_report(a, complete_d_max=3).om_completion,
            lambda: om_completion_rank_of_matrix(a, 3),
        ):
            made.clear()
            completion = build()
            want = [
                result.witness.circuits
                for bound in (completion.threshold, completion.difference)
                for _, result in bound.attempts
                if result.witness is not None
            ]
            assert [id(s) for s in made] == [id(s) for s in want]
            witnesses += len(want)
    assert witnesses > 0


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


@pytest.mark.parametrize("d_max", [1.5, 3.0, "3"])
def test_build_report_refuses_a_complete_d_max_that_is_not_an_integer(d_max):
    with pytest.raises(DomainError) as info:
        build_report(RAD_STRICT, complete_d_max=d_max)
    assert str(info.value) == f"d_max must be an integer, got {d_max!r}"


def test_build_report_takes_a_numpy_integer_complete_d_max():
    got = build_report(RAD_STRICT, complete_d_max=np.int64(3))
    assert got == build_report(RAD_STRICT, complete_d_max=3)
