"""The benchmark workloads: seeded input generation, the untraced call into
the program, a traced call that re-assembles the same result from the layer
functions, and the correctness gate for each kind of item.

Every input comes from `random_representation` or, for sign sets, from a
numpy generator seeded from the workload seed.  An item pool is a list of
rounds; each round holds one item per stratum (kind, shape, rank) in a
seeded order.  Runs make whole passes over the pool, so the ranks at which
the median and the tail percentile fall always land in the same strata;
the stratum lists below are weighted with that in mind.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from monorank import (
    AllowableSequence,
    CircuitCandidateSet,
    CompletionResult,
    GenericityError,
    HyperplaneArrangement,
    MatrixCompletionRank,
    OmRankBound,
    PointArrangement,
    RankReport,
    SignVector,
    SignVectorSet,
    build_report,
    check_generic,
    column_permutations,
    difference_topes,
    forster_bound,
    format_matrix_csv,
    hyperplane_topes,
    is_rank2_topes,
    om_completion_rank_of_matrix,
    om_rank_lower_bound,
    parse_matrix,
    point_circuits,
    point_topes,
    random_representation,
    sign_matrix_with_columns,
    sign_matrix_with_rows,
    singular_values,
    sweep_permutations,
    threshold_topes,
    uniform_completion,
    validate_allowable,
    vc_dimension,
)
from monorank.report import ceil_bound

from spans import Tracer

SIGN_GROUND = 7


@dataclass(frozen=True)
class Item:
    """One request.  `payload` is all the program receives; `rank` is the
    planted rank (the completion rank asked for, for sign sets) and `rep`
    the planted representation, both kept for the correctness gate."""

    id: int
    kind: str
    payload: object
    rank: int
    rep: object = None
    svd: bool = False


@dataclass(frozen=True)
class Workload:
    """`build(item_id, stratum, seed)` makes one item; the pool holds
    `rounds` rounds of every stratum.  The warm-up item is of a small
    stratum of its own: it only has to reach the first-call paths."""

    name: str
    why: str
    strata: list[tuple]
    rounds: int
    build: Callable[[int, tuple, int], Item]
    warmup: tuple

    def make_items(self, seed: int) -> list[Item]:
        rng = np.random.default_rng(seed)
        items: list[Item] = []
        for _ in range(self.rounds):
            for k in rng.permutation(len(self.strata)):
                sub_seed = int(rng.integers(0, 2**31 - 1))
                items.append(self.build(len(items), self.strata[k], sub_seed))
        return items

    def warmup_item(self, seed: int) -> Item:
        return self.build(-1, self.warmup, seed)


# ---------------------------------------------------------------------------
# report workloads


def _report_item(svd: bool):
    def build(item_id, stratum, sub_seed):
        m, n, d = stratum
        rep = random_representation(m, n, d, sub_seed)
        return Item(item_id, "report", format_matrix_csv(rep.matrix), d, rep, svd)

    return build


REPORT_SMALL_STRATA = [(m, n, d) for m in (8, 9, 10) for n in (8, 9, 10) for d in (2, 3)]
# 22x22 twice a round puts the tail percentile inside its stratum; the
# row count sets the cost, so 24 columns ride on 18 rows to keep items
# under a second and a pass at about 35 of them.
REPORT_VC_STRATA = [(18, 24, 3), (20, 20, 3), (18, 18, 4), (22, 22, 3), (22, 22, 3)]


def run_report(item: Item) -> RankReport:
    return build_report(parse_matrix(item.payload), with_svd=item.svd, threads=1)


def traced_report(item: Item, tr: Tracer) -> RankReport:
    """build_report's steps, in its order, one span per layer call."""
    a = tr.call("matrices", parse_matrix, item.payload)
    ties = tr.call("matrices", check_generic, a)
    if not ties.is_generic:
        raise GenericityError(ties.describe(), ties=ties.ties)
    thresh = tr.call("topes", threshold_topes, a)
    diff = tr.call("topes", difference_topes, a)
    radon = tr.call("vc", vc_dimension, thresh) - 1
    vcr = tr.call("vc", vc_dimension, diff)
    f_thresh = tr.call(
        "spectral.forster", lambda: forster_bound(sign_matrix_with_columns(thresh))
    )
    f_diff = (
        tr.call("spectral.forster", lambda: forster_bound(sign_matrix_with_rows(diff)))
        if len(diff)
        else 0.0
    )
    rank2 = tr.call("omatroid.rank2", is_rank2_topes, diff) if len(diff) else True
    svals = tr.call("spectral.svd", singular_values, a) if item.svd else None
    m, n = a.shape
    c = tr.counts
    c["topes.vectors"] += len(thresh) + len(diff)
    c["vc.patterns"] += len(thresh) + len(diff)
    c["spectral.entries"] += m * len(thresh) + len(diff) * n + (m * n if item.svd else 0)
    return RankReport(
        shape=(m, n),
        generic=True,
        radon_rank=radon,
        vc_rank=vcr,
        forster_bound_thresh=f_thresh,
        forster_bound_diff=f_diff,
        om_rank2_feasible=rank2,
        monotone_rank_lower_bound=max(radon, vcr, ceil_bound(f_diff), ceil_bound(f_thresh) - 1),
        singular_values=tuple(float(s) for s in svals) if svals is not None else None,
    )


def check_report(item: Item, out: RankReport) -> str | None:
    for name, bound in out.integer_bounds().items():
        if bound > item.rank:
            return f"{name} {bound} exceeds planted rank {item.rank}"
    return None


# ---------------------------------------------------------------------------
# completion workload


# 8x8 is left out: at 1.5-3 s an item it would hold most of a pass.
OM_STRATA = [("om", 7, 7, 2), ("om", 7, 7, 2), ("om", 7, 7, 3), ("om", 7, 8, 2), ("om", 8, 7, 2)]
# (rank, pairs).  Rank 2 with five pairs misses a support; rank 2 with three
# pairs ends in a C4 violation after backtracking or completes; ranks 3 and
# 4 with few pairs complete.  Rank 3 with six or more pairs is left out:
# its C4 searches range over three orders of magnitude in time.  The counts
# put the pool median among the rank-4 items and the tail percentile among
# the 7x7 matrices, the two groups whose times vary least.
SIGN_STRATA = (
    [("signs", 2, 5)] * 7
    + [("signs", 2, 3)] * 2
    + [("signs", 4, k) for k in (3, 4, 5, 6, 8, 10)]
    + [("signs", 3, 3), ("signs", 3, 4)]
)


def random_sign_set(rng: np.random.Generator, pairs: int) -> SignVectorSet:
    """`pairs` distinct ± pairs of zero-free vectors on SIGN_GROUND elements."""
    full = (1 << SIGN_GROUND) - 1
    reps = rng.choice(1 << (SIGN_GROUND - 1), size=pairs, replace=False)
    vecs = []
    for pos in (int(p) for p in reps):
        vecs += [SignVector(SIGN_GROUND, pos, full & ~pos), SignVector(SIGN_GROUND, full & ~pos, pos)]
    return SignVectorSet(SIGN_GROUND, vecs, negation_closed=True)


def _completion_item(item_id, stratum, sub_seed):
    if stratum[0] == "om":
        _, m, n, d = stratum
        rep = random_representation(m, n, d, sub_seed)
        return Item(item_id, "om", rep.matrix, d, rep)
    _, rank, pairs = stratum
    return Item(item_id, "signs", random_sign_set(np.random.default_rng(sub_seed), pairs), rank)


def run_om(item: Item) -> MatrixCompletionRank:
    return om_completion_rank_of_matrix(item.payload, item.rank + 1)


def _count_attempts(tr: Tracer, ground: int, attempts) -> None:
    c = tr.counts
    for rank, res in attempts:
        c["omatroid.ranks_tried"] += 1
        c["omatroid.supports"] += math.comb(ground, rank + 1)
        c["omatroid.outcome." + outcome(res)] += 1


def traced_om(item: Item, tr: Tracer) -> MatrixCompletionRank:
    """om_completion_rank_of_matrix's steps, one span per layer call."""
    d_max = item.rank + 1
    thresh = tr.call("topes", threshold_topes, item.payload)
    diff = tr.call("topes", difference_topes, item.payload)
    tb = tr.call("omatroid.completion", om_rank_lower_bound, thresh, d_max + 1)
    db = tr.call("omatroid.completion", om_rank_lower_bound, diff, d_max)
    tr.counts["topes.vectors"] += len(thresh) + len(diff)
    _count_attempts(tr, thresh.ground_size, tb.attempts)
    _count_attempts(tr, diff.ground_size, db.attempts)
    return MatrixCompletionRank(
        value=max(db.value, tb.value - 1),
        exceeds=tb.exceeds or db.exceeds,
        threshold=tb,
        difference=db,
    )


def check_om(item: Item, out: MatrixCompletionRank) -> str | None:
    if out.exceeds:
        return f"completion search exceeded d_max={item.rank + 1}"
    if out.value > item.rank:
        return f"completion rank {out.value} exceeds planted rank {item.rank}"
    for bound in (out.threshold, out.difference):
        for rank, res in bound.attempts:
            if res.feasible and res.witness is None:
                return f"feasible rank-{rank} attempt without a witness"
    return None


def run_signs(item: Item) -> CompletionResult:
    return uniform_completion(item.payload, item.rank)


def traced_signs(item: Item, tr: Tracer) -> CompletionResult:
    res = tr.call("omatroid.completion", uniform_completion, item.payload, item.rank)
    _count_attempts(tr, item.payload.ground_size, [(item.rank, res)])
    return res


def outcome(res: CompletionResult) -> str:
    if res.feasible:
        return "feasible"
    return "missing_support" if res.missing_support is not None else "c4"


def check_signs(item: Item, out: CompletionResult) -> str | None:
    members = list(item.payload)
    if out.feasible:
        w = out.witness
        if w is None or w.uniform_rank != item.rank:
            return "feasible result without a rank-matched witness"
        if len({c.support_mask for c in w}) != math.comb(w.ground_size, item.rank + 1):
            return "witness does not cover every support"
        if not all(c.orthogonal(y) for c in w for y in members):
            return "witness circuit not orthogonal to the sign set"
        return None
    if out.timed_out:
        return "completion search timed out"
    if out.missing_support is not None:
        support = sorted(i - 1 for i in out.missing_support)
        pos = 1 << support[0]
        for signs in itertools.product((0, 1), repeat=len(support) - 1):
            p, q = pos, 0
            for i, s in zip(support[1:], signs):
                if s:
                    q |= 1 << i
                else:
                    p |= 1 << i
            v = SignVector(SIGN_GROUND, p, q)
            if all(v.orthogonal(y) for y in members):
                return f"support {sorted(out.missing_support)} does admit circuit {v}"
        return None
    if out.violation is None or out.violation.axiom != "C4":
        return "infeasible result without a C4 witness"
    return None


# ---------------------------------------------------------------------------
# oracle workload


class PointOracle(NamedTuple):
    topes: SignVectorSet
    circuits: CircuitCandidateSet
    sweep: AllowableSequence | None


# (side, elements, dimension); 2^(elements-1) separation LPs per item.
# Planar points come twice a round: five strata put the median inside one
# stratum rather than between two.
ORACLE_STRATA = [
    ("points", 9, 2), ("points", 9, 2), ("normals", 9, 2), ("points", 9, 3), ("normals", 9, 3),
]


def _oracle_item(item_id, stratum, sub_seed):
    side, k, d = stratum
    rep = random_representation(k, k, d, sub_seed)
    payload = rep.points if side == "points" else rep.normals
    return Item(item_id, side, payload, d, rep)


def run_points(item: Item) -> PointOracle:
    pts: PointArrangement = item.payload
    topes = point_topes(pts)
    circuits = point_circuits(pts)
    sweep = sweep_permutations(pts) if pts.dimension == 2 else None
    return PointOracle(topes, circuits, sweep)


def traced_points(item: Item, tr: Tracer) -> PointOracle:
    pts: PointArrangement = item.payload
    topes = tr.call("arrangements.point_topes", point_topes, pts)
    circuits = tr.call("arrangements.circuits", point_circuits, pts)
    sweep = tr.call("arrangements.sweep", sweep_permutations, pts) if pts.dimension == 2 else None
    tr.counts["arrangements.lps"] += 1 << (len(pts) - 1)
    tr.counts["arrangements.topes_kept"] += len(topes) // 2
    return PointOracle(topes, circuits, sweep)


def check_points(item: Item, out: PointOracle) -> str | None:
    if not all(v in out.topes for v in threshold_topes(item.rep.matrix)):
        return "threshold tope missing from the point topes"
    if not all(c.orthogonal(t) for c in out.circuits for t in out.topes):
        return "point circuit not orthogonal to a point tope"
    if out.sweep is not None:
        if not validate_allowable(out.sweep.permutations).valid:
            return "sweep is not an allowable sequence"
        if not set(column_permutations(item.rep.matrix)) <= set(out.sweep.permutations):
            return "column order missing from the sweep"
    return None


def run_normals(item: Item) -> SignVectorSet:
    return hyperplane_topes(item.payload)


def traced_normals(item: Item, tr: Tracer) -> SignVectorSet:
    nrm: HyperplaneArrangement = item.payload
    topes = tr.call("arrangements.hyperplane_topes", hyperplane_topes, nrm)
    tr.counts["arrangements.lps"] += 1 << (len(nrm) - 1)
    tr.counts["arrangements.topes_kept"] += len(topes) // 2
    return topes


def check_normals(item: Item, out: SignVectorSet) -> str | None:
    if not all(v in out for v in difference_topes(item.rep.matrix)):
        return "difference tope missing from the hyperplane topes"
    return None


# ---------------------------------------------------------------------------
# canonical output, planted-rank gap, dispatch


def _bound_json(bound: OmRankBound) -> dict:
    return {
        "value": bound.value,
        "exceeds": bound.exceeds,
        "attempts": [[rank, _completion_json(res)] for rank, res in bound.attempts],
    }


def _completion_json(res: CompletionResult) -> dict:
    return {
        "feasible": res.feasible,
        "witness": res.witness.circuits.strings() if res.witness is not None else None,
        "violation": res.violation.as_dict() if res.violation is not None else None,
        "missing": sorted(res.missing_support) if res.missing_support is not None else None,
        "timed_out": res.timed_out,
    }


def canonical(item: Item, out) -> object:
    """JSON-ready form of an output, for digests and run-to-run comparison."""
    if item.kind == "report":
        return out.as_dict()
    if item.kind == "om":
        return {
            "value": out.value,
            "exceeds": out.exceeds,
            "threshold": _bound_json(out.threshold),
            "difference": _bound_json(out.difference),
        }
    if item.kind == "signs":
        return _completion_json(out)
    if item.kind == "points":
        return {
            "topes": out.topes.strings(),
            "circuits": out.circuits.circuits.strings(),
            "sweep": [list(p) for p in out.sweep] if out.sweep is not None else None,
        }
    return {"topes": out.strings()}


def bound_gap(item: Item, out) -> int | None:
    """Planted rank minus the computed lower bound; None where no bound."""
    if item.kind == "report":
        return item.rank - out.monotone_rank_lower_bound
    if item.kind == "om":
        return item.rank - out.value
    return None


class Kind(NamedTuple):
    run: Callable
    traced: Callable
    check: Callable


KINDS = {
    "report": Kind(run_report, traced_report, check_report),
    "om": Kind(run_om, traced_om, check_om),
    "signs": Kind(run_signs, traced_signs, check_signs),
    "points": Kind(run_points, traced_points, check_points),
    "normals": Kind(run_normals, traced_normals, check_normals),
}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report_small",
            "many small matrices through parse and full report: per-call overhead, tope and spectral kernels",
            REPORT_SMALL_STRATA, 20, _report_item(svd=True), (6, 6, 2),
        ),
        Workload(
            "report_vc",
            "18x18 to 22x22 and 18x24 reports without SVD: the exact VC search dominates",
            REPORT_VC_STRATA, 7, _report_item(svd=False), (8, 8, 3),
        ),
        Workload(
            "completion",
            "matrix completion rank and sign-set completion at ranks 2-4: the oriented-matroid search",
            OM_STRATA + SIGN_STRATA, 3, _completion_item, ("om", 5, 5, 2),
        ),
        Workload(
            "oracle",
            "point and hyperplane tope enumeration, circuits and sweeps: the LP-based geometric oracles",
            ORACLE_STRATA, 6, _oracle_item, ("points", 5, 2),
        ),
    )
}
