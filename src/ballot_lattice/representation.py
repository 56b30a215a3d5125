"""Utility representations and rationalizability machinery for ballots.

Everything here is exact: utilities are :class:`fractions.Fraction`,
spatial witnesses carry rational coordinates, and only
:func:`verify_concavity` (a sampling sanity check) drops to floating
point.  It is also the only user of numpy, which it imports on first
call, so the exact machinery loads without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Iterable, Iterator, Mapping

from .order import OrderRelation, RankedBallot, _ids, _pair, _positions, _slots, join, meet, relation_of

__all__ = [
    "ALL_SUBSETS_CAP",
    "UtilityAssignment",
    "PairRecord",
    "SpatialWitness",
    "DisjunctionVerdict",
    "ConcavityReport",
    "canonical_utility",
    "is_representation",
    "is_submodular",
    "rationalizability_class",
    "pair_record",
    "extreme_points",
    "theorem3_check",
    "subrecord_verdicts",
    "concave_witness",
    "verify_concavity",
]


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class UtilityAssignment:
    """Candidate utilities as exact rationals."""

    values: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(
            self, "values", {str(c): _frac(v) for c, v in dict(self.values).items()}
        )

    def __getitem__(self, candidate: str) -> Fraction:
        return self.values[candidate]

    def __contains__(self, candidate: str) -> bool:
        return candidate in self.values

    def to_dict(self) -> dict[str, str]:
        return {c: str(v) for c, v in sorted(self.values.items())}


def canonical_utility(ballot: RankedBallot) -> UtilityAssignment:
    """Integer utility ``k - position`` (``order._positions``), ``k`` the ranked count.

    That is k..1 down the ranking and 0 on the tail: strictly decreasing in
    position, so it mirrors the ballot exactly while staying integer-valued.
    """
    k = len(ballot.ranked)
    return UtilityAssignment({c: k - p for c, p in _positions(ballot).items()})


def is_representation(u: UtilityAssignment, r: OrderRelation) -> bool:
    """Weak preference never drops utility; strict preference strictly raises it."""
    for x in r.candidates:
        for y in r.candidates:
            if r.holds(x, y) and u[x] < u[y]:
                return False
            if r.strictly(x, y) and u[x] <= u[y]:
                return False
    return True


def is_submodular(u: UtilityAssignment, r: OrderRelation) -> bool:
    """``u(meet) + u(join) <= u(x) + u(y)`` wherever the meet exists.

    Pairs without a greatest lower bound are skipped (vacuously fine); a
    pair with a meet but no join cannot satisfy the inequality and fails.
    """
    for x, y in combinations(r.candidates, 2):
        low = meet(r, x, y)
        if low is None:
            continue
        high = join(r, x, y)
        if high is None:
            return False
        if u[low] + u[high] > u[x] + u[y]:
            return False
    return True


@dataclass(frozen=True)
class PairRecord:
    """Set of ordered weak-preference pairs ``(x, y)`` with ``x != y``.

    Tied candidates contribute both directions; strictly ordered ones a
    single direction.
    """

    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        pairs = frozenset(map(_pair, self.pairs))
        for x, y in pairs:
            if x == y:
                raise ValueError(f"reflexive pair ({x!r}, {y!r}) not allowed in a record")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def pair_record(ballot: RankedBallot) -> PairRecord:
    """Every weak-preference pair on the ballot."""
    return PairRecord(frozenset((x, y) for x, y in relation_of(ballot).pairs if x != y))


def extreme_points(ballot: RankedBallot, subset: Iterable[str]) -> frozenset[str]:
    """Extreme points of a candidate subset under the ballot's ranking.

    The rule is combinatorial: the best-ranked member, plus every
    unranked member (or the worst-ranked member when none is unranked).
    A subset containing only unranked candidates has no extreme points.
    """
    members = frozenset(_ids(subset, "subset"))
    unknown = members - ballot.candidates
    if unknown:
        raise ValueError(f"unknown candidates {sorted(unknown)}")
    ranked_members = [c for c in ballot.ranked if c in members]
    if not ranked_members:
        return frozenset()
    unranked_members = members & ballot.unranked
    if unranked_members:
        return frozenset({ranked_members[0]}) | unranked_members
    return frozenset({ranked_members[0], ranked_members[-1]})


@dataclass(frozen=True)
class DisjunctionVerdict:
    """Outcome of the record disjunction check (claim T3).

    ``outcome`` is ``"disjunct1"`` (an extreme point outside Y),
    ``"disjunct2"`` (a balanced sub-record inside the extreme points,
    detached from the rest) or ``"fails"``.  ``all_unranked`` flags
    records whose candidates are entirely unranked, the one shape where
    failure is expected.
    """

    outcome: str
    witness: Any
    all_unranked: bool

    @property
    def ok(self) -> bool:
        return self.outcome != "fails"

    def to_dict(self) -> dict:
        witness = self.witness
        if isinstance(witness, tuple):
            witness = [list(p) for p in witness]
        return {
            "disjunct": self.outcome,
            "witness": witness,
            "all_unranked": self.all_unranked,
        }


def theorem3_check(ballot: RankedBallot, sub_record: PairRecord) -> DisjunctionVerdict:
    """Decide which disjunct a nonempty sub-record of the ballot satisfies.

    Disjunct 1 looks for an extreme point outside ``Y``.  Disjunct 2
    looks for a nonempty sub-sub-record whose sources and targets
    coincide, sit inside the extreme points, and share no source with the
    rest; the witness is the first such set in increasing-size,
    lexicographic order over the sorted pairs, so it is deterministic.

    Only pairs between unranked candidates can sit in a balanced
    sub-record: among pairs with a ranked source, the best-ranked source
    is never anyone's target.  A balanced set with sources ``V`` must
    hold every pair of the record that leaves ``V`` (or the rest would
    share a source with it), so ``V`` is closed under following pairs
    and contains a sink strongly connected component ``S``.  ``S`` is
    the set reached from any of its members, is balanced itself (no pair
    is reflexive, so each member is a target inside ``S``), and holds a
    subset of ``V``'s pairs.  So the search follows the pairs from each
    unranked source and returns the reached set whose pairs are smallest
    by size and then by sorted pairs.  No balance filter is needed: once
    disjunct 1 fails, every unranked extreme point has an outgoing pair,
    so every reached set contains a sink component ``S`` of at least two
    members and, unless it is ``S``, strictly more pairs; the smallest
    reached set is always such a component.  The verdict is ``"fails"``
    only when there is no unranked extreme point, i.e. when the
    sub-record's candidates are all unranked.  The subset walk and the
    source-set search are test oracles.

    Raises:
        ValueError: empty sub-record, or pairs that are not on the ballot.
    """
    full = pair_record(ballot)
    if not sub_record.pairs <= full.pairs:
        stray = sorted(sub_record.pairs - full.pairs)
        raise ValueError(f"sub-record contains pairs not on the ballot: {stray}")
    return _disjunction(ballot, sub_record.pairs)


def _disjunction(
    ballot: RankedBallot, pairs: frozenset[tuple[str, str]]
) -> DisjunctionVerdict:
    """:func:`theorem3_check` on pairs already known to be on the ballot.

    Raises:
        ValueError: empty ``pairs``.
    """
    if not pairs:
        raise ValueError("sub-record must be nonempty")
    unranked = ballot.unranked
    extremes = extreme_points(ballot, {c for pair in pairs for c in pair})
    # No extreme point exactly when no member of the sub-record is ranked.
    all_unranked = not extremes
    outgoing: dict[str, list[str]] = {}
    for x, y in sorted(pairs):
        outgoing.setdefault(x, []).append(y)

    for e in sorted(extremes):
        if e not in outgoing:
            return DisjunctionVerdict("disjunct1", e, all_unranked)

    # A nonempty pool means the sub-record has a ranked member, so every
    # unranked candidate in it is an extreme point, and with disjunct 1
    # failed it has an outgoing pair.  A ballot's pairs respect its
    # positions (:func:`_first_out_of_position`), so unranked candidates
    # only point at unranked ones and the pairs followed never leave them.
    pool = [x for x in outgoing if x in unranked and x in extremes]
    best = None
    for v in pool:
        reached = {v}
        stack = [v]
        while stack:
            for y in outgoing[stack.pop()]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        chosen = tuple((x, y) for x in sorted(reached) for y in outgoing[x])
        if best is None or (len(chosen), chosen) < (len(best), best):
            best = chosen
    if best is None:
        return DisjunctionVerdict("fails", None, all_unranked)
    return DisjunctionVerdict("disjunct2", best, all_unranked)


def _first_out_of_position(
    ballot: RankedBallot, pairs: Iterable[tuple[str, str]]
) -> list[str] | None:
    """The first pair ``[x, y]`` in sorted order whose target sits above its source, or None.

    Positions are ``order._positions``.  A pair respects them when
    ``pos[x] <= pos[y]``: no pair leads from an unranked candidate to a
    ranked one, nor from a ranked candidate to one ranked above it.  Every
    ballot's record respects them, since ``relation_of`` is built from them.

    Lemma: when every pair of a record respects positions, a nonempty
    sub-record fails the disjunction (:func:`theorem3_check`) exactly when
    all its members are unranked.  Such a sub-record has no extreme point
    and so no pool: it fails on any record.  Otherwise it has a ranked
    member.  If it has no unranked member, its worst-ranked member is an
    extreme point, and a pair leaving it would lead to a member ranked
    below it, so it has none: disjunct 1 holds.  Else every unranked
    member is an extreme point; either one has no outgoing pair
    (disjunct 1), or each has one, and the pool is nonempty (disjunct 2).
    So ``T3.sub`` holds wherever this returns None.  The census decides
    ``T3.sub`` by it in O(pairs), not by :func:`subrecord_verdicts`'
    2^pairs walk, and reports a returned pair, where the argument breaks,
    as the failing witness; tests hold the two to agree on every shape up
    to five candidates.
    """
    pos = _positions(ballot)
    return next(([x, y] for x, y in sorted(pairs) if pos[y] < pos[x]), None)


#: Sweeping every nonempty sub-record is 2^pairs checks;
#: :func:`subrecord_verdicts` refuses a record with more pairs than this.
ALL_SUBSETS_CAP = 16


def subrecord_verdicts(
    ballot: RankedBallot,
) -> Iterator[tuple[tuple[tuple[str, str], ...], DisjunctionVerdict]]:
    """Every nonempty sub-record of the ballot's record with its T3 verdict.

    Yields ``(pairs, verdict)`` in increasing-size, lexicographic order
    over the sorted record, building the record once; there are
    ``2^pairs - 1`` of them.

    Raises:
        ValueError: the record has more than ``ALL_SUBSETS_CAP`` pairs.
            The check runs on the call, before anything is yielded.
    """
    pairs = sorted(pair_record(ballot).pairs)
    if len(pairs) > ALL_SUBSETS_CAP:
        raise ValueError(
            f"a sub-record sweep checks 2^pairs sub-records; {len(pairs)} pairs "
            f"exceeds the cap of {ALL_SUBSETS_CAP}"
        )
    return (
        (chosen, _disjunction(ballot, frozenset(chosen)))
        for size in range(1, len(pairs) + 1)
        for chosen in combinations(pairs, size)
    )


@dataclass(frozen=True)
class SpatialWitness:
    """Spatial embedding whose squared-distance utility mirrors a ballot.

    Ranked candidates march away from the peak along the first axis and
    the unranked ones share a sphere strictly farther out, so
    ``u(c) = -dist(points[c], peak)^2`` is strictly concave and induces
    exactly the ballot's preferences.
    """

    dimension: int
    peak: tuple[Fraction, ...]
    points: Mapping[str, tuple[Fraction, ...]]

    def __post_init__(self):
        peak = tuple(_frac(v) for v in self.peak)
        points = {
            str(c): tuple(_frac(v) for v in pt) for c, pt in dict(self.points).items()
        }
        if len(peak) != self.dimension:
            raise ValueError("peak dimension mismatch")
        for c, pt in points.items():
            if len(pt) != self.dimension:
                raise ValueError(f"point for {c!r} has wrong dimension")
        if len({pt for pt in points.values()}) != len(points):
            raise ValueError("distinct candidates must map to distinct points")
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "points", points)

    def utility(self, candidate: str) -> Fraction:
        return -sum(
            (a - b) ** 2 for a, b in zip(self.points[candidate], self.peak)
        )

    def utilities(self) -> UtilityAssignment:
        return UtilityAssignment({c: self.utility(c) for c in self.points})

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "peak": [str(v) for v in self.peak],
            "points": {
                c: [str(v) for v in pt] for c, pt in sorted(self.points.items())
            },
        }


def _circle_points(count: int, radius: Fraction) -> list[tuple[Fraction, Fraction]]:
    # Rational points on the circle of the given radius via the tangent
    # half-angle parametrization; t = 0, 1, 2, ... never repeats a point.
    out = []
    for t in range(count):
        den = Fraction(1 + t * t)
        out.append((radius * (1 - t * t) / den, radius * 2 * t / den))
    return out


def concave_witness(ballot: RankedBallot) -> SpatialWitness:
    """Build the spatial witness for a ballot.

    Each candidate sits at distance equal to its position
    (``order._positions``) from the peak, so its utility is ``-position^2``:
    ranked candidates along axis 1, and the ``m`` unranked candidates at
    distinct rational points at common distance ``k`` (the ranked count)
    in the remaining axes, an antipodal pair when ``m == 2`` and points on
    a circle otherwise.  A genuinely regular simplex has no all-rational
    embedding for ``m >= 3``, and equal utility only needs the common
    distance, so exactness wins.
    """
    k = len(ballot.ranked)
    m = len(ballot.unranked)
    dim = max(1, m)
    zero = Fraction(0)
    points: dict[str, tuple[Fraction, ...]] = {}
    for i, c in enumerate(ballot.ranked):
        coords = [zero] * dim
        coords[0] = Fraction(i)
        points[c] = tuple(coords)
    radius = Fraction(k)
    tail = _slots(ballot)[k:]
    if m == 2:
        for c, sign in zip(tail, (1, -1)):
            coords = [zero] * dim
            coords[1] = sign * radius
            points[c] = tuple(coords)
    elif m >= 3:
        for c, (u1, u2) in zip(tail, _circle_points(m, radius)):
            coords = [zero] * dim
            coords[1] = u1
            coords[2] = u2
            points[c] = tuple(coords)
    return SpatialWitness(dim, tuple([zero] * dim), points)


# Pairs drawn by ``verify_concavity``; fixed, like its seed, so that a
# witness reports the same on every run.
_CONCAVITY_TRIALS = 1000


@dataclass(frozen=True)
class ConcavityReport:
    """Outcome of sampled concavity checks."""

    ok: bool
    trials: int
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {"ok": self.ok, "trials": self.trials, "witness": self.witness}


def verify_concavity(witness: SpatialWitness) -> ConcavityReport:
    """Sample convex combinations and re-check both concavity inequalities.

    Draws 1,000 pairs of points from the convex hull of the embedding, and
    a lambda for each, in one batch from a fixed seed; each trial checks
    the strict-concavity and strict-quasiconcavity inequalities at its
    lambda and at the midpoint, with 1e-9 of slack.  No draw is resampled:
    at coincident endpoints or lambda 0 both margins are non-negative up
    to rounding.  Points that all round to one report ok after 0 trials.
    ``verify``'s T4 and ``witness`` both report this check; the quadratic
    rule is concave analytically, so it is a floating-point sanity check.
    """
    # Deferred so that every command that never samples starts without numpy.
    import numpy as np

    names = sorted(witness.points)
    pts = np.array([[float(v) for v in witness.points[c]] for c in names])
    if len(pts) < 2 or (pts == pts[0]).all():
        # One point, or points that round to one, has no distinct pairs to test.
        return ConcavityReport(True, 0)
    peak = np.array([float(v) for v in witness.peak])
    rng = np.random.default_rng(0)
    weights = rng.dirichlet(np.ones(len(names)), size=(_CONCAVITY_TRIALS, 2))
    lam = rng.uniform(size=_CONCAVITY_TRIALS)
    x = weights[:, 0, :] @ pts
    y = weights[:, 1, :] @ pts

    def utility(z):
        d = z - peak
        return -(d * d).sum(axis=1)

    ux, uy = utility(x), utility(y)
    for lam_vec in (lam, np.full_like(lam, 0.5)):
        mix = x * lam_vec[:, None] + y * (1 - lam_vec)[:, None]
        umix = utility(mix)
        concave_margin = umix - (lam_vec * ux + (1 - lam_vec) * uy)
        quasi_margin = umix - np.minimum(ux, uy)
        bad = (concave_margin <= -1e-9) | (quasi_margin <= -1e-9)
        if bad.any():
            i = int(np.argmax(bad))
            return ConcavityReport(
                False,
                i + 1,
                {
                    "x": x[i].tolist(),
                    "y": y[i].tolist(),
                    "lam": float(lam_vec[i]),
                    "concavity_margin": float(concave_margin[i]),
                    "quasiconcavity_margin": float(quasi_margin[i]),
                },
            )
    return ConcavityReport(True, _CONCAVITY_TRIALS)


def rationalizability_class(u: UtilityAssignment, record: PairRecord) -> str:
    """Strongest of ``strict``, ``almost_strict``, ``rationalizable``, ``none``.

    Strict needs a utility gap on every pair; almost-strict allows
    equality exactly on mutual pairs; rationalizable needs only the weak
    inequalities.
    """
    if not all(u[x] >= u[y] for x, y in record.pairs):
        return "none"
    if all(u[x] > u[y] for x, y in record.pairs):
        return "strict"
    if all(u[x] > u[y] for x, y in record.pairs if (y, x) not in record.pairs):
        return "almost_strict"
    return "rationalizable"
