"""Independent reference implementations used only as test oracles.

Everything here re-derives results straight from definitions, without the
shortcuts the production code takes: bound properties are verified by
full scans, transitivity and modularity (T1 and P1) by the cubic walks
over all triples, the census is built by generate-and-dedup, the disjunction
search enumerates all 2^pairs subsets without pruning (or, past that
walk's reach, all 2^sources sets of unranked sources), the
instant-runoff reference recounts every round from scratch, and the
reference loader builds a fresh ballot for every voter.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

from ballot_lattice.checks import (
    CLAIM_REGISTRY,
    FAILS,
    HOLDS,
    SUBRECORD_SWEEP_MAX_N,
    VACUOUS,
    ClaimReport,
    check_remark1,
    relation_claims,
)
from ballot_lattice.election import ElectionProfile, ProfileError, _csv_rows, _validate_header
from ballot_lattice.enumeration import (
    ClaimStats,
    VerificationSummary,
    default_candidates,
    enumerate_ballots,
)
from ballot_lattice.order import (
    OrderRelation,
    RankedBallot,
    _check_token,
    format_ballot,
    relation_of,
)
from ballot_lattice.representation import (
    canonical_utility,
    concave_witness,
    is_representation,
    is_submodular,
    pair_record,
    rationalizability_class,
    subrecord_verdicts,
)


# ---------------------------------------------------------------------------
# bounds


def _above(rel: OrderRelation, u: str, v: str) -> bool:
    return u == v or rel.strictly(u, v)


def _is_lub(rel: OrderRelation, x: str, y: str, u: str) -> bool:
    if not (_above(rel, u, x) and _above(rel, u, y)):
        return False
    return all(
        _above(rel, v, u)
        for v in rel.candidates
        if _above(rel, v, x) and _above(rel, v, y)
    )


def is_least_upper_bound(rel: OrderRelation, x: str, y: str, candidate: str | None) -> bool:
    """Verify a claimed join (or claimed absence) against the definition."""
    if candidate is None:
        return not any(_is_lub(rel, x, y, u) for u in rel.candidates)
    return _is_lub(rel, x, y, candidate)


def naive_join(rel: OrderRelation, x: str, y: str) -> str | None:
    """The join by definition: the candidate that is a least upper bound, if any.

    Strict preference is asymmetric, so two least upper bounds would each
    sit above the other; there is at most one.
    """
    return next((u for u in rel.candidates if _is_lub(rel, x, y, u)), None)


def is_greatest_lower_bound(rel: OrderRelation, x: str, y: str, candidate: str | None) -> bool:
    """Verify a claimed meet (or claimed absence) against the definition."""

    def glb(u: str) -> bool:
        if not (_above(rel, x, u) and _above(rel, y, u)):
            return False
        return all(
            _above(rel, u, v)
            for v in rel.candidates
            if _above(rel, x, v) and _above(rel, y, v)
        )

    if candidate is None:
        return not any(glb(u) for u in rel.candidates)
    return glb(candidate)


def naive_extremes(rel: OrderRelation) -> tuple[str | None, str | None]:
    """The least and the greatest element, each by the scan over every candidate pair."""
    lows = [x for x in rel.candidates if all(rel.holds(y, x) for y in rel.candidates)]
    tops = [x for x in rel.candidates if all(rel.holds(x, y) for y in rel.candidates)]
    return (lows[0] if len(lows) == 1 else None, tops[0] if len(tops) == 1 else None)


def naive_transitivity_gap(rel: OrderRelation) -> tuple[str, str, str] | None:
    """First ``(x, y, z)`` with ``x >= y >= z`` but not ``x >= z``, by the walk over all triples."""
    for x in rel.candidates:
        for y in rel.candidates:
            if rel.holds(x, y):
                for z in rel.candidates:
                    if rel.holds(y, z) and not rel.holds(x, z):
                        return (x, y, z)
    return None


def naive_modularity_failure(rel: OrderRelation) -> dict | None:
    """P1's first failing triple by the walk over all triples of definitional joins."""
    joins = {(x, y): naive_join(rel, x, y) for x in rel.candidates for y in rel.candidates}

    def tied_or_equal(u: str, v: str) -> bool:
        return u == v or rel.indifferent(u, v)

    for x in rel.candidates:
        for y in rel.candidates:
            xy = joins[(x, y)]
            if xy is None or not tied_or_equal(x, xy):
                continue
            for z in rel.candidates:
                left = joins[(x, z)]
                right = joins[(xy, z)]
                if left is None or right is None:
                    return {"kind": "missing_join", "triple": [x, y, z]}
                if not tied_or_equal(left, right):
                    return {
                        "kind": "not_modular", "triple": [x, y, z], "left": left, "right": right
                    }
    return None


def naive_relation_claims(rel: OrderRelation, subject: str) -> list[ClaimReport]:
    """T1 and P1 by the walks over all triples and definitional joins, then R1 as checked.

    T1 fails with the first transitivity gap, else with the first pair in
    label order that has no join.
    """
    gap = naive_transitivity_gap(rel)
    if gap is not None:
        t1 = {"kind": "not_transitive", "triple": list(gap)}
    else:
        pair = next(
            ([x, y] for x, y in combinations(rel.candidates, 2) if naive_join(rel, x, y) is None),
            None,
        )
        t1 = pair and {"kind": "missing_join", "pair": pair}
    p1 = naive_modularity_failure(rel)
    return [
        ClaimReport.of("T1", subject, t1 is None, t1),
        ClaimReport.of("P1", subject, p1 is None, p1),
        *check_remark1(rel, subject),
    ]


def naive_covers(rel: OrderRelation) -> set[tuple[str, str]]:
    """Covering pairs recomputed from the definition."""
    out = set()
    for x in rel.candidates:
        for y in rel.candidates:
            if not rel.strictly(x, y):
                continue
            if any(rel.strictly(x, z) and rel.strictly(z, y) for z in rel.candidates):
                continue
            out.add((x, y))
    return out


# ---------------------------------------------------------------------------
# census


def naive_census(candidates) -> dict[OrderRelation, RankedBallot]:
    """Generate every ranked prefix of every length and dedup by relation."""
    cands = tuple(sorted(set(candidates)))
    seen: dict[OrderRelation, RankedBallot] = {}
    for k in range(1, len(cands) + 1):
        for prefix in permutations(cands, k):
            ballot = RankedBallot(tuple(prefix), frozenset(cands) - set(prefix))
            seen.setdefault(relation_of(ballot), ballot)
    return seen


def closed_form_count(n: int) -> int:
    """Sum of k-permutations for k = 1..n minus the n-1 block (n >= 2)."""
    fact = lambda m: 1 if m <= 1 else m * fact(m - 1)
    if n == 1:
        return 1
    return sum(fact(n) // fact(n - k) for k in range(1, n + 1)) - fact(n)


def naive_class(utility, pairs) -> str:
    """The rationalizability class of ``utility`` on the weak-preference ``pairs``, written out."""
    if any(utility[x] < utility[y] for x, y in pairs):
        return "none"
    ties = [(x, y) for x, y in pairs if utility[x] == utility[y]]
    if not ties:
        return "strict"
    if all((y, x) in pairs for x, y in ties):
        return "almost_strict"
    return "rationalizable"


def naive_witness_issues(ballot: RankedBallot, record) -> tuple[list, str]:
    """T4's issues and class for the ballot's spatial witness, from definitions.

    Slot ``i`` (the ranked chain, then the sorted tail) must have utility
    ``-min(i, k)^2``.  Concavity is checked exactly, not sampled: for
    ``u(z) = -|z - peak|^2`` and every pair of distinct embedded points,
    ``u(lx + (1-l)y) - l u(x) - (1-l) u(y)`` must equal ``l(1-l)|x - y|^2``
    and be positive, for ``l`` of 1/2 and 1/3.
    """
    witness = concave_witness(ballot)
    k = len(ballot.ranked)
    slots = [*ballot.ranked, *sorted(ballot.unranked)]
    utility = {c: witness.utility(c) for c in slots}
    issues = []
    for i, c in enumerate(slots):
        want = -min(i, k) ** 2
        if utility[c] != want:
            issues.append({"candidate": c, "got": str(utility[c]), "want": str(want)})

    def u(z):
        return -sum((a - b) ** 2 for a, b in zip(z, witness.peak))

    for x, y in combinations(sorted(witness.points.values()), 2):
        ux, uy, dist = u(x), u(y), sum((a - b) ** 2 for a, b in zip(x, y))
        for lam in (Fraction(1, 2), Fraction(1, 3)):
            gap = u([lam * a + (1 - lam) * b for a, b in zip(x, y)]) - lam * ux - (1 - lam) * uy
            if gap != lam * (1 - lam) * dist or gap <= 0:
                issues.append({"concavity": {"x": x, "y": y, "lam": lam, "gap": gap}})
    return issues, naive_class(utility, record.pairs)


def direct_verify(n: int) -> VerificationSummary:
    """The claim sweep with every census ballot evaluated on its own.

    The reference for ``exhaustive_verify``, which checks one ballot per
    shape and carries the reports to the rest by isomorphism.
    """
    stats = {
        code: ClaimStats(code, text, must) for code, (text, must) in CLAIM_REGISTRY.items()
    }
    count = 0
    for ballot in enumerate_ballots(default_candidates(n)):
        count += 1
        subject = format_ballot(ballot)
        rel = relation_of(ballot)

        for report in relation_claims(rel, subject):
            stats[report.claim].record(report.verdict, subject, report.witness)

        util = canonical_utility(ballot)
        stats["C1.repr"].record(HOLDS if is_representation(util, rel) else FAILS, subject)
        stats["C1.submod"].record(HOLDS if is_submodular(util, rel) else FAILS, subject)

        record = pair_record(ballot)
        expected_class = "strict" if ballot.is_total() else "almost_strict"
        got_class = rationalizability_class(util, record)
        if got_class == expected_class:
            stats["RAT"].record(HOLDS, subject)
        else:
            stats["RAT"].record(FAILS, subject, {"expected": expected_class, "got": got_class})

        if n <= SUBRECORD_SWEEP_MAX_N and record.pairs:
            violations = []
            for chosen, verdict in subrecord_verdicts(ballot):
                if len(violations) < 5 and not verdict.ok and not verdict.all_unranked:
                    violations.append([list(p) for p in chosen])
            stats["T3.full"].record(
                HOLDS if verdict.ok else FAILS, subject, None if verdict.ok else verdict.to_dict()
            )
            stats["T3.sub"].record(FAILS if violations else HOLDS, subject, violations or None)
        else:
            stats["T3.full"].record(VACUOUS, subject)
            stats["T3.sub"].record(VACUOUS, subject)

        issues, got_class = naive_witness_issues(ballot, record)
        if not issues and got_class == expected_class:
            stats["T4"].record(HOLDS, subject)
        else:
            stats["T4"].record(
                FAILS, subject, {"issues": issues, "class": got_class, "expected": expected_class}
            )
    return VerificationSummary(n, count, list(stats.values()))


# ---------------------------------------------------------------------------
# record disjunction, no pruning


def oracle_extremes(ballot: RankedBallot, members) -> set[str]:
    members = set(members)
    ranked = [c for c in ballot.ranked if c in members]
    if not ranked:
        return set()
    tail = members & set(ballot.unranked)
    if tail:
        return {ranked[0]} | tail
    return {ranked[0], ranked[-1]}


def subset_disjunction_oracle(ballot: RankedBallot, pairs) -> tuple[str, object]:
    """Full 2^|pairs| search, increasing size then lexicographic."""
    pairs = sorted(set(pairs))
    cands = sorted({c for pair in pairs for c in pair})
    extremes = oracle_extremes(ballot, cands)
    y_all = {x for x, _ in pairs}
    for e in sorted(extremes):
        if e not in y_all:
            return ("disjunct1", e)
    for size in range(1, len(pairs) + 1):
        for chosen in combinations(pairs, size):
            sources = {x for x, _ in chosen}
            targets = {y for _, y in chosen}
            if sources != targets or not sources <= extremes:
                continue
            rest = set(pairs) - set(chosen)
            if sources & {x for x, _ in rest}:
                continue
            return ("disjunct2", tuple(chosen))
    return ("fails", None)


def source_set_disjunction_oracle(ballot: RankedBallot, pairs) -> tuple[str, object]:
    """Search every set of unranked extreme-point sources, smallest pairs first.

    A balanced, detached sub-record holds every pair leaving its sources
    ``V``, so each ``V`` fixes one candidate set of pairs; it is kept when
    those pairs' targets are exactly ``V``.  The search costs 2^|V| sets
    rather than 2^|pairs| subsets and finds the same witness as
    :func:`subset_disjunction_oracle`.
    """
    pairs = sorted(set(pairs))
    cands = sorted({c for pair in pairs for c in pair})
    extremes = oracle_extremes(ballot, cands)
    outgoing: dict[str, list[str]] = {}
    for x, y in pairs:
        outgoing.setdefault(x, []).append(y)
    for e in sorted(extremes):
        if e not in outgoing:
            return ("disjunct1", e)
    pool = [x for x in outgoing if x in ballot.unranked and x in extremes]
    best = None
    for size in range(1, len(pool) + 1):
        for sources in combinations(pool, size):
            chosen = tuple((x, y) for x in sources for y in outgoing[x])
            if {y for _, y in chosen} != set(sources):
                continue
            if best is None or (len(chosen), chosen) < (len(best), best):
                best = chosen
    if best is None:
        return ("fails", None)
    return ("disjunct2", best)


def validate_disjunct2_witness(ballot: RankedBallot, pairs, witness) -> bool:
    """Re-check a disjunct-2 witness from the definitions alone."""
    pairs = set(pairs)
    chosen = set(tuple(p) for p in witness)
    if not chosen or not chosen <= pairs:
        return False
    cands = sorted({c for pair in pairs for c in pair})
    extremes = oracle_extremes(ballot, cands)
    sources = {x for x, _ in chosen}
    targets = {y for _, y in chosen}
    rest = pairs - chosen
    return sources == targets and sources <= extremes and not sources & {x for x, _ in rest}


# ---------------------------------------------------------------------------
# instant runoff, stateless recount


def irv_reference(profile: ElectionProfile):
    """Recount every round from the raw ballots; returns (rounds, winner).

    Each round entry is (tallies, eliminated, exhausted) with the same
    tie-break rules as the production tabulator: previous-round tally,
    then smallest id.
    """
    eliminated: list[str] = []
    rounds = []
    while True:
        active = [c for c in profile.candidates if c not in eliminated]
        tallies = {c: 0 for c in active}
        exhausted = 0
        for _, ballot in profile.ballots:
            choice = next((c for c in ballot.ranked if c not in eliminated), None)
            if choice is None:
                exhausted += 1
            else:
                tallies[choice] += 1
        live = len(profile.ballots) - exhausted
        leader = max(active, key=lambda c: tallies[c])
        if live > 0 and 2 * tallies[leader] > live:
            rounds.append((tallies, None, exhausted))
            return rounds, leader
        if len(active) == 1:
            rounds.append((tallies, None, exhausted))
            return rounds, active[0]
        prev = rounds[-1][0] if rounds else {}
        low = min(tallies.values())
        tied = [c for c in active if tallies[c] == low]
        loser = min(tied, key=lambda c: (prev.get(c, 0), c))
        rounds.append((tallies, loser, exhausted))
        eliminated.append(loser)


# ---------------------------------------------------------------------------
# election load, one fresh ballot per voter


def direct_load_profile(path, *, candidates=None) -> ElectionProfile:
    """Load a profile CSV by scanning every row and building every voter's ballot.

    The per-voter loop that ``load_profile`` replaced: no row scan or
    ballot is shared between voters, so its profile and its errors are
    the definition the memoized loader is held to.
    """
    universe = None if candidates is None else {_check_token(c) for c in candidates}
    rows: list[tuple[int, str, list[str]]] = []
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = _csv_rows(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError("empty file", 1) from None
        _validate_header(header)
        width = len(header)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) > width:
                raise ProfileError(f"row has {len(row)} cells but the header has {width}", line)
            voter = row[0].strip()
            if not voter:
                raise ProfileError("missing voter_id", line)
            ranked: list[str] = []
            blank_seen = False
            for cell in (c.strip() for c in row[1:]):
                if cell:
                    if blank_seen:
                        raise ProfileError("gap in ranking: blank cell before a filled cell", line)
                    if cell in ranked:
                        raise ProfileError(f"duplicate candidate {cell!r} in ranking", line)
                    ranked.append(cell)
                else:
                    blank_seen = True
            if not ranked:
                raise ProfileError("empty ranking row", line)
            rows.append((line, voter, ranked))
    if not rows:
        raise ProfileError("no ballots in file")

    if universe is not None:
        for line, _, ranked in rows:
            stray = [c for c in ranked if c not in universe]
            if stray:
                raise ProfileError(f"unknown candidate {stray[0]!r}", line)
    else:
        universe = {c for _, _, ranked in rows for c in ranked}
    if len(universe) < 3:
        raise ProfileError(f"fewer than 3 candidates overall (got {len(universe)})")
    # The first row holding an invalid id, and its first such id, are blamed
    # before any voter id is compared.
    for line, _, ranked in rows:
        for cand in ranked:
            try:
                _check_token(cand)
            except ValueError as exc:
                raise ProfileError(str(exc), line) from None

    seen_voters: set[str] = set()
    ballots: list[tuple[str, RankedBallot]] = []
    for line, voter, ranked in rows:
        if voter in seen_voters:
            raise ProfileError(f"duplicate voter_id {voter!r}", line)
        seen_voters.add(voter)
        try:
            ballot = RankedBallot(tuple(ranked), frozenset(universe) - set(ranked))
        except ValueError as exc:
            raise ProfileError(str(exc), line) from None
        ballots.append((voter, ballot))
    return ElectionProfile(tuple(sorted(universe)), tuple(ballots))
