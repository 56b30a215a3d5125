"""Exhaustive ballot census and the claim sweep built on it.

Small candidate sets admit a complete census: every distinct way to rank
a nonempty subset of the field and leave the rest tied.  The sweep runs
every claim checker over the census and aggregates witnessed verdicts, so
the structural claims are machine-checked instead of trusted.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Iterator

from .checks import (
    CLAIM_REGISTRY,
    FAILS,
    HOLDS,
    VACUOUS,
    ClaimReport,
    carry_or_evaluate,
    relation_claims,
)
from .order import RankedBallot, _candidate_ids, _exact_int, _settled, _slots, format_ballot, relation_of
from .representation import (
    PairRecord,
    canonical_utility,
    concave_witness,
    is_representation,
    is_submodular,
    pair_record,
    rationalizability_class,
    subrecord_verdicts,
    verify_concavity,
)

__all__ = [
    "MAX_ENUMERATION_CANDIDATES",
    "SUBRECORD_SWEEP_MAX_N",
    "default_candidates",
    "ballot_count",
    "enumerate_ballots",
    "ClaimStats",
    "VerificationSummary",
    "exhaustive_verify",
]

MAX_ENUMERATION_CANDIDATES = 7

#: A sub-record sweep costs 2^(pair count), once per ballot shape (ranked
#: count, unranked count); past this candidate count the record-disjunction
#: claims are skipped.
SUBRECORD_SWEEP_MAX_N = 4


def default_candidates(n: int) -> tuple[str, ...]:
    """Single-letter candidate ids ``a``, ``b``, ``c``, ..."""
    n = _exact_int(n, "candidate count")
    if not 1 <= n <= len(string.ascii_lowercase):
        raise ValueError(f"candidate count {n} out of range")
    return tuple(string.ascii_lowercase[:n])


def ballot_count(n: int) -> int:
    """Closed form for the census size.

    Permutations of every prefix length, minus the length ``n - 1`` block
    that normalization folds into the full rankings.
    """
    n = _exact_int(n, "candidate count")
    if n < 1:
        raise ValueError("need at least one candidate")
    return sum(math.perm(n, k) for k in range(1, n + 1) if k != n - 1)


def enumerate_ballots(candidates: Iterable[str]) -> Iterator[RankedBallot]:
    """An iterator over every distinct ballot on the candidate set.

    Deterministic order: ranked-prefix length ascending, then
    lexicographic.  Length ``n - 1`` prefixes are skipped because a lone
    unranked candidate normalizes into the full ranking, which would
    repeat a length-``n`` ballot; each distinct relation therefore shows
    up exactly once.  The ids are checked once, in sorted order, on call.
    """
    cands = _candidate_ids(candidates)
    n = len(cands)
    if not 1 <= n <= MAX_ENUMERATION_CANDIDATES:
        raise ValueError(
            f"enumeration supports 1..{MAX_ENUMERATION_CANDIDATES} candidates, got {n}"
        )
    everyone = frozenset(cands)
    return (
        _settled(prefix, everyone - set(prefix))
        for k in range(1, n + 1) if k != n - 1
        for prefix in permutations(cands, k)
    )


@dataclass
class ClaimStats:
    """Aggregated verdicts for one claim across a sweep."""

    claim: str
    description: str
    must: bool
    holds: int = 0
    fails: int = 0
    vacuous: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, verdict: str, subject: str, witness=None) -> None:
        if verdict == HOLDS:
            self.holds += 1
        elif verdict == FAILS:
            self.fails += 1
            self.witnesses.append({"subject": subject, "witness": witness})
        elif verdict == VACUOUS:
            self.vacuous += 1
        else:
            raise ValueError(f"unknown verdict {verdict!r}")

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "description": self.description,
            "must": self.must,
            "holds": self.holds,
            "fails": self.fails,
            "vacuous": self.vacuous,
            "witnesses": self.witnesses,
        }


@dataclass
class VerificationSummary:
    """Outcome of one exhaustive sweep."""

    n: int
    ballot_count: int
    claims: list[ClaimStats]

    def claim(self, code: str) -> ClaimStats:
        for stats in self.claims:
            if stats.claim == code:
                return stats
        raise KeyError(code)

    @property
    def must_failures(self) -> list[str]:
        return [c.claim for c in self.claims if c.must and c.fails]

    @property
    def ok(self) -> bool:
        return not self.must_failures

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "ballot_count": self.ballot_count,
            "ok": self.ok,
            "must_failures": self.must_failures,
            "claims": [c.to_dict() for c in self.claims],
        }


def _witness_issues(ballot: RankedBallot, record: PairRecord) -> tuple[list, str]:
    """Check the spatial witness; returns (issues, rationalizability class)."""
    witness = concave_witness(ballot)
    issues = []
    for i, c in enumerate(_slots(ballot)):
        expected = -Fraction(min(i, len(ballot.ranked)) ** 2)
        if witness.utility(c) != expected:
            issues.append({"candidate": c, "got": str(witness.utility(c)), "want": str(expected)})
    cls = rationalizability_class(witness.utilities(), record)
    report = verify_concavity(witness)
    if not report.ok:
        issues.append({"concavity": report.witness})
    return issues, cls


def _claim_block(ballot: RankedBallot, subject: str) -> tuple[list[ClaimReport], None]:
    """Every claim's report on one census ballot, evaluated directly."""
    rel = relation_of(ballot)
    reports = relation_claims(rel, subject)

    util = canonical_utility(ballot)
    reports.append(ClaimReport.of("C1.repr", subject, is_representation(util, rel)))
    reports.append(ClaimReport.of("C1.submod", subject, is_submodular(util, rel)))

    record = pair_record(ballot)
    expected_class = "strict" if ballot.is_total() else "almost_strict"
    got_class = rationalizability_class(util, record)
    rat = {"expected": expected_class, "got": got_class}
    reports.append(ClaimReport.of("RAT", subject, got_class == expected_class, rat))

    if len(rel.candidates) <= SUBRECORD_SWEEP_MAX_N and record.pairs:
        violations = []
        for chosen, verdict in subrecord_verdicts(ballot):
            if len(violations) < 5 and not verdict.ok and not verdict.all_unranked:
                violations.append([list(p) for p in chosen])
        # Sub-records come smallest first, so the last verdict is the
        # full record's.
        reports.append(ClaimReport.of("T3.full", subject, verdict.ok, verdict.to_dict()))
        reports.append(ClaimReport.of("T3.sub", subject, not violations, violations))
    else:
        reports.append(ClaimReport("T3.full", subject, VACUOUS))
        reports.append(ClaimReport("T3.sub", subject, VACUOUS))

    issues, got_class = _witness_issues(ballot, record)
    t4 = {"issues": issues, "class": got_class, "expected": expected_class}
    reports.append(ClaimReport.of("T4", subject, not issues and got_class == expected_class, t4))
    return reports, None


def exhaustive_verify(n: int) -> VerificationSummary:
    """Run every claim over the full ballot census on ``n`` candidates.

    Every claim is a property of a ballot's relation up to relabeling, so
    each shape (ranked count, unranked count) is checked once, on its first
    census ballot, and every ballot of the shape reads its report rows from
    that shape's positional plan
    (:func:`~ballot_lattice.checks.carry_or_evaluate`); the ballots of a
    shape whose witnesses cannot be carried are each checked directly.
    T4's concavity sampling therefore runs once per shape.

    The record-disjunction claims (``T3.*``) cost up to ``2^pairs`` per
    checked ballot, so they run only for ``n <= SUBRECORD_SWEEP_MAX_N`` and
    are vacuous above it.  Both come from one pass over
    :func:`subrecord_verdicts`: its last verdict is the full record's
    (``T3.full``), and the first five failing sub-records that are not
    all-unranked are ``T3.sub``'s witnesses.
    A summary is returned rather than raising, so callers decide how hard
    to fail; ``summary.ok`` is False exactly when a must-hold claim
    failed somewhere.
    """
    stats = {
        code: ClaimStats(code, text, must) for code, (text, must) in CLAIM_REGISTRY.items()
    }
    candidates = default_candidates(n)
    shapes: dict = {}
    count = 0
    for ballot in enumerate_ballots(candidates):
        count += 1
        subject = format_ballot(ballot)
        rows, _ = carry_or_evaluate(shapes, ballot, subject, _claim_block)
        for row in rows:
            stats[row["claim"]].record(row["verdict"], subject, row["witness"])
    return VerificationSummary(len(candidates), count, list(stats.values()))
