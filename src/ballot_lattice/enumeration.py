"""Exhaustive ballot census and the claim sweep built on it.

Small candidate sets admit a complete census: every distinct way to rank
a nonempty subset of the field and leave the rest tied.  The sweep runs
the claim block of :mod:`ballot_lattice.checks` over the census and
aggregates its witnessed verdicts by claim code, so the structural claims
are machine-checked instead of trusted.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Iterator

from .checks import CLAIM_REGISTRY, FAILS, HOLDS, VACUOUS, _claim_block, carry_or_evaluate
from .order import RankedBallot, _candidate_ids, _exact_int, _settled, format_ballot

__all__ = [
    "MAX_ENUMERATION_CANDIDATES",
    "default_candidates",
    "ballot_count",
    "enumerate_ballots",
    "ClaimStats",
    "VerificationSummary",
    "exhaustive_verify",
]

MAX_ENUMERATION_CANDIDATES = 7


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


def exhaustive_verify(n: int) -> VerificationSummary:
    """Run every claim over the full ballot census on ``n`` candidates.

    The claims are decided by the claim block of
    :mod:`ballot_lattice.checks`.  Every claim is a property of a ballot's
    relation up to relabeling, so each shape (ranked count, unranked count)
    is checked once, on its first census ballot, and every ballot of the
    shape reads its report rows from that shape's positional plan
    (:func:`~ballot_lattice.checks.carry_or_evaluate`); the ballots of a
    shape whose witnesses cannot be carried are each checked directly.
    T4's concavity sampling therefore runs once per shape.

    The record-disjunction claims (``T3.*``) run only for
    ``n <= checks.SUBRECORD_SWEEP_MAX_N`` and are vacuous above it:
    ``T3.full`` is decided on the full record, and ``T3.sub`` walks its
    ``2^pairs`` sub-records.
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
