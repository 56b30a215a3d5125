"""Structural claim checkers producing witness-carrying reports.

Each checker returns a :class:`ClaimReport` rather than a bare boolean so
that a failing verdict always points at a concrete pair, triple or
element set that can be replayed against the base predicates in
:mod:`ballot_lattice.order`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .order import (
    OrderRelation,
    RankedBallot,
    _first_pair,
    _strictly_incomparable,
    atoms,
    coatoms,
    join,
    join_irreducibles,
    meet_irreducibles,
    transitivity_gap,
)

__all__ = [
    "HOLDS",
    "FAILS",
    "VACUOUS",
    "CLAIM_REGISTRY",
    "CLAIM_DESCRIPTIONS",
    "MUST_CLAIMS",
    "INFORMATIONAL_CLAIMS",
    "ClaimReport",
    "is_join_semilattice",
    "is_modular",
    "check_remark1",
    "relation_claims",
    "carry_or_evaluate",
]

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"

#: Every claim code in report order, mapped to its human-readable summary
#: and whether it must hold on every ballot for a sweep to succeed.  The
#: other claims are reported for information only.
CLAIM_REGISTRY = {
    "T1": ("every pair of candidates has a join", True),
    "P1": ("modular: x tied to (x v y) forces (x v z) tied to ((x v y) v z)", True),
    "R1.1": ("every join-irreducible element is an atom", False),
    "R1.2": ("a join-irreducible element forces a total order", False),
    "R1.3": ("exactly n-1 meet-irreducible elements", True),
    "R1.4": ("co-atom count between 1 and n-1", True),
    "C1.repr": ("canonical utility represents the ballot order", True),
    "C1.submod": ("canonical utility is submodular", True),
    "RAT": ("canonical utility class is strict exactly on total rankings", True),
    "T3.full": ("the full pair record satisfies the disjunction", True),
    "T3.sub": ("sub-record failures happen only on all-unranked records", False),
    "T4": ("spatial witness has exact utilities, an almost-strict class and passes concavity sampling", True),
}

CLAIM_DESCRIPTIONS = {code: text for code, (text, _) in CLAIM_REGISTRY.items()}
MUST_CLAIMS = frozenset(code for code, (_, must) in CLAIM_REGISTRY.items() if must)
INFORMATIONAL_CLAIMS = frozenset(CLAIM_REGISTRY) - MUST_CLAIMS


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one claim on one relation.

    ``witness`` is None unless ``verdict`` is ``"fails"``, in which case
    it holds the offending pair, triple or element set.
    """

    claim: str
    subject: str
    verdict: str
    witness: Any = None

    @classmethod
    def of(cls, claim: str, subject: str, ok: bool, witness: Any = None) -> "ClaimReport":
        """The verdict of a checked claim: ``holds`` without a witness, else ``fails`` with it.

        Every holding or failing report is made here; only ``vacuous``
        reports, for claims with nothing to check, are built directly.
        """
        return cls(claim, subject, HOLDS) if ok else cls(claim, subject, FAILS, witness)

    @property
    def ok(self) -> bool:
        return self.verdict != FAILS

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "subject": self.subject,
            "verdict": self.verdict,
            "witness": self.witness,
        }

    def relabeled(self, phi: Mapping[str, str], subject: str) -> "ClaimReport | None":
        """This report carried to an isomorphic relation, or None.

        ``phi`` maps each candidate of this report's relation to its image
        under an isomorphism onto the other relation; verdicts carry over
        unchanged.  Set-valued ``elements`` are mapped and re-sorted.  R1.2's
        ``not_totally_ordered`` pair is the first strictly incomparable pair
        in label order, because every pair witness is found by the one
        label-order scan ``order._first_pair``.  On a ballot relation both
        members sit in the tied tail, so the pair maps as is when ``phi``
        keeps the label order there, as the positional bijection between
        two ballots of one shape does.  Any other witness (a T1 or P1 pair or triple, or a witness
        without a ``kind``, such as RAT's classes, T3's records or T4's
        issues) is either chosen by label order or not known here, so None
        is returned and the caller evaluates the other relation directly.
        """
        witness = self.witness
        if witness is not None:
            kind = witness.get("kind") if isinstance(witness, dict) else None
            if kind == "not_totally_ordered":
                witness = {**witness, "pair": [phi[c] for c in witness["pair"]]}
            elif kind is not None and "elements" in witness:
                elements = sorted(phi[c] for c in witness["elements"])
                witness = {**witness, "elements": elements}
            else:
                return None
        return ClaimReport(self.claim, subject, self.verdict, witness)


def carry_or_evaluate(
    sources: dict,
    ballot: RankedBallot,
    subject: str,
    evaluate: Callable[[RankedBallot, str], tuple[list[ClaimReport], Any]],
) -> tuple[list[ClaimReport], Any]:
    """``evaluate(ballot, subject)``, carried from an isomorphic ballot when possible.

    A ballot's shape (ranked count, unranked count) fixes its relation up
    to isomorphism.  ``sources`` maps each shape to the first ballot of it
    that was evaluated, with that ballot's reports and shape-invariant
    extra.  A later ballot of the shape gets those reports relabeled by the
    positional bijection: i-th ranked candidate to i-th ranked candidate,
    and the unranked candidates across in sorted order, which keeps label
    order inside the tied tail.  When any witness cannot be carried (see
    :meth:`ClaimReport.relabeled`) the ballot is evaluated directly.
    """
    shape = (len(ballot.ranked), len(ballot.unranked))
    if shape in sources:
        source, source_reports, extra = sources[shape]
        phi = dict(zip(source.ranked, ballot.ranked))
        phi.update(zip(sorted(source.unranked), sorted(ballot.unranked)))
        reports = [report.relabeled(phi, subject) for report in source_reports]
        if not any(report is None for report in reports):
            return reports, extra
    reports, extra = evaluate(ballot, subject)
    sources.setdefault(shape, (ballot, reports, extra))
    return reports, extra


def _join_failure(r: OrderRelation) -> dict | None:
    gap = transitivity_gap(r)
    if gap is not None:
        return {"kind": "not_transitive", "triple": list(gap)}
    # join(r, x, x) is x, so only distinct pairs can lack a join.
    pair = _first_pair(r.candidates, lambda x, y: join(r, x, y) is None)
    return None if pair is None else {"kind": "missing_join", "pair": pair}


def is_join_semilattice(r: OrderRelation, subject: str | None = None) -> ClaimReport:
    """Claim T1: the relation is an order and every pair has a join.

    Fails with the first transitivity gap when the relation is not even a
    weak order, otherwise with the first pair (in label order)
    lacking a least upper bound.
    """
    witness = _join_failure(r)
    return ClaimReport.of("T1", subject or r.digest(), witness is None, witness)


def _modularity_failure(r: OrderRelation) -> dict | None:
    joins = {(x, y): join(r, x, y) for x in r.candidates for y in r.candidates}

    def tied_or_equal(u: str, v: str) -> bool:
        return u == v or r.indifferent(u, v)

    for x in r.candidates:
        for y in r.candidates:
            xy = joins[(x, y)]
            if xy is None or not tied_or_equal(x, xy):
                continue
            for z in r.candidates:
                left = joins[(x, z)]
                right = joins[(xy, z)]
                if left is None or right is None:
                    return {"kind": "missing_join", "triple": [x, y, z]}
                if not tied_or_equal(left, right):
                    return {
                        "kind": "not_modular", "triple": [x, y, z], "left": left, "right": right
                    }
    return None


def is_modular(r: OrderRelation, subject: str | None = None) -> ClaimReport:
    """Claim P1: strong quasisubmodularity over all triples.

    The premise counts ``x`` equal to ``x v y`` as tied, which is how the
    condition ever fires on a relation without non-trivial ties.  Triples
    whose premise needs a missing join are skipped (the premise cannot be
    evaluated); a missing join in the conclusion is a failure.
    """
    witness = _modularity_failure(r)
    return ClaimReport.of("P1", subject or r.digest(), witness is None, witness)


def check_remark1(r: OrderRelation, subject: str | None = None) -> list[ClaimReport]:
    """Evaluate claims R1.1 through R1.4 on one relation.

    R1.1 and R1.2 are vacuous without a join-irreducible element.  The
    checks report what actually holds on the given relation; nothing here
    assumes it came from a ballot.
    """
    subject = subject or r.digest()
    n = len(r.candidates)
    ji = join_irreducibles(r)
    if ji:
        stray = sorted(ji - atoms(r))
        pair = _first_pair(r.candidates, lambda x, y: _strictly_incomparable(r, x, y))
        out = [
            ClaimReport.of(
                "R1.1", subject, not stray, {"kind": "join_irreducible_not_atom", "elements": stray}
            ),
            ClaimReport.of(
                "R1.2", subject, pair is None, {"kind": "not_totally_ordered", "pair": pair}
            ),
        ]
    else:
        out = [ClaimReport("R1.1", subject, VACUOUS), ClaimReport("R1.2", subject, VACUOUS)]
    mi = sorted(meet_irreducibles(r))
    cps = sorted(coatoms(r))
    mi_count = {
        "kind": "meet_irreducible_count", "count": len(mi), "expected": n - 1, "elements": mi
    }
    cp_count = {"kind": "coatom_count", "count": len(cps), "allowed": [1, n - 1], "elements": cps}
    return [
        *out,
        ClaimReport.of("R1.3", subject, len(mi) == n - 1, mi_count),
        ClaimReport.of("R1.4", subject, 1 <= len(cps) <= n - 1, cp_count),
    ]


def relation_claims(r: OrderRelation, subject: str | None = None) -> list[ClaimReport]:
    """Claims T1, P1 and R1.1 through R1.4 on one relation, in that order."""
    subject = subject or r.digest()
    return [is_join_semilattice(r, subject), is_modular(r, subject), *check_remark1(r, subject)]
