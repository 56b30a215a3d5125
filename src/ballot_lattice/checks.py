"""Claim checkers producing witness-carrying reports.

Every claim code is decided here: T1, P1 and R1.* on a relation
(:func:`relation_claims`), and all twelve on a census ballot
(``_claim_block``).  Each checker returns a :class:`ClaimReport` rather
than a bare boolean so that a failing verdict always points at a concrete
witness that can be replayed against the base predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .order import (
    OrderRelation,
    RankedBallot,
    _first_pair,
    _positions,
    _slots,
    _strictly_incomparable,
    atoms,
    coatoms,
    join,  # not called here; perfbench's selftest checks its tracer restores ``checks.join``
    join_irreducibles,
    meet_irreducibles,
    relation_of,
    transitivity_gap,
)
from .representation import (
    PairRecord,
    _disjunction,
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
    "HOLDS",
    "FAILS",
    "VACUOUS",
    "CLAIM_REGISTRY",
    "SUBRECORD_SWEEP_MAX_N",
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

#: A sub-record sweep costs 2^(pair count), once per ballot shape (ranked
#: count, unranked count); past this candidate count the record-disjunction
#: claims are skipped.
SUBRECORD_SWEEP_MAX_N = 4


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


def carry_or_evaluate(
    sources: dict,
    ballot: RankedBallot,
    subject: str,
    evaluate: Callable[[RankedBallot, str], tuple[list[ClaimReport], Any]],
) -> tuple[list[dict], Any]:
    """``evaluate(ballot, subject)`` as report rows, carried by shape when possible.

    A ballot's shape (ranked count, unranked count) fixes its relation up
    to isomorphism.  ``sources`` maps each shape to the positional plan
    (:func:`_shape_plan`) of its first ballot's reports, with that
    evaluation's shape-invariant extra.  Every ballot of a planned shape,
    the first included, gets fresh rows in :meth:`ClaimReport.to_dict` form
    from the plan and its own slots, so no two rows share a mutable object.
    Each ballot of a shape without a plan is evaluated directly.
    """
    shape = (len(ballot.ranked), len(ballot.unranked))
    slots = _slots(ballot)
    plan, extra = sources.get(shape, (None, None))
    if plan is None:
        reports, extra = evaluate(ballot, subject)
        if shape not in sources:
            plan = _shape_plan(slots, reports)
            sources[shape] = (plan, extra)
        if plan is None:
            return [report.to_dict() for report in reports], extra
    return [
        {"claim": claim, "subject": subject, "verdict": verdict, "witness": witness and {
            **witness,
            **{k: list(witness[k]) for k in lists},
            key: sorted([slots[i] for i in positions]),
        }}
        for claim, verdict, witness, key, positions, lists in plan
    ], extra


def _shape_plan(slots: tuple[str, ...], reports: list[ClaimReport]) -> list[tuple] | None:
    """How ``reports``, made on the ballot with ``slots``, read on any ballot of its shape.

    Mapping slot i (``order._slots``) of one ballot to slot i of another of
    the same shape is an isomorphism of their relations, so verdicts carry
    over unchanged, and a witness carries once each of its candidates is
    stored as a slot index: its ``elements`` set, or R1.2's
    ``not_totally_ordered`` pair, is mapped and sorted.  That pair is the
    first strictly incomparable pair in label order, because every pair
    witness is found by the one label-order scan ``order._first_pair``.  On
    a ballot relation both members sit in the tied tail, whose slots are in
    label order on every ballot, so the mapped pair is again the first.
    Any other witness (a T1 or P1 pair or triple, or a witness without a
    ``kind``, such as RAT's classes, T3's records or T4's issues) is either
    chosen by label order or not mapped by slot, so there is no plan (None)
    and every ballot of the shape is evaluated directly.

    Each entry is ``(claim, verdict, witness, key, positions, lists)``: a
    carried witness's ``key`` list reads the slots at ``positions``, and its
    other list fields ``lists`` are copied.
    """
    index = {c: i for i, c in enumerate(slots)}
    plan = []
    for report in reports:
        witness = report.witness
        key, positions, lists = None, (), ()
        if witness is not None:
            kind = witness.get("kind") if isinstance(witness, dict) else None
            key = "pair" if kind == "not_totally_ordered" else "elements"
            if kind is None or key not in witness:
                return None
            positions = tuple(index[c] for c in witness[key])
            lists = tuple(k for k, v in witness.items() if isinstance(v, list) and k != key)
        plan.append((report.claim, report.verdict, witness, key, positions, lists))
    return plan


def _join_failure(r: OrderRelation) -> dict | None:
    gap = transitivity_gap(r)
    if gap is not None:
        return {"kind": "not_transitive", "triple": list(gap)}
    # x v x is x, so only distinct pairs can lack a join.
    pair = _first_pair(r.candidates, lambda x, y: r._joins[x, y] is None)
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
    """P1's first failing triple ``[x, y, z]`` in label order, or None.

    ``x v y`` is ``x`` or strictly above it, never tied to it, so the premise
    holds exactly when ``x v y = x``, and then both sides of the conclusion
    are ``x v z``: only a missing ``x v z`` fails.  So the walk over all
    triples fails first at the first ``x`` lacking a join, the first ``y``
    with ``x v y = x`` (``x v x`` is ``x``) and the first ``z`` with no ``x v z``.
    """
    joins = r._joins
    for x in r.candidates:
        z = next((z for z in r.candidates if joins[x, z] is None), None)
        if z is not None:
            y = next(y for y in r.candidates if joins[x, y] == x)
            return {"kind": "missing_join", "triple": [x, y, z]}
    return None


def is_modular(r: OrderRelation, subject: str | None = None) -> ClaimReport:
    """Claim P1: strong quasisubmodularity over all triples.

    The premise counts ``x`` equal to ``x v y`` as tied, which is how the
    condition ever fires on a relation without non-trivial ties.  Triples
    whose premise needs a missing join are skipped (the premise cannot be
    evaluated); a missing join in the conclusion is a failure, and it is
    the only failure there can be (see ``_modularity_failure``).
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


def _witness_check(ballot: RankedBallot, record: PairRecord) -> tuple:
    """T4 on one ballot, as ``verify`` and ``witness`` both report it.

    Returns (witness, utilities, their class, concavity report, issues).
    """
    witness = concave_witness(ballot)
    utilities = witness.utilities()
    issues = []
    for c, p in _positions(ballot).items():
        got, want = utilities[c], -p ** 2
        if got != want:
            issues.append({"candidate": c, "got": str(got), "want": str(want)})
    report = verify_concavity(witness)
    if not report.ok:
        issues.append({"concavity": report.witness})
    return witness, utilities, rationalizability_class(utilities, record), report, issues


def _claim_block(ballot: RankedBallot, subject: str) -> tuple[list[ClaimReport], None]:
    """Every claim's report on one census ballot, in registry order, evaluated directly.

    ``T3.full`` is decided on the full record, as ``theorem3 --full`` does,
    and the first five failing sub-records that are not all-unranked are
    ``T3.sub``'s witnesses.
    """
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
        full = _disjunction(ballot, record.pairs)
        violations = []
        for chosen, verdict in subrecord_verdicts(ballot):
            if len(violations) < 5 and not verdict.ok and not verdict.all_unranked:
                violations.append([list(p) for p in chosen])
        reports.append(ClaimReport.of("T3.full", subject, full.ok, full.to_dict()))
        reports.append(ClaimReport.of("T3.sub", subject, not violations, violations))
    else:
        reports.append(ClaimReport("T3.full", subject, VACUOUS))
        reports.append(ClaimReport("T3.sub", subject, VACUOUS))

    _, _, got_class, _, issues = _witness_check(ballot, record)
    t4 = {"issues": issues, "class": got_class, "expected": expected_class}
    reports.append(ClaimReport.of("T4", subject, not issues and got_class == expected_class, t4))
    return reports, None
