"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Stated runtime bounds are asserted with ``time.perf_counter`` around the
relevant sweeps.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from ballot_lattice import (
    ElectionProfile,
    PairRecord,
    RankedBallot,
    ballot_count,
    canonical_utility,
    concave_witness,
    covers,
    default_candidates,
    enumerate_ballots,
    exhaustive_verify,
    find_truncation_sensitive_profile,
    fixture_path,
    format_ballot,
    is_representation,
    is_submodular,
    join,
    load_profile,
    meet,
    meet_irreducibles,
    coatoms,
    pair_record,
    parse_ballot,
    rationalizability_class,
    relation_of,
    tabulate_irv,
    theorem3_check,
    truncate_ballot,
    truncation_experiment,
    verify_concavity,
)

SWEEP_SIZES = (3, 4, 5)
EXPECTED_COUNTS = {3: 9, 4: 40, 5: 205}


def conclude(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    out = {}
    for n in SWEEP_SIZES:
        start = time.perf_counter()
        summary = exhaustive_verify(n)
        out[n] = (summary, time.perf_counter() - start)
    return out


def test_criterion_1_join_semilattice_counts(sweeps):
    ok = True
    details = []
    for n in SWEEP_SIZES:
        summary, _ = sweeps[n]
        expected = EXPECTED_COUNTS[n]
        ok &= ballot_count(n) == expected
        ok &= summary.ballot_count == expected
        ok &= summary.claim("T1").holds == expected
        ok &= summary.claim("T1").fails == 0
        details.append(f"n={n} T1 {summary.claim('T1').holds}/{expected}")
    elapsed = sum(sweeps[n][1] for n in SWEEP_SIZES)
    ok &= elapsed < 10.0
    conclude(1, ok, f"{', '.join(details)}, sweeps took {elapsed:.2f}s (< 10s)")


def test_criterion_2_modularity(sweeps):
    ok = True
    for n in SWEEP_SIZES:
        summary, _ = sweeps[n]
        ok &= summary.claim("P1").holds == EXPECTED_COUNTS[n]
        ok &= summary.claim("P1").fails == 0
    elapsed5 = sweeps[5][1]
    ok &= elapsed5 < 30.0
    conclude(2, ok, f"P1 holds on 100% of ballots, n=5 sweep {elapsed5:.2f}s (< 30s)")


def test_criterion_3_remark_claims(sweeps):
    ok = True
    for n in SWEEP_SIZES:
        summary, _ = sweeps[n]
        count = EXPECTED_COUNTS[n]
        ok &= summary.claim("R1.3").holds == count and summary.claim("R1.3").fails == 0
        ok &= summary.claim("R1.4").holds == count and summary.claim("R1.4").fails == 0
        ok &= summary.claim("R1.1").fails > 0  # discrepancies are reported
        ok &= all(w["witness"] for w in summary.claim("R1.1").witnesses)
        ok &= summary.ok  # and they do not fail the run
    from ballot_lattice import check_remark1

    reports = {r.claim: r for r in check_remark1(relation_of(parse_ballot("x>y>z>a~b~c~d")))}
    ok &= reports["R1.1"].verdict == "fails"
    ok &= "y" in reports["R1.1"].witness["elements"]
    conclude(3, ok, "R1.3/R1.4 hold everywhere; R1.1/R1.2 witnessed (y included) without failing the run")


def test_criterion_4_submodular_representation(sweeps):
    ok = True
    for n in SWEEP_SIZES:
        summary, _ = sweeps[n]
        count = EXPECTED_COUNTS[n]
        ok &= summary.claim("C1.repr").holds == count
        ok &= summary.claim("C1.submod").holds == count
        ok &= summary.claim("RAT").holds == count
    # spot-replay the class rule outside the sweep machinery
    for ballot in enumerate_ballots(default_candidates(4)):
        cls = rationalizability_class(canonical_utility(ballot), pair_record(ballot))
        ok &= cls == ("strict" if ballot.is_total() else "almost_strict")
        ok &= is_representation(canonical_utility(ballot), relation_of(ballot))
        ok &= is_submodular(canonical_utility(ballot), relation_of(ballot))
    conclude(4, ok, "canonical utility is a submodular representation; class strict iff total")


def test_criterion_5_record_disjunction():
    start = time.perf_counter()
    ok = True
    full_failures = 0
    boundary_breaks = 0
    witnesses_checked = 0
    for n in (3, 4):
        for ballot in enumerate_ballots(default_candidates(n)):
            pairs = sorted(pair_record(ballot).pairs)
            full = theorem3_check(ballot, PairRecord(frozenset(pairs)))
            if full.outcome == "fails":
                full_failures += 1
            # the full-record witness search must agree with the
            # no-pruning oracle exactly
            outcome, witness = oracles.subset_disjunction_oracle(ballot, pairs)
            ok &= full.outcome == outcome
            if outcome == "disjunct2":
                ok &= tuple(full.witness) == witness
            for size in range(1, len(pairs) + 1):
                for chosen in combinations(pairs, size):
                    verdict = theorem3_check(ballot, PairRecord(frozenset(chosen)))
                    if verdict.outcome == "fails" and not verdict.all_unranked:
                        boundary_breaks += 1
                    if verdict.outcome == "disjunct2":
                        witnesses_checked += 1
                        ok &= oracles.validate_disjunct2_witness(
                            ballot, chosen, verdict.witness
                        )
                    if n == 3:
                        # complete first-witness agreement at n=3
                        outcome, witness = oracles.subset_disjunction_oracle(
                            ballot, chosen
                        )
                        ok &= verdict.outcome == outcome
                        if outcome == "disjunct2":
                            ok &= tuple(verdict.witness) == witness
    elapsed = time.perf_counter() - start
    ok &= full_failures == 0
    ok &= boundary_breaks == 0
    ok &= witnesses_checked > 0
    ok &= elapsed < 300.0
    conclude(
        5,
        ok,
        f"full records never fail; fails only on all-unranked sub-records; "
        f"{witnesses_checked} disjunct2 witnesses revalidated; {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_6_concave_witness(sweeps):
    ok = True
    for n in SWEEP_SIZES:
        summary, _ = sweeps[n]
        ok &= summary.claim("T4").holds == EXPECTED_COUNTS[n]
        ok &= summary.claim("T4").fails == 0
    for n in SWEEP_SIZES:
        for ballot in enumerate_ballots(default_candidates(n)):
            witness = concave_witness(ballot)
            k = len(ballot.ranked)
            for i, c in enumerate(ballot.ranked):
                ok &= witness.utility(c) == -Fraction(i * i)
            for c in ballot.unranked:
                ok &= witness.utility(c) == -Fraction(k * k)
            cls = rationalizability_class(witness.utilities(), pair_record(ballot))
            ok &= cls == ("strict" if ballot.is_total() else "almost_strict")
    fixture = concave_witness(parse_ballot("x>y>z>a~b~c~d"))
    values = sorted(fixture.utilities().values.values(), reverse=True)
    ok &= values == [
        Fraction(0), Fraction(-1), Fraction(-4),
        Fraction(-9), Fraction(-9), Fraction(-9), Fraction(-9),
    ]
    report = verify_concavity(fixture)
    ok &= report.ok and report.trials == 1000
    conclude(6, ok, "witness utilities exact, class almost-strict, 1000-sample concavity checks pass")


def test_criterion_7_canonical_lattice_golden():
    ballot = parse_ballot("x>y>z>a~b~c~d")
    rel = relation_of(ballot)
    edges = {(c.upper, c.lower) for c in covers(rel)}
    ok = edges == {("x", "y"), ("y", "z"), ("z", "a"), ("z", "b"), ("z", "c"), ("z", "d")}
    ok &= join(rel, "a", "b") == "z"
    ok &= meet(rel, "a", "b") is None
    ok &= coatoms(rel) == frozenset({"y"})
    ok &= len(meet_irreducibles(rel)) == 6
    conclude(7, ok, "cover edges, join(a,b)=z, absent meet(a,b), coatoms {y}, 6 meet-irreducibles")


def test_criterion_8_truncation_sensitivity():
    profile = load_profile(fixture_path())
    report = truncation_experiment(profile, [1, 2, 3])
    ok = bool(report.winner_divergence)
    winners = report.winners()
    ok &= winners[1] != winners[3]
    # the bundled fixture is exactly the first hit of the documented search
    hit = find_truncation_sensitive_profile(("a", "b", "c"), max_voters=9)
    ok &= hit is not None
    found, _ = hit
    ok &= [format_ballot(b) for _, b in found.ballots] == [
        format_ballot(b) for _, b in profile.ballots
    ]
    # both diverging tabulations replay identically on the independent counter
    for length in (1, 3):
        truncated = ElectionProfile(
            profile.candidates,
            tuple((v, truncate_ballot(b, length)) for v, b in profile.ballots),
        )
        mine = tabulate_irv(truncated)
        ref_rounds, ref_winner = oracles.irv_reference(truncated)
        ok &= mine.winner == ref_winner
        ok &= [
            (dict(r.tallies), r.eliminated, r.exhausted) for r in mine.rounds
        ] == ref_rounds
    conclude(
        8,
        ok,
        f"fixture winners diverge ({winners[1]} at L=1 vs {winners[3]} at L=3); both replays match the reference",
    )


def test_criterion_9_conservation_and_determinism():
    rng = random.Random(20260810)
    ok = True
    for _ in range(100):
        n = rng.randint(3, 6)
        universe = [f"c{i}" for i in range(n)]
        voters = rng.randint(1, 30)
        ballots = []
        for v in range(voters):
            k = rng.randint(1, n)
            ranked = rng.sample(universe, k)
            ballots.append(
                (f"v{v + 1}", RankedBallot(tuple(ranked), frozenset(universe) - set(ranked)))
            )
        profile = ElectionProfile(tuple(universe), tuple(ballots))
        result = tabulate_irv(profile)
        for rnd in result.rounds:
            ok &= sum(rnd.tallies.values()) + rnd.exhausted == len(profile.ballots)
        first = json.dumps(result.to_dict(), sort_keys=True)
        second = json.dumps(tabulate_irv(profile).to_dict(), sort_keys=True)
        ok &= first == second
    conclude(9, ok, "100 seeded profiles conserve ballots every round with byte-identical JSON")
