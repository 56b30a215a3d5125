import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from ballot_lattice import (
    ALL_SUBSETS_CAP,
    OrderRelation,
    PairRecord,
    RankedBallot,
    SpatialWitness,
    UtilityAssignment,
    canonical_utility,
    concave_witness,
    enumerate_ballots,
    extreme_points,
    is_representation,
    is_submodular,
    join,
    meet,
    pair_record,
    parse_ballot,
    rationalizability_class,
    relation_of,
    subrecord_verdicts,
    theorem3_check,
    verify_concavity,
)
from ballot_lattice.representation import _first_out_of_position


class TestCanonicalUtility:
    def test_deep_ballot(self, deep_ballot):
        util = canonical_utility(deep_ballot)
        assert util.to_dict() == {
            "a": "0", "b": "0", "c": "0", "d": "0", "x": "3", "y": "2", "z": "1",
        }

    def test_two_candidate_chain(self):
        assert canonical_utility(parse_ballot("p>q")).to_dict() == {"p": "2", "q": "1"}

    def test_single_ranked(self):
        assert canonical_utility(parse_ballot("g>a~b")).to_dict() == {
            "a": "0", "b": "0", "g": "1",
        }


class TestUtilityAssignment:
    def test_membership_reads_the_candidates(self):
        u = canonical_utility(parse_ballot("a>b~c"))
        assert "a" in u
        assert "z" not in u


class TestRepresentation:
    def test_canonical_is_a_representation(self, deep_ballot, deep_relation):
        assert is_representation(canonical_utility(deep_ballot), deep_relation)

    def test_inverted_utility_is_not(self, deep_relation):
        util = UtilityAssignment({c: 0 for c in deep_relation.candidates})
        flipped = dict(util.values)
        flipped["y"], flipped["x"] = Fraction(5), Fraction(1)
        assert not is_representation(UtilityAssignment(flipped), deep_relation)

    def test_utility_tying_a_strict_pair_is_not(self):
        # weak preference holds on every pair; only the strict a > b is violated
        tied = UtilityAssignment({"a": 2, "b": 2, "c": 0})
        assert not is_representation(tied, relation_of(parse_ballot("a>b>c")))

    def test_weakly_decreasing_in_rank(self, deep_ballot):
        util = canonical_utility(deep_ballot)
        ranks = [util[c] for c in deep_ballot.ranked]
        assert all(a > b for a, b in zip(ranks, ranks[1:]))
        assert all(util[c] == 0 for c in deep_ballot.unranked)


class TestSubmodular:
    def test_canonical_on_deep_ballot(self, deep_ballot, deep_relation):
        assert is_submodular(canonical_utility(deep_ballot), deep_relation)

    def test_chain_pairs_collapse_to_equality(self):
        ballot = parse_ballot("p>q>r")
        rel = relation_of(ballot)
        util = canonical_utility(ballot)
        assert util["r"] + util["p"] == util["p"] + util["r"]
        assert is_submodular(util, rel)

    def test_diamond_counterexample(self):
        rel = OrderRelation(
            ("b", "p", "q", "t"),
            frozenset({("t", "p"), ("t", "q"), ("t", "b"), ("p", "b"), ("q", "b")}),
        )
        bad = UtilityAssignment({"t": 5, "b": 0, "p": 1, "q": 1})
        assert not is_submodular(bad, rel)
        fine = UtilityAssignment({"t": 2, "b": 0, "p": 1, "q": 1})
        assert is_submodular(fine, rel)

    def test_meet_without_join_fails(self):
        # x and y both beat z: their meet is z, but nothing sits above both
        rel = OrderRelation(("x", "y", "z"), frozenset({("x", "z"), ("y", "z")}))
        assert meet(rel, "x", "y") == "z" and join(rel, "x", "y") is None
        assert not is_submodular(UtilityAssignment({"x": 1, "y": 1, "z": 0}), rel)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_census_canonical_always_submodular(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            assert is_submodular(canonical_utility(ballot), relation_of(ballot))


class TestPairRecord:
    def test_rejects_reflexive_pairs(self):
        with pytest.raises(ValueError, match="reflexive"):
            PairRecord(frozenset({("a", "a")}))

    def test_ties_contribute_both_directions(self, deep_ballot):
        record = pair_record(deep_ballot)
        assert ("a", "b") in record.pairs and ("b", "a") in record.pairs
        assert ("x", "y") in record.pairs and ("y", "x") not in record.pairs
        k, m = 3, 4
        strict = k * (k - 1) // 2 + k * m
        assert len(record) == strict + m * (m - 1)

    def test_singleton_record(self):
        record = PairRecord(frozenset({("p", "q")}))
        assert record.pairs == frozenset({("p", "q")}) and len(record) == 1

    def test_empty_record(self):
        record = PairRecord(frozenset())
        assert record.pairs == frozenset() and len(record) == 0

    @pytest.mark.parametrize(
        "pair", ["bc", ("a", "b", "c"), ("a", 1)], ids=["string", "triple", "non-string"]
    )
    def test_malformed_pairs_are_named(self, pair):
        with pytest.raises(ValueError, match=r"invalid pair .*2-element"):
            PairRecord(frozenset({pair}))


class TestRationalizabilityClass:
    def test_total_order_is_strict(self):
        ballot = parse_ballot("p>q>r")
        assert rationalizability_class(canonical_utility(ballot), pair_record(ballot)) == "strict"

    def test_ties_cap_at_almost_strict(self, deep_ballot):
        cls = rationalizability_class(canonical_utility(deep_ballot), pair_record(deep_ballot))
        assert cls == "almost_strict"

    def test_constant_utility_is_rationalizable(self, deep_ballot):
        util = UtilityAssignment({c: 0 for c in deep_ballot.candidates})
        assert rationalizability_class(util, pair_record(deep_ballot)) == "rationalizable"

    def test_violating_utility_is_none(self, deep_ballot):
        values = {c: Fraction(0) for c in deep_ballot.candidates}
        values["y"] = Fraction(9)  # beats x, contradicting x > y
        util = UtilityAssignment(values)
        assert rationalizability_class(util, pair_record(deep_ballot)) == "none"


class TestExtremePoints:
    def test_whole_candidate_set(self, deep_ballot):
        assert extreme_points(deep_ballot, deep_ballot.candidates) == frozenset("abcdx")

    def test_ranked_only_subset(self, deep_ballot):
        assert extreme_points(deep_ballot, {"x", "y", "z"}) == frozenset({"x", "z"})

    def test_all_unranked_subset_is_empty(self, deep_ballot):
        assert extreme_points(deep_ballot, {"a", "b"}) == frozenset()

    def test_singletons(self, deep_ballot):
        assert extreme_points(deep_ballot, {"x"}) == frozenset({"x"})
        assert extreme_points(deep_ballot, {"a"}) == frozenset()

    def test_unknown_candidate(self, deep_ballot):
        with pytest.raises(ValueError, match="unknown"):
            extreme_points(deep_ballot, {"x", "nope"})

    def test_bare_string_subset_is_refused(self):
        # "xy" would otherwise read as the two ids x and y.
        ballot = parse_ballot("x>y>a~b")
        with pytest.raises(ValueError) as err:
            extreme_points(ballot, "xy")
        assert str(err.value) == "invalid subset 'xy': expected a collection of candidate ids"


class TestTheorem3Check:
    def test_strict_pairs_hit_disjunct1(self, deep_ballot):
        verdict = theorem3_check(
            deep_ballot, PairRecord(frozenset({("x", "y"), ("x", "z"), ("y", "z")}))
        )
        assert verdict.outcome == "disjunct1"
        assert verdict.witness == "z"
        assert not verdict.all_unranked

    def test_full_record_hits_disjunct2_with_all_mutual_pairs(self, deep_ballot):
        verdict = theorem3_check(deep_ballot, pair_record(deep_ballot))
        assert verdict.outcome == "disjunct2"
        mutual = {(p, q) for p in "abcd" for q in "abcd" if p != q}
        assert set(verdict.witness) == mutual
        assert oracles.validate_disjunct2_witness(
            deep_ballot, pair_record(deep_ballot).pairs, verdict.witness
        )

    def test_all_unranked_record_fails_and_is_tagged(self, deep_ballot):
        verdict = theorem3_check(deep_ballot, PairRecord(frozenset({("a", "b"), ("b", "a")})))
        assert verdict.outcome == "fails"
        assert verdict.witness is None
        assert verdict.all_unranked

    def test_cycle_among_unranked_is_balanced(self):
        # one-directional cycle: sources and targets coincide without any
        # mutual pair, so the enumeration base must cover it
        ballot = parse_ballot("a>b~c~d")
        sub = PairRecord(frozenset({("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")}))
        verdict = theorem3_check(ballot, sub)
        assert verdict.outcome == "disjunct2"
        assert set(verdict.witness) == {("b", "c"), ("c", "d"), ("d", "b")}

    def test_empty_record_rejected(self, deep_ballot):
        with pytest.raises(ValueError, match="nonempty"):
            theorem3_check(deep_ballot, PairRecord(frozenset()))

    def test_foreign_pairs_rejected(self, deep_ballot):
        with pytest.raises(ValueError, match="not on the ballot"):
            theorem3_check(deep_ballot, PairRecord(frozenset({("y", "x")})))

    def test_six_unranked_past_the_old_subset_cap(self):
        ballot = parse_ballot("r>u1~u2~u3~u4~u5~u6")
        verdict = theorem3_check(ballot, pair_record(ballot))
        unranked = sorted(ballot.unranked)
        assert verdict.outcome == "disjunct2"
        assert verdict.witness == tuple((x, y) for x in unranked for y in unranked if x != y)
        assert len(verdict.witness) == 30

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_no_pruning_oracle_on_every_subrecord(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            pairs = sorted(pair_record(ballot).pairs)
            for size in range(1, len(pairs) + 1):
                for chosen in combinations(pairs, size):
                    verdict = theorem3_check(ballot, PairRecord(frozenset(chosen)))
                    outcome, witness = oracles.subset_disjunction_oracle(ballot, chosen)
                    assert verdict.outcome == outcome
                    if outcome == "disjunct1":
                        assert verdict.witness == witness
                    elif outcome == "disjunct2":
                        assert tuple(verdict.witness) == witness

    def test_verdict_to_dict(self, deep_ballot):
        verdict = theorem3_check(deep_ballot, PairRecord(frozenset({("a", "b"), ("b", "a")})))
        assert verdict.to_dict() == {
            "disjunct": "fails",
            "witness": None,
            "all_unranked": True,
        }


class TestSourceSetSearch:
    @pytest.mark.parametrize("n", [5, 6])
    def test_agrees_with_no_pruning_oracle_on_random_subrecords(self, n):
        # Records of at most 12 pairs keep the oracle's 2^pairs walk cheap;
        # unranked-to-unranked pairs are kept more often so that balanced
        # sub-records and failures both turn up.
        rng = random.Random(n)
        ballots = [b for b in enumerate_ballots([f"c{i}" for i in range(n)]) if b.unranked]
        outcomes = set()
        checked = 0
        while checked < 150:
            ballot = rng.choice(ballots)
            chosen = [
                (x, y)
                for x, y in sorted(pair_record(ballot).pairs)
                if rng.random() < (0.6 if {x, y} <= ballot.unranked else 0.1)
            ]
            if not chosen or len(chosen) > 12:
                continue
            checked += 1
            verdict = theorem3_check(ballot, PairRecord(frozenset(chosen)))
            expected = oracles.subset_disjunction_oracle(ballot, chosen)
            outcomes.add(expected[0])
            assert (verdict.outcome, verdict.witness) == expected
            assert verdict.all_unranked == all(
                c in ballot.unranked for pair in chosen for c in pair
            )
        assert outcomes == {"disjunct1", "disjunct2", "fails"}

    def test_worst_case_witness_is_every_unranked_pair(self):
        ballot = parse_ballot("a>b~c~d~e~f")
        verdict = theorem3_check(ballot, pair_record(ballot))
        expected = tuple((x, y) for x in "bcdef" for y in "bcdef" if x != y)
        assert len(expected) == 20
        assert verdict.outcome == "disjunct2"
        assert verdict.witness == expected

    def test_fewest_pairs_win_over_fewest_sources(self):
        # Both {b, c, d} (all six pairs) and the 4-cycle on {e, f, g, h} are
        # balanced and detached; the subset order is size first, so the
        # cycle's four pairs beat the smaller source set.
        ballot = parse_ballot("a>b~c~d~e~f~g~h")
        dense = [(x, y) for x in "bcd" for y in "bcd" if x != y]
        cycle = [("e", "f"), ("f", "g"), ("g", "h"), ("h", "e")]
        chosen = sorted([("a", "b")] + dense + cycle)
        verdict = theorem3_check(ballot, PairRecord(frozenset(chosen)))
        assert verdict.outcome == "disjunct2"
        assert verdict.witness == tuple(cycle)
        assert oracles.subset_disjunction_oracle(ballot, chosen) == ("disjunct2", verdict.witness)


class TestClosureSearch:
    @pytest.mark.parametrize("n", range(7, 13))
    def test_agrees_with_source_set_oracle_past_the_old_cap(self, n):
        # Up to 11 unranked candidates (110 unranked pairs); the source-set
        # oracle tries all 2^11 source sets.
        rng = random.Random(n)
        names = [f"c{i}" for i in range(n)]
        outcomes = set()
        for _ in range(40):
            order = rng.sample(names, n)
            k = rng.randint(1, n - 2)
            ballot = RankedBallot(tuple(order[:k]), frozenset(order[k:]))
            keep = rng.choice([0.3, 0.6, 0.9])
            chosen = [
                (x, y)
                for x, y in sorted(pair_record(ballot).pairs)
                if rng.random() < (keep if {x, y} <= ballot.unranked else 0.1)
            ]
            if not chosen:
                continue
            verdict = theorem3_check(ballot, PairRecord(frozenset(chosen)))
            expected = oracles.source_set_disjunction_oracle(ballot, chosen)
            outcomes.add(expected[0])
            assert (verdict.outcome, verdict.witness) == expected
            if verdict.outcome == "disjunct2":
                assert oracles.validate_disjunct2_witness(ballot, chosen, verdict.witness)
        assert "disjunct2" in outcomes


class TestSubrecordVerdicts:
    def test_every_subrecord_in_subset_order(self):
        ballot = parse_ballot("a>b~c")
        pairs = sorted(pair_record(ballot).pairs)
        expected = [
            chosen for size in range(1, len(pairs) + 1) for chosen in combinations(pairs, size)
        ]
        swept = list(subrecord_verdicts(ballot))
        assert [chosen for chosen, _ in swept] == expected
        for chosen, verdict in swept:
            assert verdict == theorem3_check(ballot, PairRecord(frozenset(chosen)))

    def test_record_over_the_cap_is_refused_on_the_call(self, relation_builds):
        ballot = parse_ballot("a>b~c~d~e~f")
        assert len(pair_record(ballot)) == 25
        relation_builds.clear()
        with pytest.raises(ValueError, match="25 pairs exceeds the cap of 16"):
            subrecord_verdicts(ballot)  # not iterated: the refusal comes first
        assert len(relation_builds) == 1

    def test_record_at_the_cap_is_swept(self):
        ballot = parse_ballot("a>b~c~d~e")
        assert len(pair_record(ballot)) == ALL_SUBSETS_CAP == 16
        chosen, verdict = next(subrecord_verdicts(ballot))
        assert verdict == theorem3_check(ballot, PairRecord(frozenset(chosen)))


# One ballot per shape on 1..5 candidates, each with its positions written out:
# the rank index for ranked candidates, the ranked count for the tail.
T3_SHAPE_POSITIONS = {
    "a": {"a": 0},
    "a>b": {"a": 0, "b": 1},
    "a>b>c": {"a": 0, "b": 1, "c": 2},
    "a>b~c": {"a": 0, "b": 1, "c": 1},
    "a>b>c>d": {"a": 0, "b": 1, "c": 2, "d": 3},
    "a>b>c~d": {"a": 0, "b": 1, "c": 2, "d": 2},
    "a>b~c~d": {"a": 0, "b": 1, "c": 1, "d": 1},
    "a>b>c>d>e": {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4},
    "a>b>c>d~e": {"a": 0, "b": 1, "c": 2, "d": 3, "e": 3},
    "a>b>c~d~e": {"a": 0, "b": 1, "c": 2, "d": 2, "e": 2},
    "a>b~c~d~e": {"a": 0, "b": 1, "c": 1, "d": 1, "e": 1},
}


def test_every_shape_through_five_candidates_is_listed():
    shapes = {
        (len(b.ranked), len(b.unranked))
        for n in range(1, 6)
        for b in enumerate_ballots([f"c{i}" for i in range(n)])
    }
    listed = {(len(b.ranked), len(b.unranked)) for b in map(parse_ballot, T3_SHAPE_POSITIONS)}
    assert listed == shapes


@pytest.mark.parametrize("text", T3_SHAPE_POSITIONS)
def test_t3_sweep_facts_by_position(text):
    # The record is exactly the pairs whose source sits no later, so no pair
    # is out of position, and a sub-record fails exactly when every member
    # sits in the unranked tail.
    ballot = parse_ballot(text)
    pos = T3_SHAPE_POSITIONS[text]
    assert pair_record(ballot).pairs == {
        (x, y) for x in pos for y in pos if x != y and pos[x] <= pos[y]
    }
    assert _first_out_of_position(ballot, pair_record(ballot).pairs) is None
    tail = len(ballot.ranked)
    for chosen, verdict in subrecord_verdicts(ballot):
        all_unranked = all(pos[c] == tail for pair in chosen for c in pair)
        assert verdict.all_unranked == all_unranked
        assert verdict.ok != all_unranked


def relabeled(ballot):
    """The ballot with its labels reversed, so that label order differs from slot order."""
    names = sorted(ballot.candidates)
    swap = dict(zip(names, reversed(names)))
    ranked = tuple(swap[c] for c in ballot.ranked)
    return RankedBallot(ranked, frozenset(swap[c] for c in ballot.unranked))


class TestFirstOutOfPosition:
    @pytest.mark.parametrize("text", T3_SHAPE_POSITIONS)
    def test_the_argument_equals_the_walk_on_relabeled_ballots(self, text):
        # test_t3_sweep_facts_by_position checks each shape as listed; here
        # label order differs from slot order.  No pair is out of position
        # exactly when the walk finds no failing sub-record that is not
        # all-unranked.
        ballot = relabeled(parse_ballot(text))
        stray = _first_out_of_position(ballot, pair_record(ballot).pairs)
        walk_holds = all(v.ok or v.all_unranked for _, v in subrecord_verdicts(ballot))
        assert (stray is None) == walk_holds

    @pytest.mark.parametrize(
        "pairs, stray",
        [
            ({("a", "b"), ("c", "a")}, ["c", "a"]),  # (i): unranked to ranked
            ({("a", "b"), ("b", "a")}, ["b", "a"]),  # (ii): ranked to one ranked above
            ({("d", "b"), ("c", "a"), ("b", "a")}, ["b", "a"]),  # several: the first sorted
            ({("d", "c"), ("c", "a"), ("a", "d")}, ["c", "a"]),  # in-position pairs skipped
            ({("a", "b"), ("b", "c"), ("c", "d"), ("d", "c")}, None),  # downward and tied
        ],
    )
    def test_hand_built_pair_sets(self, pairs, stray):
        assert _first_out_of_position(parse_ballot("a>b>c~d"), pairs) == stray


class TestConcaveWitness:
    def test_total_order_line_embedding(self):
        witness = concave_witness(parse_ballot("p>q>r"))
        assert witness.dimension == 1
        assert witness.points["p"] == (Fraction(0),)
        assert witness.points["q"] == (Fraction(1),)
        assert witness.points["r"] == (Fraction(2),)
        assert witness.utilities().to_dict() == {"p": "0", "q": "-1", "r": "-4"}

    def test_deep_ballot_values(self, deep_ballot):
        witness = concave_witness(deep_ballot)
        assert witness.dimension == 4
        expected = {"x": "0", "y": "-1", "z": "-4", "a": "-9", "b": "-9", "c": "-9", "d": "-9"}
        assert witness.utilities().to_dict() == expected

    def test_two_unranked_are_antipodal(self):
        witness = concave_witness(parse_ballot("g>a~b"))
        assert witness.dimension == 2
        assert witness.points["a"] == (Fraction(0), Fraction(1))
        assert witness.points["b"] == (Fraction(0), Fraction(-1))
        assert witness.utilities().to_dict() == {"a": "-1", "b": "-1", "g": "0"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_census_geometry_invariants(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            witness = concave_witness(ballot)
            k = len(ballot.ranked)
            assert witness.dimension == max(1, len(ballot.unranked))
            assert len(set(witness.points.values())) == len(witness.points)
            for i, c in enumerate(ballot.ranked):
                assert witness.utility(c) == -Fraction(i * i)
            for c in ballot.unranked:
                assert witness.utility(c) == -Fraction(k * k)
            if ballot.unranked:
                assert Fraction(k) > Fraction(k - 1)  # tail strictly below the chain
            cls = rationalizability_class(witness.utilities(), pair_record(ballot))
            assert cls == ("strict" if ballot.is_total() else "almost_strict")

    def test_distinct_points_enforced(self):
        with pytest.raises(ValueError, match="distinct"):
            SpatialWitness(1, (0,), {"a": (1,), "b": (1,)})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            SpatialWitness(2, (0, 0), {"a": (1,)})

    def test_peak_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="peak dimension mismatch"):
            SpatialWitness(2, (0,), {"a": (0, 0)})

    def test_to_dict_serializes_rationals(self, deep_ballot):
        payload = concave_witness(deep_ballot).to_dict()
        assert payload["points"]["c"] == ["0", "-9/5", "12/5", "0"]
        assert payload["peak"] == ["0", "0", "0", "0"]


class TestVerifyConcavity:
    def test_deep_ballot_thousand_trials(self, deep_ballot):
        report = verify_concavity(concave_witness(deep_ballot))
        assert report.ok and report.trials == 1000
        assert bool(report)

    def test_single_point_hull_is_degenerate(self):
        report = verify_concavity(concave_witness(parse_ballot("only")))
        assert report.ok and report.trials == 0

    def test_points_within_the_old_rejection_radius_are_sampled(self):
        # Every draw here lies within 1e-9 of every other; such draws used to
        # be resampled forever.
        witness = SpatialWitness(1, (0,), {"a": (0,), "b": (Fraction(1, 10**12),)})
        assert verify_concavity(witness).to_dict() == {
            "ok": True, "trials": 1000, "witness": None
        }

    def test_points_that_round_to_one_are_degenerate(self):
        witness = SpatialWitness(1, (0,), {"a": (0,), "b": (Fraction(1, 10**400),)})
        report = verify_concavity(witness)
        assert report.ok and report.trials == 0

    def test_deterministic(self, deep_ballot):
        witness = concave_witness(deep_ballot)
        assert verify_concavity(witness) == verify_concavity(witness)

    def test_report_to_dict(self):
        report = verify_concavity(concave_witness(parse_ballot("p>q")))
        assert report.to_dict() == {"ok": True, "trials": 1000, "witness": None}
