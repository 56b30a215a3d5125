import copy
import pickle
import random
import re
import string
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from ballot_lattice import (
    CoverPair,
    ElectionProfile,
    GrammarError,
    OrderRelation,
    RankedBallot,
    atoms,
    canonical_utility,
    coatoms,
    concave_witness,
    covers,
    default_candidates,
    enumerate_ballots,
    find_truncation_sensitive_profile,
    fixture_path,
    format_ballot,
    greatest_element,
    is_complete,
    is_partial_order,
    is_top_truncated,
    is_total,
    is_weak_order,
    join,
    join_irreducibles,
    least_element,
    load_profile,
    meet,
    meet_irreducibles,
    pair_record,
    parse_ballot,
    relation_claims,
    relation_of,
)
from ballot_lattice.order import _positions, transitivity_gap


ID_CHARS = string.ascii_letters + string.digits + "_"


def ballot_strategy(max_n=6):
    def build(args):
        cands, k = args
        return RankedBallot(tuple(cands[:k]), frozenset(cands) - set(cands[:k]))

    return (
        st.integers(1, max_n)
        .flatmap(
            lambda n: st.tuples(
                st.permutations([f"c{i}" for i in range(n)]), st.integers(1, n)
            )
        )
        .map(build)
    )


# ---------------------------------------------------------------------------
# RankedBallot construction


class TestRankedBallot:
    def test_lone_unranked_candidate_is_appended(self):
        ballot = RankedBallot(("x", "y"), frozenset({"z"}))
        assert ballot.ranked == ("x", "y", "z")
        assert ballot.unranked == frozenset()

    def test_requires_a_ranked_candidate(self):
        with pytest.raises(ValueError, match="at least one"):
            RankedBallot((), frozenset({"a", "b"}))

    def test_rejects_duplicates_and_overlap(self):
        with pytest.raises(ValueError, match="duplicate"):
            RankedBallot(("a", "a"), frozenset())
        with pytest.raises(ValueError, match="both ranked and unranked"):
            RankedBallot(("a", "b"), frozenset({"b", "c", "d"}))

    def test_rejects_bad_tokens(self):
        with pytest.raises(ValueError, match="invalid candidate id"):
            RankedBallot(("a b",), frozenset())
        with pytest.raises(ValueError, match="invalid candidate id"):
            RankedBallot(("ok",), frozenset({""}))

    def test_bare_strings_are_refused(self):
        # A string is a collection of its characters; "alice" is one id, not five.
        with pytest.raises(ValueError, match=r"invalid ranked 'alice': expected a collection"):
            RankedBallot("alice")
        with pytest.raises(ValueError, match=r"invalid unranked 'bc': expected a collection"):
            RankedBallot(("a",), "bc")


# ---------------------------------------------------------------------------
# grammar


class TestParseBallot:
    def test_chain_with_tie_tail(self, deep_ballot):
        assert deep_ballot.ranked == ("x", "y", "z")
        assert deep_ballot.unranked == frozenset({"a", "b", "c", "d"})

    def test_bare_string_universe_is_refused(self):
        with pytest.raises(ValueError, match=r"invalid candidates 'abc': expected a collection"):
            parse_ballot("a>b", "abc")

    def test_single_candidate(self):
        ballot = parse_ballot("a", candidates={"a"})
        assert ballot.ranked == ("a",)
        assert ballot.unranked == frozenset()

    def test_universe_fills_unranked_then_normalizes(self):
        # one leftover candidate is forced into the ranking
        ballot = parse_ballot("x>y", candidates={"x", "y", "z"})
        assert ballot.ranked == ("x", "y", "z")
        assert ballot.unranked == frozenset()

    def test_universe_fills_unranked(self):
        ballot = parse_ballot("x>y", candidates={"x", "y", "z", "w"})
        assert ballot.ranked == ("x", "y")
        assert ballot.unranked == frozenset({"w", "z"})

    def test_tie_group_merges_with_missing_candidates(self):
        ballot = parse_ballot("x>a~b", candidates={"x", "a", "b", "c"})
        assert ballot.unranked == frozenset({"a", "b", "c"})

    def test_tie_must_be_final(self):
        with pytest.raises(GrammarError, match="final"):
            parse_ballot("a~b>c")

    def test_tie_column_is_reported(self):
        try:
            parse_ballot("a~b>c")
        except GrammarError as err:
            assert err.column == 3

    def test_duplicate_candidate(self):
        with pytest.raises(GrammarError, match="duplicate"):
            parse_ballot("x>y>x")

    def test_empty_ids(self):
        with pytest.raises(GrammarError, match="empty"):
            parse_ballot("x>>y")
        with pytest.raises(GrammarError, match="empty"):
            parse_ballot("")
        with pytest.raises(GrammarError, match="empty"):
            parse_ballot("x>y>")

    def test_tie_group_alone(self):
        with pytest.raises(GrammarError, match="tie group alone"):
            parse_ballot("a~b~c")

    def test_unknown_candidate(self):
        with pytest.raises(GrammarError, match="unknown"):
            parse_ballot("x>q", candidates={"x", "y", "z"})

    def test_invalid_id_names_its_column(self):
        with pytest.raises(GrammarError) as err:
            parse_ballot("a>b-c")
        assert err.value.column == 3
        assert "invalid candidate id 'b-c'" in str(err.value)

    def test_each_id_checked_once(self, id_checks):
        # The grammar checks the ids in the text; a universe is checked once, in label order.
        ballot = parse_ballot("x>y>z>a~b~c~d", candidates=list("zyxdcba"))
        assert id_checks == list("abcdxyz")
        assert ballot == RankedBallot(("x", "y", "z"), frozenset("abcd"))
        id_checks.clear()
        assert parse_ballot("x>y>z>a~b~c~d") == ballot
        assert id_checks == []

    def test_whitespace_is_tolerated(self):
        ballot = parse_ballot(" x > y > a ~ b ")
        assert ballot.ranked == ("x", "y")
        assert ballot.unranked == frozenset({"a", "b"})

    @given(ballot_strategy())
    def test_round_trip(self, ballot):
        assert parse_ballot(format_ballot(ballot)) == ballot

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(ID_CHARS, min_size=1, max_size=4), min_size=1, max_size=12, unique=True)
        .flatmap(lambda ids: st.tuples(st.permutations(ids), st.integers(1, len(ids))))
    )
    def test_round_trip_on_up_to_twelve_free_form_ids(self, drawn):
        ids, k = drawn
        ballot = RankedBallot(tuple(ids[:k]), frozenset(ids[k:]))
        text = format_ballot(ballot)
        assert parse_ballot(text) == ballot
        assert parse_ballot(text, candidates=ballot.candidates) == ballot

    def test_format_golden(self, deep_ballot):
        assert format_ballot(deep_ballot) == "x>y>z>a~b~c~d"


# ---------------------------------------------------------------------------
# induced relation


class TestRelationOf:
    def test_specific_pairs(self, deep_relation):
        r = deep_relation
        assert r.holds("x", "a") and not r.holds("a", "x")
        assert r.holds("a", "b") and r.holds("b", "a")
        assert all(r.holds(c, c) for c in r.candidates)
        assert r.strictly("x", "y") and not r.strictly("y", "x")
        assert r.indifferent("a", "b") and not r.indifferent("x", "y")

    @given(ballot_strategy())
    def test_always_complete_top_truncated_weak(self, ballot):
        r = relation_of(ballot)
        assert is_weak_order(r)
        assert is_top_truncated(r)
        assert is_complete(r)

    @given(ballot_strategy())
    def test_total_iff_no_unranked(self, ballot):
        assert is_total(relation_of(ballot)) == (not ballot.unranked)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_census_against_the_four_branch_rule(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            rank = {c: i for i, c in enumerate(ballot.ranked)}
            expected = set()
            for x in ballot.candidates:
                for y in ballot.candidates:
                    if x == y:
                        expected.add((x, y))
                    elif x in rank and y in rank:
                        if rank[x] < rank[y]:
                            expected.add((x, y))
                    elif x in rank:
                        expected.add((x, y))
                    elif y not in rank:
                        expected.add((x, y))
            assert relation_of(ballot).pairs == expected

    def test_partial_order_only_without_ties(self, deep_relation):
        assert not is_partial_order(deep_relation)
        assert is_partial_order(relation_of(parse_ballot("p>q>r")))

    @staticmethod
    def assert_settled_as_checked(ballot):
        settled = relation_of(ballot)
        checked = OrderRelation(settled.candidates, settled.pairs)
        assert settled == checked
        for name in ("_above", "_below", "_gap", "_joins", "_covers"):
            assert getattr(settled, name) == getattr(checked, name), name

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_settled_relation_equals_a_checked_one_on_the_census(self, n):
        for ballot in enumerate_ballots(default_candidates(n)):
            self.assert_settled_as_checked(ballot)

    def test_settled_relation_equals_a_checked_one_up_to_the_cap(self):
        rng = random.Random(27)
        for _ in range(200):
            cands = [f"c{i}" for i in range(rng.randint(7, 12))]
            rng.shuffle(cands)
            k = rng.randint(1, len(cands))
            self.assert_settled_as_checked(RankedBallot(tuple(cands[:k]), frozenset(cands[k:])))

    def test_settled_relation_checks_no_id(self, id_checks):
        ballot = parse_ballot("a>b~c~d")
        id_checks.clear()
        relation_of(ballot)
        assert id_checks == []

    def test_cap_is_the_constructors_error(self):
        ballot = parse_ballot("a>b>c~d~e~f~g~h~i~j~k~l~m")
        message = "^candidate set of size 13 exceeds the relation cap of 12$"
        for build in (relation_of, pair_record, lambda b: OrderRelation(sorted(b.candidates), ())):
            with pytest.raises(ValueError, match=message):
                build(ballot)


class TestPositions:
    """A ballot is its positions: the weak order and both utilities read them."""

    @staticmethod
    def assert_read_from_positions(ballot):
        k = len(ballot.ranked)
        # Written out from the definition: the rank index, or k for the tail.
        want = {c: ballot.ranked.index(c) if c in ballot.ranked else k for c in ballot.candidates}
        pos = _positions(ballot)
        assert pos == want
        assert list(pos) == [*ballot.ranked, *sorted(ballot.unranked)]
        cands = sorted(ballot.candidates)
        assert relation_of(ballot).pairs == {
            (x, y) for x in cands for y in cands if want[x] <= want[y]
        }
        assert canonical_utility(ballot).values == {c: Fraction(k - want[c]) for c in cands}
        assert concave_witness(ballot).utilities().values == {
            c: Fraction(-want[c] ** 2) for c in cands
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_census(self, n):
        for ballot in enumerate_ballots(default_candidates(n)):
            self.assert_read_from_positions(ballot)

    def test_seeded_ballots_up_to_the_cap(self):
        rng = random.Random(31)
        for _ in range(200):
            cands = [f"c{i}" for i in range(rng.randint(8, 12))]
            rng.shuffle(cands)
            k = rng.randint(1, len(cands))
            self.assert_read_from_positions(RankedBallot(tuple(cands[:k]), frozenset(cands[k:])))

    def test_slot_order_under_every_hash_seed(self, stderr_by_hash_seed):
        head = (
            "import sys; from ballot_lattice import parse_ballot; "
            "from ballot_lattice.order import _positions; "
            "b = parse_ballot('m>b>k~a~j~c~l~d'); "
        )
        # The tail's set order does change with the seed, so slot order is not luck.
        assert len(stderr_by_hash_seed(head + "print(list(b.unranked), file=sys.stderr)")) > 1
        assert stderr_by_hash_seed(head + "print(list(_positions(b).items()), file=sys.stderr)") == {
            "[('m', 0), ('b', 1), ('a', 2), ('c', 2), ('d', 2), ('j', 2), ('k', 2), ('l', 2)]"
        }


# ---------------------------------------------------------------------------
# hand-built relations keep the classifiers falsifiable


def antichain(*names):
    return OrderRelation(tuple(names), frozenset())


class TestClassifiers:
    def test_antichain_is_a_sparse_partial_order(self):
        r = antichain("a", "b", "c")
        assert is_partial_order(r) and is_weak_order(r)
        assert not is_complete(r)
        assert is_total(r)  # no ties, just incomparability

    def test_tie_above_the_bottom_is_not_top_truncated(self):
        r = OrderRelation(
            ("x", "y", "z"),
            frozenset({("x", "y"), ("y", "x"), ("x", "z"), ("y", "z")}),
        )
        assert is_weak_order(r)
        assert not is_top_truncated(r)

    def test_incomparable_non_minimal_elements_break_top_truncation(self):
        # x and y both beat z but are incomparable to each other
        r = OrderRelation(("x", "y", "z"), frozenset({("x", "z"), ("y", "z")}))
        assert is_weak_order(r)
        assert not is_top_truncated(r)

    def test_non_transitive_relation_is_no_order(self):
        r = OrderRelation(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
        assert not is_weak_order(r)
        assert not is_partial_order(r)
        assert not is_top_truncated(r)

    def test_relation_dump_round_trip(self, deep_relation):
        payload = deep_relation.to_dict()
        assert payload["candidates"] == sorted(payload["candidates"])
        assert OrderRelation.from_dict(payload) == deep_relation
        assert deep_relation.digest() == relation_of(parse_ballot("x>y>z>a~b~c~d")).digest()

    @pytest.mark.parametrize(
        "pair",
        ["ab", ["a", "b", "c"], ("a", 1), ["a"]],
        ids=["string", "triple", "non-string", "single"],
    )
    def test_malformed_pairs_are_named(self, pair):
        with pytest.raises(ValueError, match=r"invalid pair .*2-element"):
            OrderRelation.from_dict({"candidates": ["a", "b"], "pairs": [pair]})
        with pytest.raises(ValueError, match=r"invalid pair .*2-element"):
            OrderRelation(("a", "b"), frozenset({pair if isinstance(pair, str) else tuple(pair)}))

    @pytest.mark.parametrize(
        "payload, message",
        [
            (["a", "b"], r"invalid relation payload \['a', 'b'\]: expected a mapping"),
            ({"pairs": []}, r"invalid relation payload: no 'candidates'"),
            ({"candidates": ["a"]}, r"invalid relation payload: no 'pairs'"),
            ({"candidates": None, "pairs": []}, r"invalid candidates None: expected a collection"),
            ({"candidates": ["a"], "pairs": None}, r"invalid pairs None: expected a collection"),
            ({"candidates": ["a"], "pairs": 3}, r"invalid pairs 3: expected a collection"),
        ],
        ids=["list", "no-candidates", "no-pairs", "null-candidates", "null-pairs", "int-pairs"],
    )
    def test_malformed_payloads_are_named(self, payload, message):
        with pytest.raises(ValueError, match=message):
            OrderRelation.from_dict(payload)

    def test_bare_string_candidates_are_refused(self):
        with pytest.raises(ValueError, match=r"invalid candidates 'abc': expected a collection"):
            OrderRelation("abc", frozenset())
        with pytest.raises(ValueError, match=r"invalid candidates 'ab': expected a collection"):
            OrderRelation.from_dict({"candidates": "ab", "pairs": []})

    def test_unknown_pair_member_is_named(self):
        with pytest.raises(ValueError, match=r"pair \('a', 'z'\) mentions an unknown candidate"):
            OrderRelation.from_dict({"candidates": ["a", "b"], "pairs": [["a", "z"]]})

    def test_empty_candidates_are_refused(self):
        with pytest.raises(ValueError, match="^a relation needs at least one candidate$"):
            OrderRelation((), ())

    def test_relation_cap(self):
        names = tuple(f"c{i:02d}" for i in range(13))
        with pytest.raises(ValueError, match="cap"):
            OrderRelation(names, frozenset())


# ---------------------------------------------------------------------------
# joins and meets


@st.composite
def hand_built_relations(draw, max_n=6):
    """Arbitrary pair subsets, so non-transitive and tied relations occur."""
    names = [f"v{i}" for i in range(draw(st.integers(1, max_n)))]
    off_diagonal = [[x, y] for x in names for y in names if x != y]
    chosen = draw(st.lists(st.sampled_from(off_diagonal), unique_by=tuple)) if off_diagonal else []
    return OrderRelation.from_dict({"candidates": names, "pairs": chosen})


CYCLE = OrderRelation(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
TIED_GAP = OrderRelation(
    ("a", "b", "c", "d"), frozenset({("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")})
)

# Not a ballot: two incomparable middles, between a greatest and a least element.
DIAMOND = OrderRelation(
    ("b", "t", "x", "y"), frozenset({("t", "x"), ("t", "y"), ("t", "b"), ("x", "b"), ("y", "b")})
)


@settings(max_examples=300, deadline=None)
@given(hand_built_relations())
@example(CYCLE)
@example(TIED_GAP)
@example(DIAMOND)
def test_hand_built_relations_match_the_oracles(r):
    assert OrderRelation.from_dict(r.to_dict()) == r
    for x in r.candidates:
        for y in r.candidates:
            assert oracles.is_least_upper_bound(r, x, y, join(r, x, y))
            assert oracles.is_greatest_lower_bound(r, x, y, meet(r, x, y))
    assert {(c.upper, c.lower) for c in covers(r)} == oracles.naive_covers(r)
    assert transitivity_gap(r) == oracles.naive_transitivity_gap(r)
    assert (least_element(r), greatest_element(r)) == oracles.naive_extremes(r)
    assert relation_claims(r, "r") == oracles.naive_relation_claims(r, "r")


CLASSIFIERS = [
    is_partial_order, is_weak_order, is_top_truncated, is_complete, is_total, transitivity_gap,
    covers, join_irreducibles, meet_irreducibles, atoms, coatoms, relation_claims,
]


@pytest.mark.parametrize(
    "build",
    [
        lambda: OrderRelation.from_dict(CYCLE.to_dict()),
        lambda: OrderRelation.from_dict(TIED_GAP.to_dict()),
        lambda: relation_of(parse_ballot("x>y>z>a~b~c~d")),
    ],
    ids=["cycle", "tied-gap", "ballot"],
)
def test_derived_tables_are_invisible(build):
    r, fresh = build(), build()
    for classify in CLASSIFIERS:
        classify(r)
    assert {"_gap", "_joins", "_covers"} <= vars(r).keys()
    assert r == fresh and hash(r) == hash(fresh) and repr(r) == repr(fresh)
    assert r.to_dict() == fresh.to_dict() and r.digest() == fresh.digest()
    for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == fresh
        assert relation_claims(twin) == relation_claims(fresh)


class TestJoinMeet:
    def test_goldens(self, deep_relation):
        r = deep_relation
        assert join(r, "a", "b") == "z"
        assert join(r, "x", "y") == "x"
        assert join(r, "c", "c") == "c"
        assert meet(r, "x", "y") == "y"
        assert meet(r, "a", "b") is None  # no lower bound below the tied tail
        assert meet(r, "c", "c") == "c"

    def test_unknown_candidate(self, deep_relation):
        with pytest.raises(ValueError, match="unknown"):
            join(deep_relation, "x", "nope")

    def test_antichain_has_no_joins(self):
        r = antichain("a", "b")
        assert join(r, "a", "b") is None
        assert oracles.is_least_upper_bound(r, "a", "b", None)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_bound_property_oracle(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            r = relation_of(ballot)
            for x in r.candidates:
                for y in r.candidates:
                    assert oracles.is_least_upper_bound(r, x, y, join(r, x, y))
                    assert oracles.is_greatest_lower_bound(r, x, y, meet(r, x, y))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_join_laws(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            r = relation_of(ballot)
            cs = r.candidates
            for x in cs:
                assert join(r, x, x) == x
                for y in cs:
                    assert join(r, x, y) == join(r, y, x)
                    for z in cs:
                        assert join(r, join(r, x, y), z) == join(r, x, join(r, y, z))


# ---------------------------------------------------------------------------
# covers and irreducibles


class TestCovers:
    def test_golden_edges(self, deep_relation):
        expected = {
            ("x", "y"),
            ("y", "z"),
            ("z", "a"),
            ("z", "b"),
            ("z", "c"),
            ("z", "d"),
        }
        assert {(c.upper, c.lower) for c in covers(deep_relation)} == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_naive_oracle(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            r = relation_of(ballot)
            assert {(c.upper, c.lower) for c in covers(r)} == oracles.naive_covers(r)

    @given(ballot_strategy(max_n=5))
    def test_covers_regenerate_the_relation(self, ballot):
        r = relation_of(ballot)
        edges = {(c.upper, c.lower) for c in covers(r)}
        reach = {(c, c) for c in r.candidates} | set(edges)
        changed = True
        while changed:
            changed = False
            for a, b in list(reach):
                for c, d in edges:
                    if b == c and (a, d) not in reach:
                        reach.add((a, d))
                        changed = True
        minimal = {
            x for x in r.candidates if not any(r.strictly(x, y) for y in r.candidates)
        }
        for x in minimal:
            for y in minimal:
                if x != y and r.indifferent(x, y):
                    reach.add((x, y))
        assert reach == set(r.pairs)


class TestIrreducibles:
    def test_deep_ballot_goldens(self, deep_relation):
        r = deep_relation
        assert join_irreducibles(r) == frozenset({"x", "y"})
        assert meet_irreducibles(r) == frozenset({"a", "b", "c", "d", "y", "z"})
        assert len(meet_irreducibles(r)) == 6  # n - 1
        assert atoms(r) == frozenset()  # tied tail: no least element
        assert coatoms(r) == frozenset({"y"})
        assert least_element(r) is None
        assert greatest_element(r) == "x"

    def test_single_ranked_ballot(self):
        r = relation_of(parse_ballot("g>a~b~c"))
        assert coatoms(r) == frozenset({"a", "b", "c"})  # m = n - 1
        assert meet_irreducibles(r) == frozenset({"a", "b", "c"})
        assert join_irreducibles(r) == frozenset()
        assert greatest_element(r) == "g"

    def test_chain(self):
        r = relation_of(parse_ballot("p>q>r"))
        assert join_irreducibles(r) == frozenset({"p", "q"})
        assert meet_irreducibles(r) == frozenset({"q", "r"})
        assert atoms(r) == frozenset({"q"})
        assert coatoms(r) == frozenset({"q"})
        assert least_element(r) == "r"
        assert greatest_element(r) == "p"

    def test_cover_pair_fields(self):
        pair = CoverPair("hi", "lo")
        assert (pair.upper, pair.lower) == ("hi", "lo")


CANDIDATE_LIST_READERS = {
    "OrderRelation": lambda ids: OrderRelation(ids, []),
    "parse_ballot": lambda ids: parse_ballot("a>b", ids),
    "load_profile": lambda ids: load_profile(fixture_path(), candidates=ids),
    "ElectionProfile": lambda ids: ElectionProfile(ids, []),
    "enumerate_ballots": enumerate_ballots,
    "find_truncation_sensitive_profile": find_truncation_sensitive_profile,
}


@pytest.mark.parametrize("bad", [1, ["c"], "d-e"], ids=["non_string", "unhashable", "malformed"])
@pytest.mark.parametrize("read", CANDIDATE_LIST_READERS.values(), ids=CANDIDATE_LIST_READERS)
def test_every_candidate_list_reader_names_an_invalid_id(read, bad):
    with pytest.raises(ValueError, match=re.escape(f"invalid candidate id {bad!r}")):
        read(["a", "b", bad])
