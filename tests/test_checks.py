import copy
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ballot_lattice import (
    ClaimReport,
    ConcavityReport,
    DisjunctionVerdict,
    OrderRelation,
    RankedBallot,
    SpatialWitness,
    atoms,
    check_remark1,
    concave_witness,
    enumerate_ballots,
    format_ballot,
    is_complete,
    is_join_semilattice,
    is_modular,
    is_top_truncated,
    is_total,
    join,
    join_irreducibles,
    meet_irreducibles,
    parse_ballot,
    relation_claims,
    relation_of,
)
from ballot_lattice import checks
from ballot_lattice.checks import carry_or_evaluate
from test_order import hand_built_relations


def relation(names, pairs):
    return OrderRelation(tuple(names), frozenset(pairs))


class TestJoinSemilattice:
    def test_deep_ballot_holds(self, deep_relation):
        report = is_join_semilattice(deep_relation)
        assert report.verdict == "holds" and report.ok

    def test_antichain_fails_with_first_pair(self):
        report = is_join_semilattice(relation("abc", []))
        assert report.verdict == "fails"
        assert report.witness == {"kind": "missing_join", "pair": ["a", "b"]}
        # the witness replays against the base operator
        assert join(relation("abc", []), "a", "b") is None

    def test_non_transitive_relation_fails(self):
        r = relation("abc", [("a", "b"), ("b", "c")])
        report = is_join_semilattice(r)
        assert report.verdict == "fails"
        assert report.witness["kind"] == "not_transitive"
        x, y, z = report.witness["triple"]
        assert r.holds(x, y) and r.holds(y, z) and not r.holds(x, z)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_census_ballot_holds(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            assert is_join_semilattice(relation_of(ballot)).verdict == "holds"

    def test_subject_defaults_to_digest(self, deep_relation):
        assert is_join_semilattice(deep_relation).subject.startswith("rel:")
        assert is_join_semilattice(deep_relation, "label").subject == "label"


class TestModular:
    def test_deep_ballot_holds(self, deep_relation):
        assert is_modular(deep_relation).verdict == "holds"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_census_ballot_holds(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            assert is_modular(relation_of(ballot)).verdict == "holds"

    def test_tie_at_the_top_fails_on_a_missing_join(self):
        # x ~ y above z: the conclusion needs join(x, y), which does not exist
        r = relation(
            ("x", "y", "z"),
            [("x", "y"), ("y", "x"), ("x", "z"), ("y", "z")],
        )
        report = is_modular(r)
        assert report.verdict == "fails"
        assert report.witness["kind"] == "missing_join"
        x, _, z = report.witness["triple"]
        assert join(r, x, z) is None or join(r, report.witness["triple"][1], z) is None

    def test_incomparable_pair_is_skipped_not_failed(self):
        # a diamond: top t over incomparable p, q over bottom b; modular here
        r = relation(
            ("b", "p", "q", "t"),
            [("t", "p"), ("t", "q"), ("t", "b"), ("p", "b"), ("q", "b")],
        )
        assert is_modular(r).verdict == "holds"


class TestRemark1:
    def test_deep_ballot(self, deep_relation):
        reports = {rep.claim: rep for rep in check_remark1(deep_relation)}
        assert reports["R1.1"].verdict == "fails"
        assert reports["R1.1"].witness["elements"] == ["x", "y"]
        assert "y" in reports["R1.1"].witness["elements"]
        assert reports["R1.2"].verdict == "fails"
        assert reports["R1.3"].verdict == "holds"
        assert reports["R1.4"].verdict == "holds"

    def test_r11_witness_replays(self, deep_relation):
        report = {rep.claim: rep for rep in check_remark1(deep_relation)}["R1.1"]
        for element in report.witness["elements"]:
            assert element in join_irreducibles(deep_relation)
            assert element not in atoms(deep_relation)

    def test_chain_of_three(self):
        # the chain's top is join-irreducible but covers only the middle,
        # not the least element, so R1.1 fails here too
        reports = {rep.claim: rep for rep in check_remark1(relation_of(parse_ballot("p>q>r")))}
        assert reports["R1.1"].verdict == "fails"
        assert reports["R1.1"].witness["elements"] == ["p"]
        assert reports["R1.2"].verdict == "holds"
        assert reports["R1.3"].verdict == "holds"
        assert reports["R1.4"].verdict == "holds"

    def test_chain_of_two_holds_everywhere(self):
        reports = {rep.claim: rep for rep in check_remark1(relation_of(parse_ballot("p>q")))}
        assert all(rep.verdict == "holds" for rep in reports.values())

    def test_single_ranked_ballot_is_vacuous_on_irreducibles(self):
        reports = {rep.claim: rep for rep in check_remark1(relation_of(parse_ballot("g>a~b~c")))}
        assert reports["R1.1"].verdict == "vacuous"
        assert reports["R1.2"].verdict == "vacuous"
        assert reports["R1.3"].verdict == "holds"
        assert reports["R1.4"].verdict == "holds"

    def test_r13_failure_carries_counts(self):
        # an antichain has no covers at all, so no meet-irreducibles
        reports = {rep.claim: rep for rep in check_remark1(relation("abc", []))}
        assert reports["R1.3"].verdict == "fails"
        witness = reports["R1.3"].witness
        assert witness["count"] == 0 and witness["expected"] == 2
        assert len(meet_irreducibles(relation("abc", []))) == witness["count"]
        assert reports["R1.4"].verdict == "fails"

    def test_incomplete_top_truncated_relation_fails_r12(self):
        #  x > y with an isolated z: join-irreducible x exists, not total order
        r = relation(("x", "y", "z"), [("x", "y")])
        reports = {rep.claim: rep for rep in check_remark1(r)}
        assert reports["R1.2"].verdict == "fails"
        pair = tuple(reports["R1.2"].witness["pair"])
        assert not r.strictly(*pair) and not r.strictly(*reversed(pair))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_census_r13_r14_always_hold(self, n):
        for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
            reports = {rep.claim: rep for rep in check_remark1(relation_of(ballot))}
            assert reports["R1.3"].verdict == "holds"
            assert reports["R1.4"].verdict == "holds"


class TestClaimReport:
    def test_to_dict(self):
        report = ClaimReport("T1", "subj", "fails", {"pair": ["a", "b"]})
        assert report.to_dict() == {
            "claim": "T1",
            "subject": "subj",
            "verdict": "fails",
            "witness": {"pair": ["a", "b"]},
        }
        assert not report.ok


class TestClaimReportOf:
    WITNESS = {"kind": "missing_join", "pair": ["a", "b"]}

    def test_ok_holds_and_drops_the_witness(self):
        report = ClaimReport.of("T1", "subj", True, self.WITNESS)
        assert report == ClaimReport("T1", "subj", "holds")
        assert report.witness is None and report.ok

    def test_not_ok_fails_with_the_witness(self):
        report = ClaimReport.of("T1", "subj", False, self.WITNESS)
        assert report == ClaimReport("T1", "subj", "fails", self.WITNESS)
        assert report.witness is self.WITNESS and not report.ok

    def test_witness_defaults_to_none(self):
        assert ClaimReport.of("C1.repr", "subj", True) == ClaimReport("C1.repr", "subj", "holds")
        assert ClaimReport.of("C1.repr", "subj", False) == ClaimReport("C1.repr", "subj", "fails")

    def test_falsy_witness_is_kept_on_failure(self):
        assert ClaimReport.of("T3.sub", "subj", False, []).witness == []


def assert_witness_exactly_on_failure(reports):
    for report in reports:
        assert (report.witness is None) == (report.verdict != "fails"), report


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_reports_have_a_witness_exactly_when_they_fail(n):
    for ballot in enumerate_ballots([f"c{i}" for i in range(n)]):
        assert_witness_exactly_on_failure(relation_claims(relation_of(ballot)))


@settings(max_examples=300, deadline=None)
@given(hand_built_relations())
def test_hand_built_reports_have_a_witness_exactly_when_they_fail(r):
    assert_witness_exactly_on_failure(relation_claims(r))


def relabeled_ballot_strategy(max_n=8):
    """A ballot plus a random relabeling of its candidates."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.permutations("abcdefgh"[:n]), st.integers(1, n), st.permutations("abcdefgh"[:n])
        )
    )


class TestRelationClaims:
    def test_bundle_order(self, deep_relation):
        reports = relation_claims(deep_relation, "s")
        assert [r.claim for r in reports] == ["T1", "P1", "R1.1", "R1.2", "R1.3", "R1.4"]
        assert reports == [
            is_join_semilattice(deep_relation, "s"),
            is_modular(deep_relation, "s"),
            *check_remark1(deep_relation, "s"),
        ]

    @given(relabeled_ballot_strategy())
    def test_relabeling_equivariance(self, drawn):
        order, k, image = drawn
        sigma = dict(zip(sorted(order), image))
        ballot = RankedBallot(tuple(order[:k]), frozenset(order[k:]))
        moved = RankedBallot(
            tuple(sigma[c] for c in ballot.ranked), frozenset(sigma[c] for c in ballot.unranked)
        )
        r, s = relation_of(ballot), relation_of(moved)
        for flag in (is_top_truncated, is_complete, is_total):
            assert flag(r) == flag(s)
        before, after = relation_claims(r, "x"), relation_claims(s, "x")
        assert [(a.claim, a.verdict) for a in before] == [(b.claim, b.verdict) for b in after]
        for a, b in zip(before, after):
            if a.witness is not None and "elements" in a.witness:
                elements = sorted(sigma[c] for c in a.witness["elements"])
                assert b.witness == {**a.witness, "elements": elements}

    @given(relabeled_ballot_strategy())
    def test_relabeled_onto_a_ballot_of_the_same_shape(self, drawn):
        # the rows of a shape's plan on another ballot of that shape are
        # the other ballot's own reports
        order, k, image = drawn
        source = RankedBallot(tuple(order[:k]), frozenset(order[k:]))
        target = RankedBallot(tuple(image[:k]), frozenset(image[k:]))
        rows, calls = carried([source, target], claims_of)
        assert calls == [format_ballot(source)]
        assert rows[1] == [r.to_dict() for r in claims_of(target, format_ballot(target))[0]]

    def test_relabeled_declines_label_chosen_witnesses(self):
        antichain = relation("abc", [])
        tied_top = relation("abc", [("a", "c"), ("b", "c"), ("a", "b"), ("b", "a")])
        assert is_modular(tied_top).verdict == "fails"
        for report in (is_join_semilattice(antichain), is_modular(tied_top)):
            assert evaluated_directly(report) == ONE_SHAPE

    @pytest.mark.parametrize(
        "claim,witness",
        [
            ("RAT", {"expected": "almost_strict", "got": "strict"}),
            ("T4", {"issues": [], "class": "strict", "expected": "almost_strict"}),
            ("T3.sub", [[["b", "c"]], [["c", "b"]]]),
            ("T3.full", {"disjunct": "fails", "witness": None, "all_unranked": False}),
        ],
        ids=["rat-classes", "t4-issues", "t3-sub-records", "t3-full-verdict"],
    )
    def test_relabeled_declines_witnesses_it_does_not_know(self, claim, witness):
        assert evaluated_directly(ClaimReport(claim, "s", "fails", witness)) == ONE_SHAPE


#: Three ballots of shape (1, 2).
ONE_SHAPE = ["a>b~c", "c>a~b", "b>a~c"]


def claims_of(ballot, subject):
    return relation_claims(relation_of(ballot), subject), None


def carried(ballots, evaluate):
    """Each ballot's rows from one run of ``carry_or_evaluate``, and the subjects it evaluated."""
    calls = []

    def counted(ballot, subject):
        calls.append(subject)
        return evaluate(ballot, subject)

    sources: dict = {}
    rows = [carry_or_evaluate(sources, b, format_ballot(b), counted)[0] for b in ballots]
    return rows, calls


def evaluated_directly(report):
    """The ballots of ``ONE_SHAPE`` evaluated directly when each evaluation gives ``report``."""

    def direct(subject):
        return ClaimReport(report.claim, subject, report.verdict, report.witness)

    rows, calls = carried(
        [parse_ballot(text) for text in ONE_SHAPE], lambda ballot, subject: ([direct(subject)], None)
    )
    assert rows == [[direct(text).to_dict()] for text in ONE_SHAPE]
    return calls


def mutable_parts(rows):
    """The id of every dict and list reachable from ``rows``, ``rows`` included."""
    found, stack = [], [rows]
    while stack:
        item = stack.pop()
        found.append(id(item))
        values = item.values() if isinstance(item, dict) else item
        stack.extend(v for v in values if isinstance(v, (dict, list)))
    return found


class TestCarryOrEvaluate:
    @staticmethod
    def counting(witness_of):
        calls = []

        def evaluate(ballot, subject):
            calls.append(subject)
            return [ClaimReport("P1", subject, "fails", witness_of(ballot))], len(calls)

        return calls, evaluate

    def test_carries_a_shape_to_its_other_ballots(self):
        calls, evaluate = self.counting(lambda b: {"kind": "x", "elements": sorted(b.unranked)})
        sources: dict = {}
        first = carry_or_evaluate(sources, parse_ballot("a>b~c"), "a>b~c", evaluate)
        second = carry_or_evaluate(sources, parse_ballot("c>a~b"), "c>a~b", evaluate)
        assert calls == ["a>b~c"]
        assert second[1] == first[1] == 1  # the source's extra comes along
        assert first[0] == [
            ClaimReport("P1", "a>b~c", "fails", {"kind": "x", "elements": ["b", "c"]}).to_dict()
        ]
        assert second[0] == [
            ClaimReport("P1", "c>a~b", "fails", {"kind": "x", "elements": ["a", "b"]}).to_dict()
        ]

    def test_declines_a_pair_witness_and_evaluates_directly(self):
        calls, evaluate = self.counting(
            lambda b: {"kind": "not_modular", "triple": sorted(b.unranked | set(b.ranked))}
        )
        sources: dict = {}
        carry_or_evaluate(sources, parse_ballot("a>b~c"), "a>b~c", evaluate)
        rows, extra = carry_or_evaluate(sources, parse_ballot("c>a~b"), "c>a~b", evaluate)
        assert calls == ["a>b~c", "c>a~b"] and extra == 2
        assert rows[0]["subject"] == "c>a~b"
        # the shape was judged once, on its first ballot, with that ballot's extra
        assert sources[(1, 2)] == (None, 1)

    def test_carried_rows_share_no_mutable_object(self):
        # a one-candidate ballot fails R1.4, whose witness also holds the
        # ``allowed`` list; the deep shape fails R1.1 and R1.2
        ballots = [parse_ballot(t) for t in ("a", "b", "x>y>z>a~b~c~d", "d>a>x>b~c~y~z")]
        rows, calls = carried(ballots * 2, claims_of)
        assert calls == ["a", "x>y>z>a~b~c~d"]
        parts = [mutable_parts(r) for r in rows]
        assert all(len(p) == len(set(p)) for p in parts)
        for i, j in combinations(range(len(parts)), 2):
            assert not set(parts[i]) & set(parts[j]), (i, j)
        # a caller editing one ballot's report leaves every other unchanged
        before = copy.deepcopy(rows)
        for row in rows[0] + rows[2]:
            if row["witness"] is not None:
                for value in row["witness"].values():
                    if isinstance(value, list):
                        value.append("edited")
        assert rows[1:2] + rows[3:] == before[1:2] + before[3:]


class TestClaimBlockFailures:
    def test_failing_sub_record_fails_t3_sub_and_each_ballot_is_evaluated(self, monkeypatch):
        def one_failure(ballot):
            chosen = ((ballot.ranked[0], sorted(ballot.unranked)[0]),)
            yield chosen, DisjunctionVerdict("fails", None, False)

        monkeypatch.setattr(checks, "subrecord_verdicts", one_failure)
        rows, calls = carried([parse_ballot(text) for text in ONE_SHAPE], checks._claim_block)
        # T3.sub's witness has no ``kind``, so the shape has no plan
        assert calls == ONE_SHAPE
        first_pairs = [["a", "b"], ["c", "a"], ["b", "a"]]
        for ballot_rows, pair in zip(rows, first_pairs):
            t3 = {row["claim"]: row for row in ballot_rows if row["claim"].startswith("T3")}
            assert t3["T3.full"]["verdict"] == "holds"
            assert t3["T3.sub"]["verdict"] == "fails"
            assert t3["T3.sub"]["witness"] == [[pair]]

    def test_misplaced_witness_point_fails_t4(self, monkeypatch):
        def shifted(ballot):
            witness = concave_witness(ballot)
            top = ballot.ranked[0]
            points = {**witness.points, top: (Fraction(1, 2), 0)}
            return SpatialWitness(witness.dimension, witness.peak, points)

        monkeypatch.setattr(checks, "concave_witness", shifted)
        reports, _ = checks._claim_block(parse_ballot("a>b~c"), "a>b~c")
        t4 = next(report for report in reports if report.claim == "T4")
        assert t4.verdict == "fails"
        assert t4.witness == {
            "issues": [{"candidate": "a", "got": "-1/4", "want": "0"}],
            "class": "almost_strict",
            "expected": "almost_strict",
        }

    def test_failed_concavity_sampling_fails_t4(self, monkeypatch):
        sample = {"x": [0.0], "y": [1.0], "lam": 0.5}
        failed = ConcavityReport(False, 1, sample)
        monkeypatch.setattr(checks, "verify_concavity", lambda witness: failed)
        reports, _ = checks._claim_block(parse_ballot("a>b~c"), "a>b~c")
        t4 = next(report for report in reports if report.claim == "T4")
        assert t4.verdict == "fails"
        assert t4.witness == {
            "issues": [{"concavity": sample}], "class": "almost_strict", "expected": "almost_strict"
        }
