import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from ballot_lattice import checks, representation
from ballot_lattice.order import _slots
from ballot_lattice import (
    CLAIM_REGISTRY,
    ClaimReport,
    ClaimStats,
    MAX_ENUMERATION_CANDIDATES,
    RankedBallot,
    ballot_count,
    default_candidates,
    enumerate_ballots,
    exhaustive_verify,
    format_ballot,
    is_complete,
    is_top_truncated,
    relation_of,
)


class TestCensus:
    # 9, 40, 205, 1236, 8659: closed form cross-checked against generate-and-dedup
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 9), (4, 40), (5, 205), (6, 1236), (7, 8659)]
    )
    def test_counts(self, n, expected):
        assert ballot_count(n) == expected
        assert oracles.closed_form_count(n) == expected
        assert len(oracles.naive_census(default_candidates(n))) == expected
        assert len(list(enumerate_ballots(default_candidates(n)))) == expected

    def test_stream_matches_naive_census_exactly(self):
        for n in (1, 2, 3, 4, 5):
            stream = {relation_of(b) for b in enumerate_ballots(default_candidates(n))}
            naive = set(oracles.naive_census(default_candidates(n)))
            assert stream == naive

    def test_order_is_prefix_length_then_lexicographic(self):
        texts = [format_ballot(b) for b in enumerate_ballots(("a", "b", "c"))]
        assert texts == [
            "a>b~c",
            "b>a~c",
            "c>a~b",
            "a>b>c",
            "a>c>b",
            "b>a>c",
            "b>c>a",
            "c>a>b",
            "c>b>a",
        ]

    def test_stream_is_stable_across_runs(self):
        first = list(enumerate_ballots(default_candidates(4)))
        second = list(enumerate_ballots(default_candidates(4)))
        assert first == second

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_ballot_is_top_truncated_and_complete(self, n):
        for b in enumerate_ballots(default_candidates(n)):
            r = relation_of(b)
            assert is_top_truncated(r) and is_complete(r)

    def test_cap(self):
        with pytest.raises(ValueError, match="1..7"):
            list(enumerate_ballots([f"c{i}" for i in range(8)]))
        with pytest.raises(ValueError, match="out of range"):
            default_candidates(0)

    def test_bare_string_is_refused(self):
        with pytest.raises(ValueError, match=r"invalid candidates 'alice': expected a collection"):
            list(enumerate_ballots("alice"))

    def test_candidates_are_refused_when_called(self):
        # No ``list(...)``: the refusal comes from the call, not the first ``next()``.
        with pytest.raises(ValueError, match="expected a collection"):
            enumerate_ballots("alice")
        with pytest.raises(ValueError, match="1..7 candidates, got 9"):
            enumerate_ballots([f"c{i}" for i in range(9)])
        with pytest.raises(ValueError, match="invalid candidate id 'b-1'"):
            enumerate_ballots(("a", "b-1", "c"))

    def test_ids_are_checked_before_the_first_ballot(self, id_checks):
        census = enumerate_ballots(default_candidates(4))
        assert id_checks == list(default_candidates(4))
        assert next(census) == RankedBallot(("a",), frozenset("bcd"))

    @pytest.mark.parametrize("n", range(1, MAX_ENUMERATION_CANDIDATES + 1))
    def test_each_id_checked_once(self, n, id_checks):
        assert len(list(enumerate_ballots(default_candidates(n)))) == ballot_count(n)
        assert id_checks == list(default_candidates(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ballots_equal_checked_construction(self, n):
        for b in enumerate_ballots(default_candidates(n)):
            assert type(b.ranked) is tuple and type(b.unranked) is frozenset
            assert b == RankedBallot(b.ranked, b.unranked)

    def test_invalid_id_blame_does_not_depend_on_the_hash_seed(self, stderr_by_hash_seed):
        # The ids are checked in sorted order, not in the hash order of a set.
        calls = [
            "enumerate_ballots(('a', 'b-1', 'c-2', 'd-3'))",
            "enumerate_ballots({'a', 'b-1', 'c-2', 'd-3'})",
            "ElectionProfile({'a', 'b-1', 'c-2', 'd-3'}, [])",
            "load_profile(fixture_path(), candidates={'a', 'b-1', 'c-2', 'd-3'})",
            "RankedBallot(('a',), {'b-1', 'c-2', 'd-3'})",
        ]
        imports = (
            "from ballot_lattice import "
            "ElectionProfile, RankedBallot, enumerate_ballots, fixture_path, load_profile\n"
        )
        for call in calls:
            assert stderr_by_hash_seed(imports + call) == {
                "ValueError: invalid candidate id 'b-1': "
                "expected a nonempty string of letters, digits or underscores"
            }, call

    def test_ballot_count_validation(self):
        with pytest.raises(ValueError):
            ballot_count(0)

    @pytest.mark.parametrize("bad", [True, 1.5, "2"])
    @pytest.mark.parametrize("count", [default_candidates, ballot_count, exhaustive_verify])
    def test_candidate_count_must_be_an_integer(self, count, bad):
        with pytest.raises(ValueError, match=f"candidate count must be an integer, got {bad!r}"):
            count(bad)

    def test_integer_like_count_is_stored_as_an_int(self):
        class Three:
            def __index__(self):
                return 3

        for n in (np.int64(3), Three()):
            payload = json.loads(json.dumps(exhaustive_verify(n).to_dict()))
            assert payload["n"] == 3 and payload["ballot_count"] == 9


class TestExhaustiveVerify:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reports_follow_the_registry_order(self, n):
        # The census aggregates rows by code, so only this pins the block's order.
        firsts = {}
        for ballot in enumerate_ballots(default_candidates(n)):
            firsts.setdefault((len(ballot.ranked), len(ballot.unranked)), ballot)
        for ballot in firsts.values():
            reports, _ = checks._claim_block(ballot, "s")
            assert [r.claim for r in reports] == list(CLAIM_REGISTRY)
            relation = checks.relation_claims(relation_of(ballot), "s")
            assert [r.claim for r in relation] == list(CLAIM_REGISTRY)[:6]

    def test_n3_summary(self):
        summary = exhaustive_verify(3)
        assert summary.ok
        assert summary.ballot_count == 9
        assert summary.claim("T1").holds == 9
        assert summary.claim("P1").holds == 9
        assert summary.claim("R1.3").holds == 9
        assert summary.claim("R1.4").holds == 9
        assert summary.claim("C1.repr").holds == 9
        assert summary.claim("C1.submod").holds == 9
        assert summary.claim("RAT").holds == 9
        assert summary.claim("T3.full").holds == 9
        assert summary.claim("T3.sub").holds == 9
        assert summary.claim("T4").holds == 9

    def test_informational_discrepancies_do_not_fail_the_run(self):
        summary = exhaustive_verify(3)
        r11 = summary.claim("R1.1")
        assert r11.fails > 0 and not r11.must
        assert r11.witnesses[0]["witness"]["elements"]
        assert summary.ok and summary.must_failures == []

    def test_manifest_classes(self):
        must = {code for code, (_, is_must) in CLAIM_REGISTRY.items() if is_must}
        info = set(CLAIM_REGISTRY) - must
        assert must == {"T1", "P1", "R1.3", "R1.4", "C1.repr", "C1.submod", "RAT", "T3.full", "T4"}
        assert info == {"R1.1", "R1.2", "T3.sub"}

    def test_readme_table_lists_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = readme.split("### Claim codes", 1)[1].strip().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[start + 2 : end]]
        table = [(code, cls) for code, cls, _ in rows]
        registry = [(code, "must" if must else "info") for code, (_, must) in CLAIM_REGISTRY.items()]
        assert table == registry

    def test_subrecord_sweep_skipped_past_the_bound(self):
        summary = exhaustive_verify(5)
        assert summary.claim("T3.full").vacuous == 205
        assert summary.claim("T3.sub").vacuous == 205
        assert summary.ok  # vacuous is not a failure

    def test_summary_json_is_deterministic(self):
        a = json.dumps(exhaustive_verify(3).to_dict(), sort_keys=True)
        b = json.dumps(exhaustive_verify(3).to_dict(), sort_keys=True)
        assert a == b

    def test_unknown_claim_lookup(self):
        with pytest.raises(KeyError):
            exhaustive_verify(1).claim("nope")

    def test_single_candidate_universe_reports_the_coatom_bound(self):
        # with one candidate there is a greatest element and no co-atoms,
        # so the bound 1 <= m <= n-1 is honestly unsatisfiable
        summary = exhaustive_verify(1)
        assert summary.claim("R1.4").fails == 1
        assert not summary.ok and summary.must_failures == ["R1.4"]

    def test_t4_issues_follow_the_slot_order(self, stderr_by_hash_seed):
        # With every point shifted, every utility is wrong; the issues list
        # the ranked chain, then the sorted tail, under every hash seed.
        script = (
            "from ballot_lattice import checks, parse_ballot\n"
            "from ballot_lattice.representation import SpatialWitness\n"
            "real = checks.concave_witness\n"
            "def shifted(ballot):\n"
            "    w = real(ballot)\n"
            "    points = {c: tuple(v + 1 for v in p) for c, p in w.points.items()}\n"
            "    return SpatialWitness(w.dimension, w.peak, points)\n"
            "checks.concave_witness = shifted\n"
            "reports, _ = checks._claim_block(parse_ballot('a>b~c~d~e~f~g'), 's')\n"
            "issues = next(r for r in reports if r.claim == 'T4').witness['issues']\n"
            "raise SystemExit(' '.join(i['candidate'] for i in issues if 'candidate' in i))"
        )
        assert stderr_by_hash_seed(script) == {"a b c d e f g"}

    def test_relation_built_at_most_four_times_per_ballot(self, relation_builds):
        # The sub-record sweep builds the ballot's record once, so relation
        # builds do not grow with the 2^pairs sub-records of a ballot.
        summary = exhaustive_verify(4)
        assert summary.ok
        assert summary.claim("T3.sub").holds == ballot_count(4)
        assert 0 < len(relation_builds) <= 4 * ballot_count(4)


class TestClaimStats:
    def test_unknown_verdict_is_refused(self):
        stats = ClaimStats("T1", *CLAIM_REGISTRY["T1"])
        with pytest.raises(ValueError, match=r"^unknown verdict 'maybe'$"):
            stats.record("maybe", "a>b")
        assert (stats.holds, stats.fails, stats.vacuous, stats.witnesses) == (0, 0, 0, [])


class TestCensusQuotient:
    """One checked ballot per shape, carried by isomorphism, against ground truth."""

    @pytest.mark.parametrize(
        "n,trials",
        [(n, t) for n in (1, 2, 3, 4, 5) for t in (1, 1000)] + [(6, 1000)],
    )
    def test_matches_the_direct_sweep(self, n, trials, monkeypatch):
        # The sample count is fixed; one sample as well as the usual 1,000
        # checks that the T4 result is carried by shape whatever it is.
        monkeypatch.setattr(representation, "_CONCAVITY_TRIALS", trials)
        assert exhaustive_verify(n).to_dict() == oracles.direct_verify(n).to_dict()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_slot_map_carries_the_relation_within_a_shape(self, n):
        # The carry's premise, checked on the relations themselves: slot i of
        # a shape's first ballot to slot i of any ballot of that shape maps
        # one relation's pairs exactly onto the other's.
        first = {}
        for ballot in enumerate_ballots(default_candidates(n)):
            shape = (len(ballot.ranked), len(ballot.unranked))
            source, pairs = first.setdefault(shape, (ballot, relation_of(ballot).pairs))
            phi = dict(zip(_slots(source), _slots(ballot)))
            assert {(phi[x], phi[y]) for x, y in pairs} == relation_of(ballot).pairs

    def test_relation_built_at_most_twice_per_shape(self, relation_builds):
        summary = exhaustive_verify(6)
        shapes = {(len(b.ranked), len(b.unranked)) for b in enumerate_ballots(default_candidates(6))}
        assert summary.ballot_count == 1236 and len(shapes) == 5
        assert 0 < len(relation_builds) <= 2 * len(shapes)

    def test_pair_witness_sends_every_ballot_to_direct_evaluation(self, monkeypatch):
        # A T1 pair witness is chosen by label order, so it cannot be
        # carried; each ballot is then checked on its own and reports its
        # own pair.
        real = checks.relation_claims
        evaluated = []

        def failing_t1(rel, subject):
            evaluated.append(subject)
            reports = real(rel, subject)
            pair = sorted(rel.candidates)[:2]
            reports[0] = ClaimReport("T1", subject, "fails", {"kind": "missing_join", "pair": pair})
            return reports

        monkeypatch.setattr(checks, "relation_claims", failing_t1)
        summary = exhaustive_verify(3)
        t1 = summary.claim("T1")
        assert t1.fails == 9
        census = [format_ballot(b) for b in enumerate_ballots(("a", "b", "c"))]
        assert evaluated == census
        assert [w["subject"] for w in t1.witnesses] == census
        assert not summary.ok and summary.must_failures == ["T1"]
