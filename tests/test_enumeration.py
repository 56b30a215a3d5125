import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from ballot_lattice import enumeration, representation
from ballot_lattice import (
    CLAIM_REGISTRY,
    ClaimReport,
    INFORMATIONAL_CLAIMS,
    MAX_ENUMERATION_CANDIDATES,
    MUST_CLAIMS,
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
    # 9, 40, 205, 1236: closed form cross-checked against generate-and-dedup
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 9), (4, 40), (5, 205), (6, 1236)]
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

    def test_invalid_id_blame_does_not_depend_on_the_hash_seed(self):
        # The ids are checked in sorted order, not in the hash order of a set.
        script = (
            "from ballot_lattice import enumerate_ballots\n"
            "list(enumerate_ballots(('a', 'b-1', 'c-2', 'd-3')))"
        )
        src = str(Path(enumeration.__file__).resolve().parents[1])
        outcomes = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
            ).stderr.splitlines()[-1]
            for seed in range(1, 7)
        }
        assert outcomes == {
            "ValueError: invalid candidate id 'b-1': "
            "expected a nonempty string of letters, digits or underscores"
        }

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
        assert MUST_CLAIMS == frozenset(
            {"T1", "P1", "R1.3", "R1.4", "C1.repr", "C1.submod", "RAT", "T3.full", "T4"}
        )
        assert INFORMATIONAL_CLAIMS == frozenset({"R1.1", "R1.2", "T3.sub"})
        assert not (MUST_CLAIMS & INFORMATIONAL_CLAIMS)

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

    def test_relation_built_at_most_four_times_per_ballot(self, relation_builds):
        # The sub-record sweep builds the ballot's record once, so relation
        # builds do not grow with the 2^pairs sub-records of a ballot.
        summary = exhaustive_verify(4)
        assert summary.ok
        assert summary.claim("T3.sub").holds == ballot_count(4)
        assert 0 < len(relation_builds) <= 4 * ballot_count(4)


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

    def test_relation_built_at_most_twice_per_shape(self, relation_builds):
        summary = exhaustive_verify(6)
        shapes = {(len(b.ranked), len(b.unranked)) for b in enumerate_ballots(default_candidates(6))}
        assert summary.ballot_count == 1236 and len(shapes) == 5
        assert 0 < len(relation_builds) <= 2 * len(shapes)

    def test_pair_witness_sends_every_ballot_to_direct_evaluation(self, monkeypatch):
        # A T1 pair witness is chosen by label order, so it cannot be
        # carried; each ballot is then checked on its own and reports its
        # own pair.
        real = enumeration.relation_claims
        evaluated = []

        def failing_t1(rel, subject):
            evaluated.append(subject)
            reports = real(rel, subject)
            pair = sorted(rel.candidates)[:2]
            reports[0] = ClaimReport("T1", subject, "fails", {"kind": "missing_join", "pair": pair})
            return reports

        monkeypatch.setattr(enumeration, "relation_claims", failing_t1)
        summary = exhaustive_verify(3)
        t1 = summary.claim("T1")
        assert t1.fails == 9
        census = [format_ballot(b) for b in enumerate_ballots(("a", "b", "c"))]
        assert evaluated == census
        assert [w["subject"] for w in t1.witnesses] == census
        assert not summary.ok and summary.must_failures == ["T1"]
