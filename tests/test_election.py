import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from ballot_lattice import (
    ElectionProfile,
    ProfileError,
    RankedBallot,
    canonical_utility,
    check_remark1,
    default_candidates,
    enumerate_ballots,
    find_truncation_sensitive_profile,
    fixture_path,
    format_ballot,
    is_complete,
    is_join_semilattice,
    is_modular,
    is_top_truncated,
    is_total,
    load_profile,
    pair_record,
    parse_ballot,
    profile_report,
    rationalizability_class,
    relation_of,
    tabulate_irv,
    truncate_ballot,
    truncation_experiment,
)
from ballot_lattice import checks, cli, election


def ballot_over(universe, ranked):
    return RankedBallot(tuple(ranked), frozenset(universe) - set(ranked))


def profile_of(universe, *rankings):
    return ElectionProfile(
        tuple(universe),
        tuple(
            (f"v{i + 1}", ballot_over(universe, ranked))
            for i, ranked in enumerate(rankings)
        ),
    )


def census_profile(n):
    """One voter per distinct ballot on ``n`` candidates."""
    cands = default_candidates(n)
    return ElectionProfile(
        cands, tuple((f"v{i}", b) for i, b in enumerate(enumerate_ballots(cands)))
    )


def random_profile(rng, max_candidates=6, max_voters=40):
    n = rng.randint(3, max_candidates)
    universe = [f"c{i}" for i in range(n)]
    voters = rng.randint(1, max_voters)
    rankings = []
    for _ in range(voters):
        k = rng.randint(1, n)
        rankings.append(rng.sample(universe, k))
    return profile_of(universe, *rankings)


class Unwalkable(tuple):
    """A ``ballots`` tuple that may be measured with ``len`` but not iterated."""

    def __iter__(self):
        raise AssertionError("profile.ballots was iterated")


def assert_settled(ballots):
    """Each ballot equals the checked construction from its own fields, and holds their types."""
    for b in ballots:
        assert type(b.ranked) is tuple and type(b.unranked) is frozenset
        assert b == RankedBallot(b.ranked, b.unranked)


def assert_equals_constructed(profile):
    """A loaded profile equals the public constructor's, voter groups and their order included."""
    rebuilt = ElectionProfile(profile.candidates, profile.ballots)
    assert profile == rebuilt
    assert list(profile._voters.items()) == list(rebuilt._voters.items())
    ballot_of = dict(profile.ballots)
    for ballot, voters in profile._voters.items():
        assert all(ballot_of[voter] is ballot for voter in voters)


def assert_matches_reference(profile):
    result = tabulate_irv(profile)
    ref_rounds, ref_winner = oracles.irv_reference(profile)
    assert result.winner == ref_winner
    assert len(result.rounds) == len(ref_rounds)
    for rnd, (tallies, eliminated, exhausted) in zip(result.rounds, ref_rounds):
        assert dict(rnd.tallies) == tallies
        assert rnd.eliminated == eliminated
        assert rnd.exhausted == exhausted


# ---------------------------------------------------------------------------
# profiles


class TestElectionProfile:
    def test_requires_three_candidates(self):
        with pytest.raises(ValueError, match="three candidates"):
            profile_of("ab", ["a"])

    def test_requires_a_ballot(self):
        with pytest.raises(ValueError, match="at least one ballot"):
            ElectionProfile(("a", "b", "c"), ())

    def test_rejects_duplicate_voters(self):
        ballot = ballot_over("abc", ["a"])
        with pytest.raises(ValueError, match="duplicate voter"):
            ElectionProfile(("a", "b", "c"), (("v1", ballot), ("v1", ballot)))

    def test_bare_string_candidates_are_refused(self):
        ballot = ballot_over("abc", ["a"])
        with pytest.raises(ValueError, match=r"invalid candidates 'abc': expected a collection"):
            ElectionProfile("abc", (("v1", ballot),))

    def test_ballots_must_cover_the_universe(self):
        stray = RankedBallot(("a", "b"), frozenset())
        with pytest.raises(ValueError, match="covers"):
            ElectionProfile(("a", "b", "c"), (("v1", stray),))

    def test_first_fault_in_voter_order_is_raised(self):
        ballot = ballot_over("abc", ["a"])
        stray = RankedBallot(("a", "b"), frozenset())
        duplicate_first = (("v1", ballot), ("v1", ballot), ("v2", stray))
        stray_first = (("v1", ballot), ("v2", stray), ("v1", ballot))
        with pytest.raises(ValueError, match="duplicate voter"):
            ElectionProfile(("a", "b", "c"), duplicate_first)
        with pytest.raises(ValueError, match="covers"):
            ElectionProfile(("a", "b", "c"), stray_first)

    def test_counts_and_reports_never_walk_the_voters_again(self):
        profile = random_profile(random.Random(14), max_voters=60)
        lengths = range(1, len(profile.candidates) + 1)

        def outputs():
            return (
                tabulate_irv(profile),
                truncation_experiment(profile, lengths),
                profile_report(profile),
            )

        expected = outputs()
        object.__setattr__(profile, "ballots", Unwalkable(profile.ballots))
        assert outputs() == expected


class TestLoadProfile:
    def write(self, tmp_path, text):
        path = tmp_path / "profile.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_load(self, tmp_path):
        path = self.write(
            tmp_path, "voter_id,rank1,rank2,rank3\nv1,x,y,z\nv2,x,,\nv3,y,x,\n"
        )
        profile = load_profile(path, candidates=["x", "y", "z", "w"])
        assert profile.candidates == ("w", "x", "y", "z")
        by_voter = dict(profile.ballots)
        # v1 left only w unranked, so normalization ranks w last
        assert by_voter["v1"].ranked == ("x", "y", "z", "w")
        assert by_voter["v1"].unranked == frozenset()
        assert by_voter["v2"].ranked == ("x",)
        assert by_voter["v2"].unranked == frozenset({"w", "y", "z"})

    def test_universe_defaults_to_mentioned(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1,rank2\nv1,a,b\nv2,c,\n")
        profile = load_profile(path)
        assert profile.candidates == ("a", "b", "c")

    def test_gap_in_ranking(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1,rank2,rank3\nv2,x,,y\n")
        with pytest.raises(ProfileError, match="line 2.*gap"):
            load_profile(path)

    def test_duplicate_candidate_in_row(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1,rank2\nv3,x,x\n")
        with pytest.raises(ProfileError, match="duplicate candidate"):
            load_profile(path)

    def test_duplicate_voter(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1\nv1,a\nv2,b\nv1,c\n")
        with pytest.raises(ProfileError, match="duplicate voter_id"):
            load_profile(path)

    def test_empty_ranking_row(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1,rank2\nv1,,\n")
        with pytest.raises(ProfileError, match="empty ranking row"):
            load_profile(path)

    def test_too_few_candidates(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1,rank2\nv1,a,b\n")
        with pytest.raises(ProfileError, match="fewer than 3"):
            load_profile(path)

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + fixture_path().read_bytes())
        assert load_profile(path) == load_profile(fixture_path())

    def test_invalid_universe_rejected_before_rows(self, tmp_path):
        # the row is malformed too; the universe must be blamed first
        path = self.write(tmp_path, "voter_id,rank1,rank2,rank3\nv1,x,,y\n")
        with pytest.raises(ValueError, match="invalid candidate id 'd-e'") as info:
            load_profile(path, candidates=["x", "y", "d-e"])
        assert not isinstance(info.value, ProfileError)

    def test_bare_string_universe_is_refused(self):
        with pytest.raises(ValueError, match=r"invalid candidates 'abc': expected a collection"):
            load_profile(fixture_path(), candidates="abc")

    def test_unknown_candidate_with_explicit_universe(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1\nv1,q\n")
        with pytest.raises(ProfileError, match="line 2.*unknown candidate"):
            load_profile(path, candidates=["a", "b", "c"])

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "voter,rank1\nv1,a\n")
        with pytest.raises(ProfileError, match="voter_id"):
            load_profile(path)
        path = self.write(tmp_path, "voter_id,first\nv1,a\n")
        with pytest.raises(ProfileError, match='must be "rank1"'):
            load_profile(path)

    def test_overlong_row(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1\nv1,a,b\n")
        with pytest.raises(ProfileError, match="cells"):
            load_profile(path)

    def test_missing_voter_id(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1\n,a\n")
        with pytest.raises(ProfileError, match="missing voter_id"):
            load_profile(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ProfileError, match="empty file"):
            load_profile(path)

    def test_header_without_rank_columns(self, tmp_path, capsys):
        path = self.write(tmp_path, "voter_id\nv1\n")
        message = "profile csv: line 1: header needs at least one rank column"
        with pytest.raises(ProfileError) as info:
            load_profile(path)
        assert str(info.value) == message and info.value.line == 1
        assert cli.main(["tabulate", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {message}"]

    def test_blank_rows_are_skipped(self, tmp_path):
        plain = load_profile(self.write(tmp_path, "voter_id,rank1,rank2\nv1,a,b\nv2,b,a\nv3,c,\n"))
        spaced = load_profile(
            self.write(tmp_path, "voter_id,rank1,rank2\n\nv1,a,b\n\n\nv2,b,a\nv3,c,\n\n")
        )
        assert spaced == plain
        # a later bad row is still named by its line in the file
        path = self.write(tmp_path, "voter_id,rank1,rank2\nv1,a,b\n\nv2,b,a\n\n\nv3,a,a\n")
        with pytest.raises(ProfileError, match="line 7: duplicate candidate 'a'"):
            load_profile(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "voter_id,rank1\n")
        with pytest.raises(ProfileError, match="no ballots"):
            load_profile(path)

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        # csv.Error is not a ValueError; it must surface as a ProfileError.
        path = self.write(
            tmp_path, "voter_id,rank1,rank2,rank3\nv1,a,b,c\nv2," + "a" * 200_000 + ",b,c\n"
        )
        with pytest.raises(ProfileError, match="line 3.*field larger"):
            load_profile(path)

    def test_text_that_is_not_utf8(self, tmp_path, capsys):
        # The decoder reads ahead in chunks, so the error names no line.
        path = tmp_path / "profile.csv"
        path.write_bytes(b"voter_id,rank1\n\xff,a\n")
        with pytest.raises(ProfileError, match="^profile csv: 'utf-8' codec can't decode") as info:
            load_profile(path)
        assert info.value.line is None
        assert cli.main(["tabulate", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {info.value}"]


def profile_csv(rows, width):
    """CSV text with one ``voter_id,rank1..rank<width>`` row per (voter, cells)."""
    header = ",".join(["voter_id"] + [f"rank{i}" for i in range(1, width + 1)])
    return "\n".join([header] + [",".join([voter, *cells]) for voter, cells in rows]) + "\n"


def load_outcome(loader, path, candidates):
    """The loaded profile, or the ProfileError's message and line."""
    try:
        return loader(path, candidates=candidates)
    except ProfileError as exc:
        return (str(exc), exc.line)


def drawn_csv(rng, width=5):
    """Rows repeating a few rank-cell templates, some faulty, plus a universe.

    Valid templates rank a prefix of a shuffled ``c0..c<width-1>``, padded
    with blanks and sometimes with spaces around a cell; faulty ones hold a
    gap, a duplicate candidate, an empty ranking or the invalid id ``c-x``.
    Voters are ``v<row>`` unless a duplicate id is drawn.  The universe is
    None, every candidate, or all but the last, so that a row naming the
    last one holds an unknown candidate.
    """
    cands = [f"c{i}" for i in range(width)]

    def valid():
        chain = rng.sample(cands, rng.randint(1, width))
        if rng.random() < 0.2:
            chain[0] = f" {chain[0]} "
        return chain + [""] * (width - len(chain))

    faults = [
        lambda: ["c0", "", "c1"] + [""] * (width - 3),
        lambda: ["c1", "c1"] + [""] * (width - 2),
        lambda: [""] * width,
        lambda: ["c2", "c-x"] + [""] * (width - 2),
    ]
    templates = [valid() for _ in range(rng.randint(1, 6))]
    for fault in rng.sample(faults, rng.randint(0, 2)):
        if rng.random() < 0.5:
            templates.append(fault())
    rows = []
    for number in range(rng.randint(1, 40)):
        voter = f"v{number}"
        if rows and rng.random() < 0.03:
            voter = rng.choice(rows)[0]
        rows.append((voter, rng.choice(templates)))
    universe = None if rng.random() < 0.5 else cands[:-1] if rng.random() < 0.5 else cands
    return profile_csv(rows, width), universe


class TestLoadMatchesReference:
    """The memoized loader against the per-voter reference loader."""

    def test_generated_files(self, tmp_path):
        rng = random.Random(20231)
        path = tmp_path / "profile.csv"
        errors = set()
        for _ in range(400):
            text, universe = drawn_csv(rng)
            path.write_text(text, encoding="utf-8")
            got = load_outcome(load_profile, path, universe)
            assert got == load_outcome(oracles.direct_load_profile, path, universe), text
            if isinstance(got, tuple):
                errors.add(" ".join(got[0].split(": ", 2)[-1].split()[:2]))
        # every kind of fault was drawn and won at least once
        assert errors >= {
            "gap in", "duplicate candidate", "empty ranking", "invalid candidate",
            "duplicate voter_id", "unknown candidate",
        }

    def peel(self, tmp_path, rows, universe, steps):
        """Each step's error wins from both loaders; then its row is mended."""
        path = tmp_path / "profile.csv"
        for message, line, mended in steps:
            path.write_text(profile_csv(rows, 2), encoding="utf-8")
            for loader in (load_profile, oracles.direct_load_profile):
                assert load_outcome(loader, path, universe) == (
                    f"profile csv: line {line}: {message}", line
                )
            rows[mended - 2] = (f"w{mended}", ["c", ""])
        path.write_text(profile_csv(rows, 2), encoding="utf-8")
        assert load_profile(path, candidates=universe) == oracles.direct_load_profile(
            path, candidates=universe
        )

    def test_row_faults_then_unknown_candidates_then_duplicate_voters(self, tmp_path):
        rows = [
            ("v1", ["a", "b"]),
            ("v1", ["a", ""]),
            ("v3", ["q", ""]),
            ("v4", ["a", "a"]),
            ("v5", ["", "b"]),
        ]
        self.peel(tmp_path, rows, ["a", "b", "c"], [
            ("duplicate candidate 'a' in ranking", 5, 5),
            ("gap in ranking: blank cell before a filled cell", 6, 6),
            ("unknown candidate 'q'", 4, 4),
            ("duplicate voter_id 'v1'", 3, 3),
        ])

    def test_invalid_ids_are_blamed_on_the_row_that_holds_them(self, tmp_path):
        # The row that ranks the invalid id is blamed, ahead of any
        # duplicate voter, though every ballot's universe holds that id.
        rows = [
            ("v1", ["a", "b"]),
            ("v1", ["c", ""]),
            ("v3", ["", "a"]),
            ("v4", ["a-b", "a"]),
        ]
        self.peel(tmp_path, rows, None, [
            ("gap in ranking: blank cell before a filled cell", 4, 4),
            ("invalid candidate id 'a-b': expected a nonempty string of letters, "
             "digits or underscores", 5, 5),
            ("duplicate voter_id 'v1'", 3, 3),
        ])

    def test_first_invalid_id_in_file_and_column_order(self, tmp_path):
        rows = [
            ("v1", ["a", "b"]),
            ("v2", ["b", "a"]),
            ("v3", ["a", "c-1"]),
            ("v4", ["d-2", "e-3"]),
        ]
        self.peel(tmp_path, rows, None, [
            ("invalid candidate id 'c-1': expected a nonempty string of letters, "
             "digits or underscores", 4, 4),
            ("invalid candidate id 'd-2': expected a nonempty string of letters, "
             "digits or underscores", 5, 5),
        ])

    def test_fixture(self):
        assert load_profile(fixture_path()) == oracles.direct_load_profile(fixture_path())


class TestLoadSharesBallots:
    """One ballot object per distinct chain, validated once."""

    def seeded_file(self, tmp_path):
        rng = random.Random(500)
        cands = [f"c{i}" for i in range(6)]
        rows = []
        for number in range(500):
            chain = rng.sample(cands, rng.choice([1, 1, 2, 2, 3, 5, 6]))
            rows.append((f"v{number}", chain + [""] * (6 - len(chain))))
        path = tmp_path / "profile.csv"
        path.write_text(profile_csv(rows, 6), encoding="utf-8")
        return path, {tuple(cells[: cells.index("")] if "" in cells else cells) for _, cells in rows}

    def test_one_object_per_distinct_ballot(self, tmp_path):
        path, _ = self.seeded_file(tmp_path)
        for source in (fixture_path(), path):
            profile = load_profile(source)
            distinct = {b for _, b in profile.ballots}
            assert len({id(b) for _, b in profile.ballots}) == len(distinct)
        assert len(distinct) < len(profile.ballots)

    def test_a_chain_and_its_completion_share_one_ballot(self, tmp_path):
        path = tmp_path / "profile.csv"
        text = profile_csv([("v1", ["a", "b"]), ("v2", ["a", "b", "c"])], 3)
        path.write_text(text, encoding="utf-8")
        (_, first), (_, second) = load_profile(path).ballots
        assert first is second

    def test_each_id_checked_once_per_load(self, tmp_path, id_checks):
        path, chains = self.seeded_file(tmp_path)
        profile = load_profile(path)
        assert len(profile.ballots) == 500
        assert len(chains) < 300
        assert Counter(id_checks) == Counter(profile.candidates)

    def test_explicit_universe_ids_checked_once(self, tmp_path, id_checks):
        path, _ = self.seeded_file(tmp_path)
        universe = [f"c{i}" for i in range(7)]
        assert load_profile(path, candidates=universe).candidates == tuple(universe)
        assert Counter(id_checks) == Counter(universe)

    def test_built_ballots_equal_checked_construction(self, tmp_path):
        path, _ = self.seeded_file(tmp_path)
        assert_settled(b for _, b in load_profile(fixture_path()).ballots)
        assert_settled(b for _, b in load_profile(path).ballots)
        rng = random.Random(16)
        loaded = 0
        for _ in range(100):
            text, universe = drawn_csv(rng)
            path.write_text(text, encoding="utf-8")
            outcome = load_outcome(load_profile, path, universe)
            if isinstance(outcome, ElectionProfile):
                assert_settled(b for _, b in outcome.ballots)
                loaded += 1
        assert loaded >= 20

    def test_groups_equal_the_public_constructors(self, tmp_path):
        path, _ = self.seeded_file(tmp_path)
        assert_equals_constructed(load_profile(fixture_path()))
        assert_equals_constructed(load_profile(path))
        rng = random.Random(18)
        loaded = 0
        for _ in range(100):
            text, universe = drawn_csv(rng)
            path.write_text(text, encoding="utf-8")
            outcome = load_outcome(load_profile, path, universe)
            if isinstance(outcome, ElectionProfile):
                assert_equals_constructed(outcome)
                loaded += 1
        assert loaded >= 20

    def test_interleaved_merges_keep_file_order(self, tmp_path):
        # A chain one short, its completion and a spaced copy of a row all
        # join one group, between rows of another group.
        rows = [
            ("v1", ["a", "b", "c", ""]),
            ("v2", ["b", "", "", ""]),
            ("v3", ["a", "b", "c", "d"]),
            ("v4", [" a ", "b", "c", ""]),
            ("v5", ["b ", "", "", ""]),
            ("v6", ["a", "b", "c", ""]),
        ]
        path = tmp_path / "profile.csv"
        path.write_text(profile_csv(rows, 4), encoding="utf-8")
        profile = load_profile(path)
        assert [(format_ballot(b), v) for b, v in profile._voters.items()] == [
            ("a>b>c>d", ["v1", "v3", "v4", "v6"]),
            ("b>a~c~d", ["v2", "v5"]),
        ]
        assert_equals_constructed(profile)

    def test_profile_checks_each_ballot_object_once(self, monkeypatch):
        calls = []
        candidates = RankedBallot.candidates

        def counted_candidates(ballot):
            calls.append(ballot)
            return candidates.fget(ballot)

        shared = [ballot_over("abc", ["a"]), ballot_over("abc", ["b", "c"])]
        # Equal to ``shared`` but distinct objects, which join the same groups.
        copies = [ballot_over("abc", ["a"]), ballot_over("abc", ["b", "c"])]
        pool = shared + copies
        monkeypatch.setattr(RankedBallot, "candidates", property(counted_candidates))
        profile = ElectionProfile(
            ("a", "b", "c"), tuple((f"v{i}", pool[i % 4]) for i in range(50))
        )
        assert len(profile.ballots) == 50
        assert [id(b) for b in calls] == [id(b) for b in shared]
        assert [len(voters) for voters in profile._voters.values()] == [25, 25]


# ---------------------------------------------------------------------------
# tabulation


class TestTabulateIrv:
    def test_unanimous_single_round(self):
        profile = profile_of("abw", ["w"], ["w"], ["w"])
        result = tabulate_irv(profile)
        assert result.winner == "w"
        assert len(result.rounds) == 1
        assert result.rounds[0].eliminated is None

    def test_worked_example(self):
        # 2 x [a,b], 2 x [b], 1 x [c,a]: c falls first, its ballot moves to a
        profile = profile_of("abc", ["a", "b"], ["a", "b"], ["b"], ["b"], ["c", "a"])
        result = tabulate_irv(profile)
        assert [dict(r.tallies) for r in result.rounds] == [
            {"a": 2, "b": 2, "c": 1},
            {"a": 3, "b": 2},
        ]
        assert result.rounds[0].eliminated == "c"
        assert result.winner == "a"
        assert_matches_reference(profile)

    def test_unranked_never_receive_transfers(self):
        # b's ballots rank nobody else: they exhaust when b falls
        profile = profile_of("abc", ["a", "c"], ["a", "c"], ["b"], ["b"], ["b"], ["c", "a"], ["c", "a"])
        result = tabulate_irv(profile)
        assert result.rounds[0].tallies == {"a": 2, "b": 3, "c": 2}
        assert result.rounds[0].eliminated == "a"
        assert result.rounds[1].tallies == {"b": 3, "c": 4}
        assert result.winner == "c"
        assert_matches_reference(profile)

    def test_exhausted_ballots_leave_the_majority_base(self):
        profile = profile_of("abc", ["a"], ["a"], ["b"], ["c"])
        result = tabulate_irv(profile)
        # b falls first (lexicographic tie-break) and its ballot exhausts;
        # a then holds 2 of the 3 live ballots, a strict majority
        assert result.winner == "a"
        assert result.rounds[0].eliminated == "b"
        last = result.rounds[-1]
        assert last.exhausted == 1
        assert last.tallies == {"a": 2, "c": 1}
        assert sum(last.tallies.values()) + last.exhausted == 4
        assert_matches_reference(profile)

    def test_previous_round_tie_break(self):
        # round 1: d lowest, eliminated; round 2: b and c tie at 3 but c had
        # fewer round-1 votes, so c falls despite b being lexicographically first
        profile = profile_of(
            "abcd",
            *([["a"]] * 4 + [["b"]] * 3 + [["c"]] * 2 + [["d", "c"]] * 1),
        )
        result = tabulate_irv(profile)
        assert result.rounds[0].eliminated == "d"
        assert result.rounds[1].tallies == {"a": 4, "b": 3, "c": 3}
        assert result.rounds[1].eliminated == "c"
        assert_matches_reference(profile)

    def test_lexicographic_tie_break_in_round_one(self):
        profile = profile_of("abc", ["a"], ["b"], ["c"])
        result = tabulate_irv(profile)
        assert result.rounds[0].eliminated == "a"
        assert_matches_reference(profile)

    def test_conservation_every_round(self):
        rng = random.Random(4)
        for _ in range(25):
            profile = random_profile(rng)
            result = tabulate_irv(profile)
            for rnd in result.rounds:
                assert sum(rnd.tallies.values()) + rnd.exhausted == len(profile.ballots)

    def test_matches_reference_on_random_profiles(self):
        rng = random.Random(11)
        for _ in range(50):
            assert_matches_reference(random_profile(rng))

    def test_winner_invariant_under_voter_reordering(self):
        rng = random.Random(5)
        for _ in range(10):
            profile = random_profile(rng, max_voters=12)
            baseline = tabulate_irv(profile).winner
            for seed in range(3):
                order = list(profile.ballots)
                random.Random(seed).shuffle(order)
                shuffled = ElectionProfile(profile.candidates, tuple(order))
                assert tabulate_irv(shuffled).winner == baseline

    def test_result_json_roundtrip_and_determinism(self):
        profile = profile_of("abc", ["a", "b"], ["b"], ["c", "a"])
        one = json.dumps(tabulate_irv(profile).to_dict(), sort_keys=True)
        two = json.dumps(tabulate_irv(profile).to_dict(), sort_keys=True)
        assert one == two


# ---------------------------------------------------------------------------
# truncation


class TestTruncation:
    def test_truncate_ballot(self):
        ballot = ballot_over("abcd", ["a", "b", "c"])
        cut = truncate_ballot(ballot, 1)
        assert cut.ranked == ("a",)
        assert cut.unranked == frozenset({"b", "c", "d"})
        with pytest.raises(ValueError):
            truncate_ballot(ballot, 0)

    @pytest.mark.parametrize("bad", [True, 1.5, "2"])
    def test_truncate_ballot_length_must_be_an_integer(self, bad):
        ballot = ballot_over("abcd", ["a", "b", "c"])
        with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
            truncate_ballot(ballot, bad)

    def test_truncating_to_field_size_minus_one_is_a_noop(self):
        ballot = ballot_over("abc", ["a", "b", "c"])
        assert truncate_ballot(ballot, 2) == ballot

    def test_full_length_equals_untruncated(self):
        rng = random.Random(9)
        for _ in range(10):
            profile = random_profile(rng, max_voters=15)
            n = len(profile.candidates)
            report = truncation_experiment(profile, [n])
            assert report.results[n] == tabulate_irv(profile)

    def test_lengths_validated(self):
        profile = profile_of("abc", ["a"])
        with pytest.raises(ValueError, match="outside"):
            truncation_experiment(profile, [0])
        with pytest.raises(ValueError, match="outside"):
            truncation_experiment(profile, [4])
        with pytest.raises(ValueError, match="no truncation lengths"):
            truncation_experiment(profile, [])

    def test_bullet_profiles_never_diverge(self):
        profile = profile_of("abc", ["a"], ["b"], ["b"])
        report = truncation_experiment(profile, [1, 2, 3])
        assert report.winner_divergence == ()

    def test_fixture_diverges_and_replays_on_the_reference(self):
        profile = load_profile(fixture_path())
        report = truncation_experiment(profile, [1, 2, 3])
        assert report.winners() == {1: "c", 2: "b", 3: "b"}
        assert report.winner_divergence == ((1, 2), (1, 3))
        for length in (1, 3):
            truncated = ElectionProfile(
                profile.candidates,
                tuple((v, truncate_ballot(b, length)) for v, b in profile.ballots),
            )
            assert_matches_reference(truncated)

    def test_fixture_is_the_first_search_hit(self):
        hit = find_truncation_sensitive_profile()
        assert hit is not None
        found, pair = hit
        bundled = load_profile(fixture_path())
        assert [format_ballot(b) for _, b in found.ballots] == [
            format_ballot(b) for _, b in bundled.ballots
        ]
        assert found.candidates == bundled.candidates
        assert pair == (1, 2)

    def test_search_without_a_hit_returns_none(self):
        # one voter never diverges: every length elects that voter's first choice
        assert find_truncation_sensitive_profile(max_voters=1) is None

    def test_search_refuses_a_bare_string(self):
        with pytest.raises(ValueError, match=r"invalid candidates 'abc': expected a collection"):
            find_truncation_sensitive_profile("abc")

    def test_report_to_dict_keys_by_length(self):
        profile = load_profile(fixture_path())
        payload = truncation_experiment(profile, [1, 3]).to_dict()
        assert set(payload["results"]) == {"1", "3"}
        assert payload["winner_divergence"] == [[1, 3]]

    def test_lengths_must_be_integers(self):
        profile = profile_of("abc", ["a"], ["b", "c"])
        for bad in (1.9, True, "2"):
            with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
                truncation_experiment(profile, [2, bad])

    def test_integer_like_lengths_accepted(self):
        class One:
            def __index__(self):
                return 1

        profile = profile_of("abc", ["a"], ["b", "c"])
        report = truncation_experiment(profile, [One(), 3])
        assert sorted(report.results) == [1, 3]
        assert all(type(length) is int for length in report.results)


def truncation_profiles(n, count=8, max_voters=30):
    """Seeded profiles on ``n`` candidates, each with ranked lengths n - 1 and n."""
    rng = random.Random(1000 + n)
    universe = [f"c{i}" for i in range(n)]
    for _ in range(count):
        rankings = [rng.sample(universe, n - 1), rng.sample(universe, n)]
        for _ in range(rng.randint(0, max_voters)):
            rankings.append(rng.sample(universe, rng.randint(1, n)))
        rng.shuffle(rankings)
        yield profile_of(universe, *rankings)


def rebuilt_truncation(profile, length):
    return ElectionProfile(
        profile.candidates,
        tuple((v, truncate_ballot(b, length)) for v, b in profile.ballots),
    )


class TestTruncationDepthCut:
    """The depth cut over counted chains against rebuilt truncated ballots."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_equals_rebuilt_ballots_and_the_reference(self, n):
        for profile in truncation_profiles(n):
            report = truncation_experiment(profile, range(1, n + 1))
            for length in range(1, n + 1):
                rebuilt = rebuilt_truncation(profile, length)
                result = report.results[length]
                assert result == tabulate_irv(rebuilt)
                ref_rounds, ref_winner = oracles.irv_reference(rebuilt)
                assert result.winner == ref_winner
                assert [
                    (dict(r.tallies), r.eliminated, r.exhausted) for r in result.rounds
                ] == ref_rounds

    def test_builds_no_ballots_or_profiles(self, monkeypatch):
        profile = load_profile(fixture_path())
        calls = []
        post_init = ElectionProfile.__post_init__

        def counted_truncate(ballot, length):
            calls.append("truncate_ballot")
            return truncate_ballot(ballot, length)

        def counted_post_init(self):
            calls.append("ElectionProfile")
            post_init(self)

        monkeypatch.setattr(election, "truncate_ballot", counted_truncate)
        monkeypatch.setattr(ElectionProfile, "__post_init__", counted_post_init)
        report = truncation_experiment(profile, [1, 2, 3])
        assert report.winners() == {1: "c", 2: "b", 3: "b"}
        assert calls == []


@st.composite
def drawn_profiles(draw, max_candidates=6, max_voters=12):
    n = draw(st.integers(3, max_candidates))
    universe = "abcdef"[:n]
    ranking = st.tuples(st.permutations(universe), st.integers(1, n)).map(
        lambda drawn: drawn[0][: drawn[1]]
    )
    return profile_of(universe, *draw(st.lists(ranking, min_size=1, max_size=max_voters)))


class TestElectionProperties:
    @given(drawn_profiles(), st.data())
    def test_full_result_invariant_under_voter_order(self, profile, data):
        order = data.draw(st.permutations(profile.ballots))
        shuffled = ElectionProfile(profile.candidates, tuple(order))
        assert tabulate_irv(shuffled).to_dict() == tabulate_irv(profile).to_dict()

    @given(drawn_profiles())
    def test_lengths_n_and_n_minus_one_equal_the_plain_count(self, profile):
        n = len(profile.candidates)
        report = truncation_experiment(profile, [n - 1, n])
        plain = tabulate_irv(profile)
        assert report.results[n] == plain
        assert report.results[n - 1] == plain


@st.composite
def pooled_profiles(draw, max_candidates=7, max_voters=40):
    """Profiles whose ballots rank only a drawn pool of the universe, from a few shared rankings.

    Candidates outside the pool start with empty piles and tie at zero,
    and most voters share their ballot with others.
    """
    n = draw(st.integers(3, max_candidates))
    universe = "abcdefg"[:n]
    pool = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=n, unique=True))
    ranking = st.tuples(st.permutations(pool), st.integers(1, len(pool))).map(
        lambda drawn: drawn[0][: drawn[1]]
    )
    shared = draw(st.lists(ranking, min_size=1, max_size=5))
    return profile_of(
        universe, *draw(st.lists(st.sampled_from(shared), min_size=1, max_size=max_voters))
    )


class TestPileWalk:
    """The pile walk, at every depth, against the stateless reference recount."""

    @given(pooled_profiles())
    def test_every_length_equals_the_reference_on_rebuilt_ballots(self, profile):
        n = len(profile.candidates)
        report = truncation_experiment(profile, range(1, n + 1))
        for length in range(1, n + 1):
            ref_rounds, ref_winner = oracles.irv_reference(rebuilt_truncation(profile, length))
            result = report.results[length]
            assert result.winner == ref_winner
            assert [
                (dict(r.tallies), r.eliminated, r.exhausted) for r in result.rounds
            ] == ref_rounds

    @given(pooled_profiles(), st.data())
    def test_truncation_report_invariant_under_voter_order(self, profile, data):
        # Piles fill in the order chains are first met, which follows the voters.
        shuffled = ElectionProfile(
            profile.candidates, tuple(data.draw(st.permutations(profile.ballots)))
        )
        lengths = range(1, len(profile.candidates) + 1)
        assert json.dumps(truncation_experiment(shuffled, lengths).to_dict()) == json.dumps(
            truncation_experiment(profile, lengths).to_dict()
        )


class TestSharedRoundOne:
    """Every depth walks from one shared round one; no depth may see another's state."""

    @given(st.one_of(pooled_profiles(), drawn_profiles()))
    def test_each_length_alone_equals_the_batch(self, profile):
        n = len(profile.candidates)
        batch = truncation_experiment(profile, range(1, n + 1))
        for length in range(1, n + 1):
            alone = truncation_experiment(profile, [length])
            assert alone.results[length].to_dict() == batch.results[length].to_dict()
        assert tabulate_irv(profile).to_dict() == batch.results[n].to_dict()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lengths_sharing_a_walk_share_no_mutable_object(self, n):
        for profile in truncation_profiles(n):
            report = truncation_experiment(profile, range(1, n + 1))
            short, full = report.results[n - 1], report.results[n]
            assert short == full and short is not full
            for a, b in zip(short.rounds, full.rounds):
                assert a.tallies is not b.tallies
            plain = tabulate_irv(profile).to_dict()
            assert full.to_dict() == plain
            for r in short.rounds:
                r.tallies.clear()
            assert full.to_dict() == plain
            assert tabulate_irv(profile).to_dict() == plain


# ---------------------------------------------------------------------------
# report


class TestProfileReport:
    def test_basic_structure(self):
        profile = profile_of("abc", ["a", "b"], ["a", "b"], ["c"])
        report = profile_report(profile)
        assert report["num_ballots"] == 3
        assert report["aggregate"]["mean_ranked_fraction"] == str(Fraction(7, 9))
        assert report["aggregate"]["mean_ranked_pct"] == 77.8
        types = {entry["ballot"]: entry for entry in report["ballot_types"]}
        # a>b over {c} normalizes to the full chain
        assert set(types) == {"a>b>c", "c>a~b"}
        assert types["a>b>c"]["count"] == 2
        assert types["a>b>c"]["order"]["is_total"] is True
        assert types["c>a~b"]["rationalizability"] == "almost_strict"
        claims = {c["claim"]: c["verdict"] for c in types["c>a~b"]["claims"]}
        assert claims["T1"] == "holds" and claims["P1"] == "holds"

    @staticmethod
    def assert_order_checks_are_direct(entry, ballot):
        """The entry's order checks equal the ballot's own, evaluated without carrying."""
        text = entry["ballot"]
        rel = relation_of(ballot)
        assert entry["order"] == {
            "is_top_truncated": is_top_truncated(rel),
            "is_complete": is_complete(rel),
            "is_total": is_total(rel),
        }
        direct = [
            is_join_semilattice(rel, text),
            is_modular(rel, text),
            *check_remark1(rel, text),
        ]
        assert entry["claims"] == [report.to_dict() for report in direct]
        assert entry["rationalizability"] == rationalizability_class(
            canonical_utility(ballot), pair_record(ballot)
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_census_profile_matches_direct_evaluation(self, n):
        for entry in profile_report(census_profile(n))["ballot_types"]:
            self.assert_order_checks_are_direct(entry, parse_ballot(entry["ballot"]))

    @given(pooled_profiles())
    def test_shared_ballots_match_direct_evaluation(self, profile):
        n = len(profile.candidates)
        groups: dict = {}
        for voter, ballot in profile.ballots:
            groups.setdefault(format_ballot(ballot), (ballot, []))[1].append(voter)
        entries = profile_report(profile)["ballot_types"]
        assert [entry["ballot"] for entry in entries] == sorted(groups)
        for entry in entries:
            ballot, voters = groups[entry["ballot"]]
            assert entry["voters"] == sorted(voters)
            assert entry["count"] == len(voters)
            assert entry["ranked_fraction"] == str(Fraction(len(ballot.ranked), n))
            self.assert_order_checks_are_direct(entry, ballot)

    def test_checkers_run_once_per_shape(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(checks, name)

            def wrapper(rel, subject=None):
                calls.append(name)
                return original(rel, subject)

            return wrapper

        for name in ("is_join_semilattice", "is_modular", "check_remark1"):
            monkeypatch.setattr(checks, name, counted(name))
        profile_report(census_profile(5))
        # 205 distinct ballots, but only ranked lengths 1, 2, 3 and 5
        assert sorted(calls) == sorted(
            ["is_join_semilattice", "is_modular", "check_remark1"] * 4
        )

    def test_universe_over_the_relation_cap_skips_order_checks(self):
        universe = [f"c{i:02d}" for i in range(13)]
        profile = profile_of(universe, universe[:2], universe[:3], universe)
        entries = profile_report(profile)["ballot_types"]
        assert len(entries) == 3
        for entry in entries:
            assert entry["order"] == {
                "skipped": "candidate universe exceeds the relation cap of 12"
            }
            assert "claims" not in entry and "rationalizability" not in entry

    def test_report_is_deterministic(self):
        profile = profile_of("abc", ["b"], ["c", "a"], ["a", "b", "c"])
        one = json.dumps(profile_report(profile), sort_keys=True)
        two = json.dumps(profile_report(profile), sort_keys=True)
        assert one == two
