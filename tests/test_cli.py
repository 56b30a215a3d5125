import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ballot_lattice import (
    ConcavityReport,
    DisjunctionVerdict,
    checks,
    cli,
    fixture_path,
    load_profile,
    parse_ballot,
    profile_report,
    subrecord_verdicts,
)
from ballot_lattice.cli import main
from ballot_lattice.order import OrderRelation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seeded_election_csv(voters=2000, seed=13):
    """A profile CSV on ten candidates whose short ballots repeat and long ones are unique.

    Each ballot ranks candidates drawn without replacement, candidate ``i``
    with strength 1 / (1 + i / 20); about half rank at most three, the
    rest four to ten.  Different lengths elect different winners.
    """
    rng = random.Random(seed)
    cands = [f"k{i}" for i in range(10)]
    rows = ["voter_id," + ",".join(f"rank{i}" for i in range(1, 11))]
    for number in range(1, voters + 1):
        length = rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(4, 10)
        pool = list(range(10))
        ranking = []
        for _ in range(length):
            pick = rng.choices(pool, weights=[1 / (1 + i / 20) for i in pool])[0]
            pool.remove(pick)
            ranking.append(cands[pick])
        rows.append(",".join([f"v{number:04d}", *ranking] + [""] * (10 - length)))
    return "\n".join(rows) + "\n"


class TestAnalyze:
    def test_json_report(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--ballot", "x>y>z>a~b~c~d", "--format", "json"
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["classification"]["is_top_truncated"] is True
        assert len(payload["meet_irreducibles"]) == 6
        assert payload["coatoms"] == ["y"]
        assert ["x", "y"] in payload["hasse"]
        assert payload["canonical_utility"]["x"] == "3"
        verdicts = {c["claim"]: c["verdict"] for c in payload["claims"]}
        assert verdicts["T1"] == "holds" and verdicts["P1"] == "holds"
        assert verdicts["R1.1"] == "fails"

    def test_derives_each_table_once(self, capsys, monkeypatch):
        # every flag and claim reads the relation's one gap, join table and cover set
        counts = Counter()
        for name in ("_gap", "_joins", "_covers"):
            derived = vars(OrderRelation)[name]

            def counting(r, name=name, derive=derived.func):
                counts[name] += 1
                return derive(r)

            monkeypatch.setattr(derived, "func", counting)
        code, _, _ = run_cli(
            capsys, "analyze", "--ballot", "f>c>k>a>h>b~d~e~g~i~j~l", "--format", "json"
        )
        assert code == 0
        assert counts == {"_gap": 1, "_joins": 1, "_covers": 1}

    def test_text_report(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--ballot", "x>y>z>a~b~c~d")
        assert code == 0
        assert "hasse cover lists:" in out
        assert "co-atoms: y" in out

    def test_grammar_error_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--ballot", "a~b>c")
        assert code == 1 and out == ""
        assert err.startswith("error: ballot grammar: column 3")
        assert err.count("\n") == 1

    def test_relation_cap_is_named(self, capsys):
        ballot = ">".join(f"c{i:02d}" for i in range(13))
        code, _, err = run_cli(capsys, "analyze", "--ballot", ballot)
        assert code == 1
        assert "cap" in err and "12" in err

    def test_candidates_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--ballot", "x>y", "--candidates", "x,y,z,w", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["unranked"] == ["w", "z"]

    def test_malformed_candidates_flag(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--ballot", "x", "--candidates", "x,,y")
        assert code == 1 and err.startswith("error:")

    def test_candidates_checked_once_per_boundary(self, capsys, id_checks):
        # --candidates and the parser's universe: two checks of each id; the
        # relation is settled from the checked ballot and checks none again
        code, _, _ = run_cli(capsys, "analyze", "--ballot", "a>b", "--candidates", "a,b,c,d")
        assert code == 0
        assert Counter(id_checks) == Counter("abcd" * 2)

    @pytest.mark.parametrize("command", ["analyze", "witness", "theorem3"])
    def test_thirteen_candidates_exceed_the_relation_cap(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--ballot", "a>b>c~d~e~f~g~h~i~j~k~l~m")
        assert (code, out) == (1, "")
        assert err == "error: candidate set of size 13 exceeds the relation cap of 12\n"


class TestVerify:
    def test_n3_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        assert code == 0
        assert "9 ballots" in out
        assert "result: ok" in out

    def test_n3_json_counts(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        claims = {c["claim"]: c for c in payload["claims"]}
        assert claims["T1"]["holds"] == 9
        assert claims["P1"]["holds"] == 9
        assert claims["R1.1"]["fails"] > 0
        assert payload["ok"] is True

    def test_must_failure_exits_two(self, capsys):
        # the single-candidate universe honestly fails the co-atom bound
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--format", "json")
        assert code == 2
        assert json.loads(out)["must_failures"] == ["R1.4"]

    def test_cap_validation(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "8")
        assert code == 1 and "1..7" in err

    def test_env_var_no_longer_lowers_the_cap(self, capsys, monkeypatch):
        plain = run_cli(capsys, "verify", "--n", "4")
        monkeypatch.setenv("BALLOT_LATTICE_MAX_N", "3")
        assert run_cli(capsys, "verify", "--n", "4") == plain
        assert plain[0] == 0 and "40 ballots" in plain[1]

    def test_env_var_cannot_raise_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BALLOT_LATTICE_MAX_N", "99")
        code, _, err = run_cli(capsys, "verify", "--n", "8")
        assert code == 1 and "1..7" in err

    @pytest.mark.parametrize("command", ["verify", "enumerate"])
    @pytest.mark.parametrize("raw", ["0_3", "\u0663", "3.0", "x"])
    def test_n_must_be_an_ascii_integer(self, capsys, command, raw):
        code, out, err = run_cli(capsys, command, "--n", raw)
        assert code == 1 and out == ""
        assert err == f"error: argument --n: expected an integer, got {raw!r}\n"

    @pytest.mark.parametrize("command, raw", [("verify", "8"), ("enumerate", "0")])
    def test_n_out_of_range_is_an_argument_error(self, capsys, command, raw):
        code, out, err = run_cli(capsys, command, "--n", raw)
        assert (code, out) == (1, "")
        assert err == "error: argument --n: must be within 1..7\n"

    def test_padded_n_is_stripped(self, capsys):
        _, plain, _ = run_cli(capsys, "enumerate", "--n", "3")
        code, padded, err = run_cli(capsys, "enumerate", "--n", " 3 ")
        assert code == 0 and err == "" and padded == plain


class TestEnumerate:
    def test_text_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert lines[0] == "a>b~c"
        assert lines[-1] == "c>b>a"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 40 and len(payload["ballots"]) == 40


class TestTheorem3:
    def test_full_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorem3", "--ballot", "x>y>z>a~b~c~d", "--full", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["disjunct"] == "disjunct2"
        assert len(payload["verdict"]["witness"]) == 12

    def test_full_record_on_twelve_candidates(self, capsys):
        code, out, err = run_cli(
            capsys, "theorem3", "--full", "--ballot", "a>b~c~d~e~f~g~h~i~j~k~l", "--format", "json"
        )
        assert code == 0 and err == ""
        verdict = json.loads(out)["verdict"]
        assert verdict["disjunct"] == "disjunct2"
        assert len(verdict["witness"]) == 110

    def test_full_record_builds_the_relation_once(self, capsys, relation_builds):
        code, _, err = run_cli(capsys, "theorem3", "--full", "--ballot", "a>b~c~d~e~f")
        assert code == 0 and err == ""
        assert len(relation_builds) == 1

    def test_full_record_of_one_candidate_is_refused(self, capsys):
        for argv in (["--ballot", "a", "--candidates", "a"], ["--full", "--ballot", "a"]):
            code, out, err = run_cli(capsys, "theorem3", *argv)
            assert (code, out) == (1, "")
            assert err == "error: ballot 'a' has one candidate, so its record is empty\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("mode", ["--full", "--all-subsets"])
    def test_one_candidate_is_refused_in_both_modes(self, capsys, mode, fmt):
        code, out, err = run_cli(capsys, "theorem3", mode, "--ballot", "a", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: ballot 'a' has one candidate, so its record is empty\n"

    def test_full_is_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "theorem3", "--ballot", "p>q>r", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"]["disjunct"] == "disjunct1"

    def test_all_subsets_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorem3", "--ballot", "a>b~c", "--all-subsets", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_subrecords"] == 2 ** 4 - 1
        assert payload["unexpected_failures"] == []
        assert payload["counts"]["fails"] == payload["fails_all_unranked"]

    def test_all_subsets_builds_the_relation_once(self, capsys, relation_builds):
        code, _, err = run_cli(
            capsys, "theorem3", "--all-subsets", "--ballot", "a>b~c~d", "--format", "json"
        )
        assert code == 0 and err == ""
        assert len(relation_builds) == 1

    def test_all_subsets_lists_the_first_ten_unexpected_failures(self, capsys, monkeypatch):
        subrecords = [chosen for chosen, _ in subrecord_verdicts(parse_ballot("a>b~c~d"))][:12]
        failing = DisjunctionVerdict("fails", None, False)
        monkeypatch.setattr(
            cli, "subrecord_verdicts", lambda ballot: ((chosen, failing) for chosen in subrecords)
        )
        argv = ["theorem3", "--all-subsets", "--ballot", "a>b~c~d"]
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["total_subrecords"] == 12
        assert payload["counts"] == {"disjunct1": 0, "disjunct2": 0, "fails": 12}
        assert payload["fails_all_unranked"] == 0
        assert payload["unexpected_failures"] == [[list(p) for p in c] for c in subrecords[:10]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"unexpected failures: {payload['unexpected_failures']}"

    def test_all_subsets_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "theorem3", "--ballot", "a>b>c>d>e>f~g", "--all-subsets"
        )
        assert code == 1 and "cap" in err

    def test_modes_are_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "theorem3", "--ballot", "p>q>r", "--full", "--all-subsets"
        )
        assert code == 1 and err.startswith("error:")


class TestWitness:
    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--ballot", "x>y>z>a~b~c~d", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["dimension"] == 4
        assert payload["utilities"] == {
            "a": "-9", "b": "-9", "c": "-9", "d": "-9", "x": "0", "y": "-1", "z": "-4",
        }
        assert payload["rationalizability"] == "almost_strict"
        assert payload["concavity"]["ok"] is True
        assert payload["concavity"]["trials"] == 1000

    @pytest.mark.parametrize(
        "argv",
        [["witness", "--ballot", "p>q", "--trials", "20"], ["verify", "--n", "3", "--trials", "5"]],
        ids=["witness", "verify"],
    )
    def test_refuses_the_trials_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--trials" in err

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--ballot", "g>a~b")
        assert code == 0
        assert "dimension: 2" in out and "concavity sampling: passed" in out

    def test_prints_the_census_witness_check(self, capsys, monkeypatch):
        # ``witness`` and T4 read one evaluation, so a failed sampling shows in both.
        sample = {"x": [0.0], "y": [1.0], "lam": 0.5}
        failed = ConcavityReport(False, 1, sample)
        monkeypatch.setattr(checks, "verify_concavity", lambda witness: failed)
        reports, _ = checks._claim_block(parse_ballot("g>a~b"), "g>a~b")
        t4 = next(report for report in reports if report.claim == "T4")
        assert t4.verdict == "fails" and t4.witness["issues"] == [{"concavity": sample}]
        code, out, err = run_cli(capsys, "witness", "--ballot", "g>a~b", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["concavity"] == {"ok": False, "trials": 1, "witness": sample}

    def test_over_cap_ballot_is_refused_before_sampling(self, child_env):
        # Sampling is what imports numpy, so a refusal leaves it unloaded.
        script = """
import sys
from ballot_lattice.cli import main
code = main(["witness", "--ballot", "a>b>c~d~e~f~g~h~i~j~k~l~m"])
assert "numpy" not in sys.modules
raise SystemExit(code)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: candidate set of size 13 exceeds the relation cap of 12\n"


class TestTabulate:
    def test_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "tabulate", "--input", str(fixture_path()), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["winner"] == "b"
        first = payload["rounds"][0]
        assert first["tallies"] == {"a": 1, "b": 1, "c": 1}

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "tabulate", "--input", str(fixture_path()))
        assert code == 0 and out.strip().endswith("winner: b")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "tabulate", "--input", "/nonexistent.csv")
        assert code == 1 and err.startswith("error:")

    def test_csv_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("voter_id,rank1,rank2,rank3\nv1,x,,y\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "tabulate", "--input", str(path))
        assert code == 1 and "line 2" in err

    def test_invalid_candidates_flag_is_blamed_on_the_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "tabulate", "--input", str(fixture_path()), "--candidates", "a,b,c,d-e"
        )
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: --candidates: invalid candidate id 'd-e'")

    def test_invalid_id_blame_does_not_depend_on_the_hash_seed(
        self, tmp_path, capsys, stderr_by_hash_seed
    ):
        # Every ballot's unranked set holds all three invalid ids; the row
        # that ranks the first of them is blamed whatever the set order.
        path = tmp_path / "bad.csv"
        path.write_text(
            "voter_id,rank1,rank2\nv1,a,b\nv2,b,a\nv3,c-1,a\nv4,d-2,b\nv5,e-3,a\n",
            encoding="utf-8",
        )
        blame = (
            "error: profile csv: line 4: invalid candidate id 'c-1': "
            "expected a nonempty string of letters, digits or underscores"
        )
        code, _, err = run_cli(capsys, "tabulate", "--input", str(path))
        assert code == 1 and err == blame + "\n"
        script = (
            "from ballot_lattice.cli import main\n"
            f"raise SystemExit(main(['tabulate', '--input', {str(path)!r}]))"
        )
        assert stderr_by_hash_seed(script) == {blame}

    def test_cell_over_the_csv_field_limit_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "voter_id,rank1,rank2,rank3\nv1,a,b,c\nv2," + "a" * 200_000 + ",b,c\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "tabulate", "--input", str(path))
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: profile csv: line 3: field larger than field limit")


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--ballot", "a>b>c"], ["tabulate", "--input", str(fixture_path())]],
    ids=["analyze", "tabulate"],
)
def test_empty_candidates_flag_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--candidates", "")
    assert (code, out) == (1, "")
    assert err == (
        "error: --candidates: invalid candidate id '': "
        "expected a nonempty string of letters, digits or underscores\n"
    )


class TestTruncate:
    def test_fixture_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "truncate", "--input", str(fixture_path()), "--lengths", "1,2,3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["winners"] == {"1": "c", "2": "b", "3": "b"}
        assert payload["winner_divergence"] == [[1, 2], [1, 3]]

    def test_text_mentions_divergence(self, capsys):
        code, out, _ = run_cli(
            capsys, "truncate", "--input", str(fixture_path()), "--lengths", "1,3"
        )
        assert code == 0 and "winner divergence: 1 vs 3" in out

    def test_bad_lengths(self, capsys):
        code, _, err = run_cli(
            capsys, "truncate", "--input", str(fixture_path()), "--lengths", "1,9"
        )
        assert code == 1 and "outside" in err

    def test_non_integer_lengths_name_the_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "truncate", "--input", str(fixture_path()), "--lengths", "1,x"
        )
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: --lengths:") and "int()" not in err

    @pytest.mark.parametrize("lengths", ["0_1", "\u0663", "1,0_1,3", "+2"])
    def test_lengths_must_be_ascii_integers(self, capsys, lengths):
        code, out, err = run_cli(
            capsys, "truncate", "--input", str(fixture_path()), "--lengths", lengths
        )
        assert code == 1 and out == ""
        assert err == f"error: --lengths: expected comma-separated integers, got {lengths!r}\n"

    def test_padded_lengths_are_stripped(self, capsys):
        argv = ["truncate", "--input", str(fixture_path()), "--format", "json"]
        _, plain, _ = run_cli(capsys, *argv, "--lengths", "2")
        code, padded, err = run_cli(capsys, *argv, "--lengths", " 2 ")
        assert code == 0 and err == "" and padded == plain

    def test_bad_lengths_are_refused_before_the_input_is_read(self, capsys):
        code, out, err = run_cli(
            capsys, "truncate", "--input", "/nonexistent.csv", "--lengths", "x"
        )
        assert (code, out) == (1, "")
        assert err == "error: --lengths: expected comma-separated integers, got 'x'\n"

    @pytest.mark.parametrize("lengths", ["0", "-1"])
    def test_non_positive_lengths_keep_the_range_error(self, capsys, lengths):
        code, _, err = run_cli(
            capsys, "truncate", "--input", str(fixture_path()), "--lengths", lengths
        )
        assert code == 1 and err == f"error: truncation length {lengths} outside 1..3\n"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestHarness:
    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--ballot", "a>b", "--bogus")
        assert code == 1 and err.startswith("error:")

    def test_unknown_subcommand_rejected(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1 and err.startswith("error:")

    def test_json_output_is_byte_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "witness", "--ballot", "x>y>z>a~b~c~d", "--format", "json"
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]
        for _ in range(2):
            _, out, _ = run_cli(capsys, "verify", "--n", "3", "--format", "json")
            outputs.append(out)
        assert outputs[2] == outputs[3]

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["analyze", "--ballot", "x>y>z>a~b~c~d"],
                "fed7c121cb6f3a9caeb587a9d5a23788e907022a41fb7b7882758cd9efd000d3",
            ),
            (
                ["analyze", "--ballot", "c>a>b>d"],
                "d8a00929837004db9fb0edd2e9118d7cf711d6192cbbc5784ba7d0b8ca081653",
            ),
            (
                ["analyze", "--ballot", "b", "--candidates", "a,b,c,d,e"],
                "6c7c5cfaf5387e3bdfc76bdb7d16b66b6d1062a0ad4603f5c6b665da17c1df17",
            ),
            (
                ["verify", "--n", "4"],
                "da7dfc62fab647a7ffe67a7e0800dbf7453c9b6965e3cdfa347db078c31e22da",
            ),
        ],
        ids=["analyze-tied-tail", "analyze-total", "analyze-universe", "verify-n4"],
    )
    def test_json_bytes_are_pinned(self, capsys, argv, sha256):
        # Digests of the JSON output before the claim bundle was shared;
        # refactors must leave every byte in place.
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["tabulate"],
                "9d879781aa5e81bc8b216aa2eca507bd946ccd6ca0a9e9efc711f48c9474744d",
            ),
            (
                ["truncate", "--lengths", "1,2,3"],
                "aa61d9c4f71227dbaa6590e28fcf61b019c2583f738f50116c88013050e71456",
            ),
        ],
        ids=["tabulate-fixture", "truncate-fixture"],
    )
    def test_election_json_bytes_are_pinned(self, capsys, argv, sha256):
        # Digests of the bundled fixture's JSON from when every truncation
        # length was tabulated over rebuilt ballots.
        code, out, _ = run_cli(
            capsys, *argv, "--input", str(fixture_path()), "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["tabulate"],
                "1d1e96ee31acedd9283a8e9f9ade13974f2171df53d16986a117cc94d36a8e8e",
            ),
            (
                ["truncate", "--lengths", "1,2,3,4,5,6,7,8,9,10"],
                "b9c26a2af879bd1adf8728b6d353bf09e27491109d08d6f56f9d70e8636344aa",
            ),
        ],
        ids=["tabulate-2000", "truncate-2000"],
    )
    def test_election_json_bytes_are_pinned_at_scale(self, capsys, tmp_path, argv, sha256):
        # Digests of a seeded 10-candidate, 2,000-voter election from when
        # every round re-walked every distinct chain.
        path = tmp_path / "election.csv"
        path.write_text(seeded_election_csv(), encoding="utf-8")
        code, out, _ = run_cli(capsys, *argv, "--input", str(path), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_profile_report_json_bytes_are_pinned_at_scale(self, tmp_path):
        # Digest of the seeded 2,000-voter election's profile report from
        # when every carried ballot's reports were relabeled one by one.
        path = tmp_path / "election.csv"
        path.write_text(seeded_election_csv(), encoding="utf-8")
        out = json.dumps(profile_report(load_profile(path)), sort_keys=True)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8988dc0e2ceb3641c1f041cc2bc8a79b323ccdbd4ce6ef7fa8703efc55fb1e6f"
        )

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["theorem3", "--full", "--ballot", "a>b~c~d~e~f"],
                "22e48ba19a29a76736e22e5cbea4afa341a78f8ec108e01ccceb9e227f834b4d",
            ),
            (
                ["theorem3", "--all-subsets", "--ballot", "a>b~c~d"],
                "a028abafcbbe394810d919b675823b27b41331e1d3ef426c557ff0c0b474d900",
            ),
        ],
        ids=["theorem3-worst-full", "theorem3-all-subsets"],
    )
    def test_theorem3_json_bytes_are_pinned(self, capsys, argv, sha256):
        # Digests of the JSON output from when the disjunct-2 search walked
        # every subset of the unranked pairs.
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["verify", "--n", "5"],
                "a838add151fdd1e7c8785da12d0fd4fe9c5f87f971149a9f2d7c94f8e8bb7e3d",
            ),
            (
                ["analyze", "--ballot", "f>c>k>a>h>b~d~e~g~i~j~l"],
                "b1c76f47ce8e3d8fc0a4364a2ded923dd7f56630f3d65db5ffdb0cb5b06984a9",
            ),
            (
                ["verify", "--n", "7"],
                "570826298ca1a10356898c31bc35ecbbe0f690ca8d8c3d601f200fcdda299a16",
            ),
        ],
        ids=["verify-n5", "analyze-12-candidates", "verify-n7"],
    )
    def test_relation_json_bytes_are_pinned(self, capsys, argv, sha256):
        # Digests of the JSON output from when joins, meets and covers
        # rescanned the pair table on every call.
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["witness", "--ballot", "x>y>z>a~b~c~d"],
                "1b272ca6a74239d8ed17223dff272534bb134b36f2ec77c94d3f4508293477af",
            ),
            (
                ["witness", "--ballot", "a>b~c~d~e~f~g~h~i~j~k~l"],
                "bfc0e9c2137e18079be43ecc8ffd7dfda3314750b04fe3b98d106f2fff9d1d37",
            ),
            (
                ["enumerate", "--n", "4"],
                "adffda96a3b1b5706ade17eaea915abf03f19cb2865e3e120626ee4de465a4be",
            ),
            (
                ["theorem3", "--full", "--ballot", "a>b~c~d~e~f~g~h~i~j~k~l"],
                "25b1201a305cd97e9d38559cdfbdc83a40d189479d43b7e0c73578f93ad2158b",
            ),
        ],
        ids=["witness-tied-tail", "witness-12-candidates", "enumerate-n4", "theorem3-12-full"],
    )
    def test_query_json_bytes_are_pinned(self, capsys, argv, sha256):
        # Digests of the JSON output from when json.dumps(indent=2) wrote it.
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["analyze", "--ballot", "x>y>z>a~b~c~d"],
                "5f08fa29289a3ea5fd51a469861804297b2d4383ee6ffe7fcdd592d8ec9ae2be",
            ),
            (
                ["analyze", "--ballot", "a"],
                "06972c9bf1b15287e9bd430820a94a3d5fb1c1a27852df01f210e1e2f2d98ac3",
            ),
            (
                ["verify", "--n", "4"],
                "c15404b1d61b036e44b91cc5a7644aea57f3d4ad29dc4c2a234fa811d0bcdaec",
            ),
            (
                ["enumerate", "--n", "3"],
                "94ad2de9455fc3cce437578dd4b3e321e1089efd23a5b5f9878a0fd8e017c59a",
            ),
            (
                ["theorem3", "--full", "--ballot", "a>b~c"],
                "a62b181ecb2ab9de20ffaa714ab1257d3540ed3e5d858a5c507ca0c1cf9e9de2",
            ),
            (
                ["theorem3", "--all-subsets", "--ballot", "a>b~c"],
                "bb3dc288e31b22eb0f16b698c3f3d24e3de2c27a7305cd6a9bee1fff2a6778b4",
            ),
            (
                ["witness", "--ballot", "g>a~b"],
                "d699699dd59aa1fefad5d1e4ea0a624f8974336f4600271ac45c1747287f4523",
            ),
            (
                ["tabulate", "--input", str(fixture_path())],
                "715e14f7e0c9297e8e3eeef6b540f7015284b7fc65fc9b35bb415907516e34a6",
            ),
            (
                ["truncate", "--input", str(fixture_path()), "--lengths", "1,2,3"],
                "78561e3d1873436bc14750ab29d37ce071fb3773e529759b4f48b07a70298e73",
            ),
            (
                ["truncate", "--input", str(fixture_path()), "--lengths", "2,3"],
                "e61450b5ef668c491dcc4bcd96214c0511b4066b614630d6a4568a9da6c45b6b",
            ),
        ],
        ids=[
            "analyze-tied-tail", "analyze-one-candidate", "verify-n4", "enumerate-n3",
            "theorem3-full", "theorem3-all-subsets", "witness", "tabulate-fixture",
            "truncate-divergent", "truncate-no-divergence",
        ],
    )
    def test_text_bytes_are_pinned(self, capsys, argv, sha256):
        # Digests of the default text output from when each subcommand
        # printed its own payload.
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_one_parser_serves_every_call(self, capsys):
        calls = [
            ["analyze", "--ballot", "x>y>z>a~b~c~d", "--format", "json"],
            ["verify", "--n", "3", "--bogus"],
            ["witness", "--ballot", "a>b~c", "--format", "json"],
            ["theorem3", "--full", "--all-subsets", "--ballot", "a>b~c"],
            ["theorem3", "--ballot", "a>b~c~d"],
            ["tabulate", "--input", str(fixture_path()), "--format", "json"],
            ["frobnicate"],
            ["truncate", "--input", str(fixture_path()), "--lengths", "1,2,3"],
            ["verify", "--n", "3"],
        ]
        shared = [run_cli(capsys, *argv) for argv in calls]
        assert cli._build_parser.cache_info().currsize == 1
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 1, 0, 1, 0, 0, 1, 0, 0]

    def test_closed_stdout_exits_141_without_a_message(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["enumerate", "--n", "3"])
        replacement = sys.stdout
        assert replacement.name == os.devnull
        replacement.close()
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_reader_closing_the_pipe_early_is_silent(self, child_env):
        # About 200 kB of JSON, more than a pipe buffers, so the writer is
        # still writing when the reader goes away.
        with subprocess.Popen(
            [sys.executable, "-m", "ballot_lattice", "enumerate", "--n", "7", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env,
        ) as proc:
            assert proc.stdout.read(16).startswith(b"{")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_only_concavity_sampling_imports_numpy(self, child_env):
        fixture = str(fixture_path())
        script = f"""
import contextlib, io, sys
import ballot_lattice
from ballot_lattice import cli
exact = [
    ["analyze", "--ballot", "x>y>z>a~b~c~d", "--format", "json"],
    ["theorem3", "--full", "--ballot", "a>b~c~d"],
    ["enumerate", "--n", "3"],
    ["tabulate", "--input", {fixture!r}],
    ["truncate", "--input", {fixture!r}, "--lengths", "1,2,3"],
]
for argv in exact:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["witness", "--ballot", "a>b~c"]) == 0
assert "numpy" in sys.modules
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_module_entry_point(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "ballot_lattice", "analyze", "--ballot", "p>q>r",
             "--format", "json"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"]["is_total"] is True


# ---------------------------------------------------------------------------
# the indented JSON writer behind --format json

# Quotes, backslashes, control characters and non-ASCII text, in keys and values.
JSON_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda k: st.sampled_from([k, -k])),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 0.1, float("nan"), float("inf"), float("-inf")]),
    JSON_TEXT,
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


def written(value) -> str:
    out = []
    cli._write(value, out, "")
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
@example({"a": {}, "b": [], "c": [{}, [], ()], "d": {"e": {"f": []}}})
@example([True, 1, False, 0, None, 1.0, -0.0, 1e16, 0.1, float("nan"), float("inf"), 2**64 + 1])
@example({"\u00e9\"\\\n": "\x00\u2028\U0001f600", "B": True, "a": 1})
def test_writer_matches_indented_json_dumps(value):
    assert written(value) == json.dumps(value, indent=2, sort_keys=True)


def test_writer_refuses_a_non_string_key():
    with pytest.raises(TypeError):
        written({"a": {1: "b"}})
