"""Seeded inputs, timed passes and output checks for the two workloads.

Every workload is a closed loop: one caller in one process runs one
operation at a time.  A pass returns the wall time of each operation, the
bytes each operation produced, and the checks that failed.  The seed only
shapes the generated inputs; the package never sees it.

Calls into the package go through module attributes (``bl.load_profile``,
``cli.main``) so that the tracer's rebinding sees them.  The checks use no
package function, so a traced run counts only the work under test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import statistics
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import ballot_lattice as bl
from ballot_lattice import cli

DEFAULT_SEED = 0

#: sha256 over one pass's outputs for the default seed.  A change that
#: alters any JSON byte the package emits on these inputs shows up as a
#: mismatch.
EXPECTED_DIGESTS = {
    "analysis": "d6f142cd654712aec0cf68ca39dfeac3968fac2b4113c1e28b8d258c90032e23",
    "election": "d85f73608f836c8c8439eb23a617af8682afc71b44c61c8e4ef8d7becc45687d",
}

Phase = Callable[[str], None]


def _no_phase(label: str) -> None:
    pass


@dataclass
class PassResult:
    """Timings in seconds per step name, a digest of the outputs, failures.

    Each operation's output is hashed as it is recorded and then dropped,
    so a pass holds no output bytes and a run's peak memory does not grow
    with its pass count.  ``failed`` counts operations with at least one
    failed check; ``failures`` holds every failed check's message.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0
    _hash: Any = field(default_factory=hashlib.sha256, repr=False)

    def record(self, step: str, seconds: float, output: bytes, problems: list[str]) -> None:
        self.samples.setdefault(step, []).append(seconds)
        self._hash.update(len(output).to_bytes(8, "big"))
        self._hash.update(output)
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{step}: {p}" for p in problems)

    def digest(self) -> str:
        """sha256 over every output so far, each prefixed by its length."""
        return self._hash.hexdigest()


def _dumps(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def _timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process ``cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def warm_up() -> None:
    """First call into every layer, on inputs far smaller than any workload's.

    Part of ``setup_s``: work a later change moves into import or first
    use lands here.
    """
    bl.exhaustive_verify(3)
    profile = bl.load_profile(bl.fixture_path())
    bl.tabulate_irv(profile)
    bl.truncation_experiment(profile, (1, 2, 3))
    bl.profile_report(profile)
    for argv in (
        ["analyze", "--ballot", "x>y>z>a~b~c~d"],
        ["witness", "--ballot", "x>y>z>a~b~c~d"],
        ["theorem3", "--full", "--ballot", "x>y>z>a~b~c~d"],
    ):
        run_cli(argv + ["--format", "json"])


def census_size(n: int) -> int:
    """Distinct ballots on n candidates, counted independently of the package.

    Ranked prefixes of every length, except length n - 1, which names the
    same relation as the full ranking.
    """
    return sum(
        math.perm(n, k) for k in range(1, n + 1) if n == 1 or k != n - 1
    )


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); the median when there are
    too few samples for any tail.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return statistics.median(ordered), 50.0, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def _median_ms(values: list[float]) -> tuple[float, str]:
    return 1000 * statistics.median(values), f"median of {len(values)}"


class Workload:
    """One seeded input set and the pass that runs on it.

    ``names`` are, in order, the figures the ``step1_ms`` .. ``step4_ms``
    end-to-end metrics hold on this workload; a name's suffix gives the
    unit it is read in.  :meth:`figures` may name more, which are printed
    but not compared.
    """

    name: str
    names: tuple[str, str, str, str]

    def facts(self) -> dict:
        raise NotImplementedError

    def run_pass(self, phase: Phase = _no_phase) -> PassResult:
        raise NotImplementedError

    def figures(self, samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        """Each named figure in milliseconds, with how it was taken."""
        raise NotImplementedError

    def ratios(self) -> list[tuple[str, str, str, int]]:
        """(function, phase, base name, base size) for calls-per-unit ratios."""
        return []

    def expected_digest(self, seed: int) -> str | None:
        return EXPECTED_DIGESTS[self.name] if seed == DEFAULT_SEED else None


def check_census(n: int, payload: dict) -> list[str]:
    """What must hold of ``exhaustive_verify(n).to_dict()`` for any n."""
    problems = []
    size = census_size(n)
    if not payload["ok"]:
        problems.append(f"must-hold failures {payload['must_failures']}")
    if payload["ballot_count"] != size:
        problems.append(f"ballot_count {payload['ballot_count']} != {size}")
    for claim in payload["claims"]:
        seen = claim["holds"] + claim["fails"] + claim["vacuous"]
        if seen != size:
            problems.append(f"{claim['claim']} covers {seen} of {size} ballots")
        if claim["claim"].startswith("T3."):
            vacuous_expected = 0 if n <= 4 else size
            if claim["vacuous"] != vacuous_expected:
                problems.append(
                    f"{claim['claim']} vacuous {claim['vacuous']}, expected {vacuous_expected}"
                )
    return problems


#: The T3 disjunct-2 search on five unranked candidates: 20 pairs, a 2^20
#: subset walk.  Timed once per pass as its own step, never in the stream.
WORST_THEOREM3 = "a>b~c~d~e~f"


class Analysis(Workload):
    """Per-ballot analysis: the census claim sweep, then a request stream.

    The sweep is the paper's machine-checked claims over every ballot on 4
    and on 6 candidates (default ``trials=1000``): many tiny relations.
    n = 4 is the only size where the T3 sub-record sweep runs; n = 6 is
    dominated by T4, P1, C1.submod and T1.  The sweep takes no seed.

    The stream is seeded in-process ``cli.main`` requests: exactly half
    ``analyze``, a quarter ``witness`` and a quarter ``theorem3 --full``,
    over 3..12 candidates with a uniformly drawn valid ranked-prefix length;
    ``theorem3`` ballots keep at most four unranked candidates.  It is the
    large-n, few-relations path, the opposite of the sweep, and the only
    load on ``cli`` (argument parsing and JSON rendering).
    """

    name = "analysis"
    names = ("verify_n4_s", "verify_n6_s", "query_p50_ms", "theorem3_worst_s")
    #: Sweeps per pass for each n, as :meth:`run_pass` runs them; the
    #: short n = 4 sweep runs four times so that its median rests on more
    #: samples than the run has passes.
    sweeps = {4: 4, 6: 1}

    def __init__(self, seed: int, workdir: Path, requests: int = 600):
        del workdir
        rng = random.Random(f"queries-{seed}")
        kinds = ["analyze"] * (requests // 2) + ["witness", "theorem3"] * (requests // 4)
        rng.shuffle(kinds)
        self.requests: list[tuple[str, int, list[str]]] = []
        for kind in kinds:
            n = rng.randint(3, 12)
            text = self._ballot(rng, n, max_unranked=4 if kind == "theorem3" else n)
            head = ["theorem3", "--full"] if kind == "theorem3" else [kind]
            self.requests.append((kind, n, head + ["--ballot", text, "--format", "json"]))

    @staticmethod
    def _ballot(rng: random.Random, n: int, max_unranked: int) -> str:
        names = rng.sample(string.ascii_lowercase, n)
        # A prefix of n - 1 names the same relation as the full ranking.
        lengths = [k for k in range(1, n + 1) if k != n - 1 and n - k <= max_unranked]
        k = rng.choice(lengths)
        text = ">".join(names[:k])
        if k < n:
            text += ">" + "~".join(sorted(names[k:]))
        return text

    def facts(self) -> dict:
        kinds = Counter(kind for kind, _, _ in self.requests)
        sizes = Counter(n for _, n, _ in self.requests)
        return {
            "census_ballots": {f"n{n}": census_size(n) for n in self.sweeps},
            "trials": 1000,
            "requests": len(self.requests),
            "kinds": dict(sorted(kinds.items())),
            "candidates_histogram": {str(n): sizes[n] for n in sorted(sizes)},
            "worst_theorem3": WORST_THEOREM3,
        }

    def run_pass(self, phase: Phase = _no_phase) -> PassResult:
        result = PassResult()
        half = len(self.requests) // 2
        # n4, n6, n4, stream, n4, worst, n4, stream: the short steps sit
        # between the long ones so that their samples fall at several
        # moments of a run, not in one burst (see README, "Why the spreads
        # are wide").  ``sweeps`` counts the sweeps this makes.
        for part in (0, 1):
            self._verify(result, phase, 4)
            if part == 0:
                self._verify(result, phase, 6)
            else:
                phase("theorem3_worst")
                self._request(
                    result,
                    "theorem3_worst",
                    ["theorem3", "--full", "--ballot", WORST_THEOREM3, "--format", "json"],
                )
            self._verify(result, phase, 4)
            for kind, _, argv in self.requests[part * half:(part + 1) * half]:
                phase(kind)
                self._request(result, kind, argv)
        return result

    @staticmethod
    def _verify(result: PassResult, phase: Phase, n: int) -> None:
        step = f"verify_n{n}"
        phase(step)
        summary, seconds = _timed(bl.exhaustive_verify, n)
        payload = summary.to_dict()
        result.record(step, seconds, _dumps(payload), check_census(n, payload))

    @staticmethod
    def _request(result: PassResult, step: str, argv: list[str]) -> None:
        (code, out, err), seconds = _timed(run_cli, argv)
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()}")
        try:
            json.loads(out)
        except ValueError:
            problems.append("stdout is not JSON")
        result.record(step, seconds, out.encode(), problems)

    def figures(self, samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        stream = [s for kind in ("analyze", "witness", "theorem3") for s in samples[kind]]
        tail, percentile, count = _tail(stream)
        return {
            "verify_n4_s": _median_ms(samples["verify_n4"]),
            "verify_n6_s": _median_ms(samples["verify_n6"]),
            "query_p50_ms": _median_ms(stream),
            "query_tail_ms": (1000 * tail, f"p{percentile:.2f} of {count}"),
            "witness_p50_ms": _median_ms(samples["witness"]),
            "theorem3_worst_s": _median_ms(samples["theorem3_worst"]),
        }

    def ratios(self) -> list[tuple[str, str, str, int]]:
        n4 = census_size(4) * self.sweeps[4]
        n6 = census_size(6) * self.sweeps[6]
        return [
            ("order.relation_of", "verify_n4", "ballot_n4", n4),
            ("order.relation_of", "verify_n6", "ballot_n6", n6),
            ("order.join", "verify_n6", "ballot_n6", n6),
            ("representation.theorem3_check", "verify_n4", "ballot_n4", n4),
        ]


#: Share of voters per ballot length 1..10, in percent: about 30% bullet
#: votes, thinning toward full rankings.
LENGTH_WEIGHTS = (30, 20, 15, 11, 8, 5, 4, 3, 2, 2)


class Election(Workload):
    """A seeded 10,000-voter CSV over c0..c9, analysed end to end.

    Rankings are Plackett-Luce draws with strength 1/(i+1) for ``ci``.
    Short ballots repeat heavily while long ones are almost all unique, so
    a change that exploits duplicate ballots shows its gain and its
    per-distinct-ballot cost in the same pass.
    """

    name = "election"
    names = ("load_s", "tabulate_s", "truncate_s", "report_s")
    candidates = tuple(f"c{i}" for i in range(10))
    #: Truncation sweeps per pass, as :meth:`run_pass` runs them.
    truncations = 2

    def __init__(self, seed: int, workdir: Path, voters: int = 10_000):
        rng = random.Random(f"election-{seed}")
        strengths = [1.0 / (i + 1) for i in range(len(self.candidates))]
        lengths = range(1, len(self.candidates) + 1)
        self.rows: list[tuple[str, ...]] = []
        for _ in range(voters):
            length = rng.choices(lengths, weights=LENGTH_WEIGHTS)[0]
            pool = list(range(len(self.candidates)))
            ranking = []
            for _ in range(length):
                pick = rng.choices(pool, weights=[strengths[i] for i in pool])[0]
                pool.remove(pick)
                ranking.append(self.candidates[pick])
            self.rows.append(tuple(ranking))
        self.path = workdir / f"election-{seed}.csv"
        width = len(self.candidates)
        with self.path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["voter_id"] + [f"rank{i}" for i in range(1, width + 1)])
            for number, ranking in enumerate(self.rows, start=1):
                writer.writerow([f"v{number:05d}", *ranking] + [""] * (width - len(ranking)))

    @property
    def voters(self) -> int:
        return len(self.rows)

    def facts(self) -> dict:
        distinct = set()
        for ranking in self.rows:
            if len(ranking) == len(self.candidates) - 1:
                # A lone unranked candidate is ranked last on load.
                ranking += tuple(sorted(set(self.candidates) - set(ranking)))
            distinct.add(ranking)
        lengths = Counter(len(r) for r in self.rows)
        return {
            "voters": self.voters,
            "candidates": len(self.candidates),
            "distinct_ballots": len(distinct),
            "length_histogram": {str(k): lengths[k] for k in sorted(lengths)},
        }

    def figures(self, samples: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        return {name: _median_ms(samples[name.rsplit("_", 1)[0]]) for name in self.names}

    def ratios(self) -> list[tuple[str, str, str, int]]:
        distinct = self.facts()["distinct_ballots"]
        return [
            ("election.truncate_ballot", "truncate", "voter", self.voters * self.truncations),
            ("order.relation_of", "report", "distinct_ballot", distinct),
        ]

    def run_pass(self, phase: Phase = _no_phase) -> PassResult:
        """Loads, IRV counts and a truncation sweep, then the long report,
        then the short steps again: their samples fall at several moments
        of a run, not in one burst (see README, "Why the spreads are wide").
        """
        result = PassResult()
        for part in range(self.truncations):
            for _ in range(2):
                phase("load")
                profile, seconds = _timed(bl.load_profile, self.path)
                shape = {"candidates": list(profile.candidates), "voters": len(profile.ballots)}
                result.record("load", seconds, _dumps(shape), self.check_load(profile))

                phase("tabulate")
                for _ in range(5):
                    tabulation, seconds = _timed(bl.tabulate_irv, profile)
                    full = tabulation.to_dict()
                    result.record("tabulate", seconds, _dumps(full), self.check_tabulation(full))

            phase("truncate")
            report, seconds = _timed(bl.truncation_experiment, profile, range(1, 11))
            payload = report.to_dict()
            result.record("truncate", seconds, _dumps(payload), self.check_truncation(payload, full))

            if part == 0:
                phase("report")
                summary, seconds = _timed(bl.profile_report, profile)
                result.record("report", seconds, _dumps(summary), self.check_report(summary))
        return result

    def check_load(self, profile) -> list[str]:
        problems = []
        if len(profile.ballots) != self.voters:
            problems.append(f"{len(profile.ballots)} ballots loaded, {self.voters} written")
        if tuple(profile.candidates) != self.candidates:
            problems.append(f"candidates {profile.candidates}")
        return problems

    def check_tabulation(self, payload: dict) -> list[str]:
        problems = []
        for number, rnd in enumerate(payload["rounds"], start=1):
            counted = sum(rnd["tallies"].values()) + rnd["exhausted"]
            if counted != self.voters:
                problems.append(f"round {number} counts {counted} of {self.voters} ballots")
        last = payload["rounds"][-1]
        live = self.voters - last["exhausted"]
        winner = payload["winner"]
        majority = 2 * last["tallies"].get(winner, 0) > live
        if not (majority or list(last["tallies"]) == [winner]):
            problems.append(f"winner {winner} holds no majority and is not the last standing")
        return problems

    def check_truncation(self, payload: dict, full: dict) -> list[str]:
        problems = []
        results = payload["results"]
        for length, tabulation in results.items():
            problems.extend(f"length {length}: {p}" for p in self.check_tabulation(tabulation))
        if results["10"] != full:
            problems.append("length 10 differs from the untruncated count")
        if results["9"] != results["10"]:
            problems.append("length 9 differs from length 10")
        return problems

    def check_report(self, summary: dict) -> list[str]:
        counted = sum(entry["count"] for entry in summary["ballot_types"])
        if counted != self.voters or summary["num_ballots"] != self.voters:
            return [f"report counts {counted} of {self.voters} voters"]
        return []


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Analysis, Election)}
