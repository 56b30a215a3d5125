"""Election ingestion, instant-runoff tabulation and truncation analysis.

Ballots arrive as ``voter_id,rank1,...,rankJ`` CSV rows.  Tabulation is
classic instant runoff with one deliberate stance: unranked candidates
never receive transfers, because leaving candidates off a ballot
expresses indifference between them, not consent to support whichever
survives.  Ballots whose ranked chain is wiped out leave the count as
exhausted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations, combinations_with_replacement
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .checks import ClaimReport, carry_or_evaluate, relation_claims
from .enumeration import enumerate_ballots
from .order import (
    MAX_RELATION_CANDIDATES,
    RankedBallot,
    _check_token,
    _exact_int,
    _ids,
    format_ballot,
    is_complete,
    is_top_truncated,
    is_total,
    relation_of,
)
from .representation import canonical_utility, pair_record, rationalizability_class

__all__ = [
    "ProfileError",
    "ElectionProfile",
    "TabulationRound",
    "TabulationResult",
    "TruncationReport",
    "load_profile",
    "tabulate_irv",
    "truncate_ballot",
    "truncation_experiment",
    "profile_report",
    "find_truncation_sensitive_profile",
    "fixture_path",
]


class ProfileError(ValueError):
    """Malformed election input; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"profile csv: line {line}: " if line is not None else "profile csv: "
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class ElectionProfile:
    """A finite election: candidate universe plus one ballot per voter.

    One pass over ``ballots`` rejects duplicate voter ids, checks each
    distinct ballot against the universe once, and groups the voters by
    ballot equality: ``_voters``, which counts, truncations and reports
    read, maps each distinct ballot in first-seen order to its voters.
    Not a field, it leaves equality, hashing and ``repr`` alone.
    """

    candidates: tuple[str, ...]
    ballots: tuple[tuple[str, RankedBallot], ...]

    def __post_init__(self):
        cands = tuple(sorted(set(_ids(self.candidates, "candidates"))))
        if len(cands) < 3:
            raise ValueError(
                f"an election needs at least three candidates, got {len(cands)}"
            )
        ballots = tuple((str(v), b) for v, b in self.ballots)
        if not ballots:
            raise ValueError("an election needs at least one ballot")
        universe = frozenset(cands)
        seen: set[str] = set()
        groups: dict[RankedBallot, list[str]] = {}
        for voter, ballot in ballots:
            if voter in seen:
                raise ValueError(f"duplicate voter id {voter!r}")
            seen.add(voter)
            group = groups.get(ballot)
            if group is None:
                if ballot.candidates != universe:
                    raise ValueError(
                        f"ballot for {voter!r} covers {sorted(ballot.candidates)}, "
                        f"not the election's candidates {list(cands)}"
                    )
                group = groups[ballot] = []
            group.append(voter)
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "ballots", ballots)
        object.__setattr__(self, "_voters", groups)


def _validate_header(header: list[str]) -> None:
    if not header or header[0].strip() != "voter_id":
        raise ProfileError('header must start with "voter_id"', 1)
    if len(header) < 2:
        raise ProfileError("header needs at least one rank column", 1)
    for i, cell in enumerate(header[1:], start=1):
        if cell.strip() != f"rank{i}":
            raise ProfileError(f'header column {i + 1} must be "rank{i}"', 1)


def _csv_rows(handle) -> Iterator[list[str]]:
    """The rows of a CSV file; ``csv.Error``, not a ValueError, is raised as a ProfileError."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        raise ProfileError(str(exc), reader.line_num) from None


def _scan_ranking(cells: tuple[str, ...], line: int) -> tuple[str, ...]:
    """The ranked chain in a row's rank cells; blanks may only pad out the end."""
    ranked: list[str] = []
    blank_seen = False
    for cell in (c.strip() for c in cells):
        if cell:
            if blank_seen:
                raise ProfileError("gap in ranking: blank cell before a filled cell", line)
            if cell in ranked:
                raise ProfileError(f"duplicate candidate {cell!r} in ranking", line)
            ranked.append(cell)
        else:
            blank_seen = True
    if not ranked:
        raise ProfileError("empty ranking row", line)
    return tuple(ranked)


def _blame_invalid_id(first_line: Mapping[tuple[str, ...], int]) -> None:
    """Blame the first row, in file order, that ranks an invalid id, on its first such id."""
    for chain, line in first_line.items():
        for cand in chain:
            try:
                _check_token(cand)
            except ValueError as exc:
                raise ProfileError(str(exc), line) from None


def load_profile(path, *, candidates: Iterable[str] | None = None) -> ElectionProfile:
    """Load an election from ``voter_id,rank1,...,rankJ`` CSV.

    Mentioned candidates are ranked in column order; everything else in
    the universe is unranked.  Without an explicit ``candidates`` list
    the universe is the union of all mentioned candidates.  Blank cells
    may only pad out the end of a row.

    Each distinct row of rank cells is scanned once, and each distinct
    ranked chain is validated and built into one :class:`RankedBallot`
    that every voter who cast it shares.  Each error keeps the message
    and line of a load that scans and builds every voter's row anew; an
    invalid candidate id is blamed on the first row that ranks one,
    before any ballot is built or voter id compared.

    Raises:
        ProfileError: malformed header or row, duplicate voter ids,
            candidates outside the supplied universe, or fewer than three
            candidates overall.
    """
    universe = None
    if candidates is not None:
        universe = {_check_token(c) for c in _ids(candidates, "candidates")}
    rows: list[tuple[int, str, tuple[str, ...]]] = []
    scanned: dict[tuple[str, ...], tuple[str, ...]] = {}
    # Each distinct chain, in file order, with the line of its first voter.
    first_line: dict[tuple[str, ...], int] = {}
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = _csv_rows(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError("empty file", 1) from None
        _validate_header(header)
        width = len(header)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) > width:
                raise ProfileError(
                    f"row has {len(row)} cells but the header has {width}", line
                )
            voter = row[0].strip()
            if not voter:
                raise ProfileError("missing voter_id", line)
            cells = tuple(row[1:])
            chain = scanned.get(cells)
            if chain is None:
                chain = scanned[cells] = _scan_ranking(cells, line)
                first_line.setdefault(chain, line)
            rows.append((line, voter, chain))
    if not rows:
        raise ProfileError("no ballots in file")

    if universe is not None:
        for chain, line in first_line.items():
            stray = [c for c in chain if c not in universe]
            if stray:
                raise ProfileError(f"unknown candidate {stray[0]!r}", line)
    else:
        universe = {c for chain in first_line for c in chain}
    if len(universe) < 3:
        raise ProfileError(f"fewer than 3 candidates overall (got {len(universe)})")

    everyone = frozenset(universe)
    # One ballot per chain, and one object per ballot: a chain one short of
    # the universe and its completion normalize to the same ballot.
    built: dict[tuple[str, ...], RankedBallot] = {}
    shared: dict[RankedBallot, RankedBallot] = {}
    for chain, line in first_line.items():
        try:
            ballot = RankedBallot(chain, everyone - set(chain))
        except ValueError as exc:
            # An invalid id in the derived universe fails every ballot, so
            # blame the row that ranks it rather than this one.
            _blame_invalid_id(first_line)
            raise ProfileError(str(exc), line) from None
        built[chain] = shared.setdefault(ballot, ballot)
    seen_voters: set[str] = set()
    ballots: list[tuple[str, RankedBallot]] = []
    for line, voter, chain in rows:
        if voter in seen_voters:
            raise ProfileError(f"duplicate voter_id {voter!r}", line)
        seen_voters.add(voter)
        ballots.append((voter, built[chain]))
    return ElectionProfile(tuple(sorted(universe)), tuple(ballots))


@dataclass(frozen=True)
class TabulationRound:
    """One counting round; tallies cover exactly the candidates still standing."""

    tallies: Mapping[str, int]
    eliminated: str | None
    exhausted: int

    def to_dict(self) -> dict:
        return {
            "tallies": {c: self.tallies[c] for c in sorted(self.tallies)},
            "eliminated": self.eliminated,
            "exhausted": self.exhausted,
        }


@dataclass(frozen=True)
class TabulationResult:
    rounds: tuple[TabulationRound, ...]
    winner: str

    def to_dict(self) -> dict:
        return {"rounds": [r.to_dict() for r in self.rounds], "winner": self.winner}


def tabulate_irv(profile: ElectionProfile) -> TabulationResult:
    """Instant-runoff count of a profile.

    Each round counts every ballot for its best-ranked surviving
    candidate; ballots whose ranked chain has been wiped out are
    exhausted and stay out.  A candidate holding a strict majority of the
    live ballots wins; otherwise the lowest tally is eliminated, breaking
    ties by the previous round's tally and then by smallest id.  With a
    single candidate left, that candidate wins.  The count is
    :func:`_tabulate`'s walk over the profile's voters grouped by ballot.
    """
    return _tabulate(profile)


def _tabulate(profile: ElectionProfile, depth: int | None = None) -> TabulationResult:
    """The instant-runoff round loop over the profile's ballot groups, as a hand count.

    Each ballot group is one entry, its chain weighted by its voters.  Every
    standing candidate keeps a pile of the entries counting for it, each
    entry a ``(chain, weight, end, cursor)`` held by index in parallel
    lists with ``chain[cursor]`` the holder, and a running total, which is
    that round's tally.  Eliminating a candidate moves only its pile: each
    entry's cursor skips the eliminated candidates, and the entry joins
    the pile of the next standing candidate it ranks, or is exhausted once
    the cursor reaches ``end``.  ``depth`` cuts every chain to its first
    ``depth`` links, which is how a truncated count exhausts; None counts
    whole chains.
    """
    # Sorted, like the profile's candidates: eliminations only delete keys.
    piles: dict[str, list[int]] = {c: [] for c in profile.candidates}
    totals = dict.fromkeys(piles, 0)
    chains = [ballot.ranked for ballot in profile._voters]
    weights = list(map(len, profile._voters.values()))
    ends = list(map(len, chains))
    if depth is not None:
        ends = [end if end < depth else depth for end in ends]
    # Every chain starts in one pile, held by nobody, before its first link.
    cursors = [-1] * len(chains)
    moving: Iterable[int] = range(len(chains))
    exhausted = 0
    rounds: list[TabulationRound] = []
    prev_tallies: dict[str, int] = {}
    while True:
        for i in moving:
            chain, end = chains[i], ends[i]
            cursor = cursors[i] + 1
            while cursor < end and chain[cursor] not in totals:
                cursor += 1
            if cursor < end:
                cursors[i] = cursor
                piles[chain[cursor]].append(i)
                totals[chain[cursor]] += weights[i]
            else:
                exhausted += weights[i]
        tallies = dict(totals)
        live = len(profile.ballots) - exhausted
        leader = max(tallies, key=tallies.get)
        # With one candidate left, ``tallies`` has one key: the leader is the survivor.
        if len(tallies) == 1 or (live > 0 and 2 * tallies[leader] > live):
            rounds.append(TabulationRound(tallies, None, exhausted))
            return TabulationResult(tuple(rounds), leader)
        low = min(tallies.values())
        tied = [c for c in tallies if tallies[c] == low]
        loser = min(tied, key=lambda c: (prev_tallies.get(c, 0), c))
        rounds.append(TabulationRound(tallies, loser, exhausted))
        del totals[loser]
        moving = piles.pop(loser)
        prev_tallies = tallies


def truncate_ballot(ballot: RankedBallot, length: int) -> RankedBallot:
    """Keep the first ``length`` ranked entries; dropped ones become unranked.

    Ballot normalization applies, so truncating to one below the field
    size is a no-op.
    """
    length = _exact_int(length, "truncation length")
    if length < 1:
        raise ValueError("truncation length must be at least 1")
    keep = ballot.ranked[:length]
    return RankedBallot(keep, frozenset(ballot.candidates) - set(keep))


@dataclass(frozen=True)
class TruncationReport:
    """Tabulations per ballot length plus the length pairs whose winners differ."""

    results: Mapping[int, TabulationResult]
    winner_divergence: tuple[tuple[int, int], ...]

    def winners(self) -> dict[int, str]:
        return {length: result.winner for length, result in sorted(self.results.items())}

    def to_dict(self) -> dict:
        return {
            "results": {str(k): v.to_dict() for k, v in sorted(self.results.items())},
            "winners": {str(k): v for k, v in self.winners().items()},
            "winner_divergence": [list(pair) for pair in self.winner_divergence],
        }


def truncation_experiment(
    profile: ElectionProfile, lengths: Iterable[int]
) -> TruncationReport:
    """Re-tabulate the election at each ballot length and compare winners.

    Truncating a ballot to length L keeps the first L links of its ranked
    chain, so each length is one :func:`_tabulate` walk over the profile's
    ballot groups with depth L: a chain exhausts once its cursor passes
    its first L links.  No ballot is rebuilt and no voter regrouped.  As
    with :func:`truncate_ballot`, normalization makes lengths n - 1 and n
    both keep the full chain.
    """
    wanted = sorted({_exact_int(v, "truncation length") for v in lengths})
    if not wanted:
        raise ValueError("no truncation lengths given")
    n = len(profile.candidates)
    for length in wanted:
        if not 1 <= length <= n:
            raise ValueError(f"truncation length {length} outside 1..{n}")
    results = {
        length: _tabulate(profile, length if length < n - 1 else n)
        for length in wanted
    }
    divergence = tuple(
        (a, b)
        for a, b in combinations(wanted, 2)
        if results[a].winner != results[b].winner
    )
    return TruncationReport(results, divergence)


def _order_block(ballot: RankedBallot, subject: str) -> tuple[list[ClaimReport], tuple[dict, str]]:
    """Relation claims, then order flags and rationalizability class, of one ballot."""
    rel = relation_of(ballot)
    flags = {
        "is_top_truncated": is_top_truncated(rel),
        "is_complete": is_complete(rel),
        "is_total": is_total(rel),
    }
    cls = rationalizability_class(canonical_utility(ballot), pair_record(ballot))
    return relation_claims(rel, subject), (flags, cls)


def profile_report(profile: ElectionProfile) -> dict:
    """Per-ballot structural summaries plus aggregate ranking statistics.

    Each ballot type is one of the profile's ballot groups.  Order-level
    checks are skipped with a note when the candidate universe exceeds the
    relation cap; tabulation itself has no such cap.

    The order-level results depend only on a ballot's shape (ranked count,
    unranked count), so :func:`~ballot_lattice.checks.carry_or_evaluate`
    evaluates them on the first ballot of each shape, and every ballot of
    the shape reads its ``claims`` rows from that shape's positional plan.
    """
    n = len(profile.candidates)
    fractions = [str(Fraction(k, n)) for k in range(n + 1)]
    shapes: dict = {}
    entries = []
    total_ranked = 0
    for text, ballot, voters in sorted(
        ((format_ballot(b), b, v) for b, v in profile._voters.items()), key=itemgetter(0)
    ):
        total_ranked += len(ballot.ranked) * len(voters)
        entry: dict = {
            "ballot": text,
            "voters": sorted(voters),
            "count": len(voters),
            "ranked_fraction": fractions[len(ballot.ranked)],
        }
        if n <= MAX_RELATION_CANDIDATES:
            claims, (flags, cls) = carry_or_evaluate(shapes, ballot, text, _order_block)
            entry["order"] = dict(flags)
            entry["claims"] = claims
            entry["rationalizability"] = cls
        else:
            entry["order"] = {
                "skipped": (
                    "candidate universe exceeds the relation cap of "
                    f"{MAX_RELATION_CANDIDATES}"
                )
            }
        entries.append(entry)

    mean_fraction = Fraction(total_ranked, n * len(profile.ballots))
    return {
        "candidates": list(profile.candidates),
        "num_ballots": len(profile.ballots),
        "ballot_types": entries,
        "aggregate": {
            "mean_ranked_fraction": str(mean_fraction),
            "mean_ranked_pct": round(float(mean_fraction) * 100, 1),
        },
    }


def find_truncation_sensitive_profile(
    candidates: Iterable[str] = ("a", "b", "c"), max_voters: int = 9
) -> tuple[ElectionProfile, tuple[int, int]] | None:
    """Exhaustively search small profiles for truncation sensitivity.

    Walks profiles in deterministic order (voter count ascending, then
    ballot multisets lexicographically over the census order) and returns
    the first whose instant-runoff winner differs between two truncation
    lengths, together with that length pair.  The bundled fixture at
    :func:`fixture_path` is exactly the first hit for the defaults.
    Returns None when nothing in range diverges.
    """
    cands = tuple(sorted(set(candidates)))
    types = list(enumerate_ballots(cands))
    lengths = range(1, len(cands) + 1)
    for voters in range(1, max_voters + 1):
        for combo in combinations_with_replacement(range(len(types)), voters):
            profile = ElectionProfile(
                cands,
                tuple((f"v{i + 1}", types[t]) for i, t in enumerate(combo)),
            )
            report = truncation_experiment(profile, lengths)
            if report.winner_divergence:
                return profile, report.winner_divergence[0]
    return None


def fixture_path() -> Path:
    """Path of the bundled truncation-sensitivity election."""
    return Path(str(resources.files("ballot_lattice").joinpath("data/truncation_fixture.csv")))
