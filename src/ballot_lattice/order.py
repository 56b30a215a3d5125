"""Ballots as ordered structures.

A ranked-choice ballot strictly orders some of the candidates and leaves
every other candidate tied below the ranked ones.  The induced relation is
a complete weak order whose only ties sit among the minimal elements; the
predicates in this module classify arbitrary relations, so that property
is checked rather than assumed.

Relations are stored extensionally as pair tables, and the pair table is
the definition: every predicate reads it or what is derived from it.
That keeps every classifier falsifiable on hand-built relations, at the
cost of a size cap (``MAX_RELATION_CANDIDATES``).  Each relation derives,
once on construction, the sets of candidates strictly above and strictly
below each candidate; joins, meets and covers read those sets.  Once on
first use, it also derives its first transitivity gap, its table of joins
and its set of covers, and every classifier and claim reads those.
Every collection of candidate ids is read by ``_candidate_ids``, every
slot order (the ranked chain, then the sorted unranked tail) is ``_slots``,
and every candidate's position on a ballot is ``_positions``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "MAX_RELATION_CANDIDATES",
    "GrammarError",
    "RankedBallot",
    "OrderRelation",
    "CoverPair",
    "parse_ballot",
    "format_ballot",
    "relation_of",
    "transitivity_gap",
    "is_partial_order",
    "is_weak_order",
    "is_top_truncated",
    "is_complete",
    "is_total",
    "minimal_elements",
    "join",
    "meet",
    "covers",
    "join_irreducibles",
    "meet_irreducibles",
    "least_element",
    "greatest_element",
    "atoms",
    "coatoms",
]

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")

# Pair tables are quadratic in the candidate count, transitivity is cubic
# and the join table at most quartic; modularity (P1) reads the join table
# in quadratic time, and T3 is polynomial.  The one exponential walk
# left, the sub-record sweep, has its own cap
# (``representation.ALL_SUBSETS_CAP``), so this cap bounds polynomial work.
MAX_RELATION_CANDIDATES = 12


class GrammarError(ValueError):
    """Malformed ballot text.  ``column`` is the 1-based offset of the fault."""

    def __init__(self, message: str, column: int = 1):
        super().__init__(f"ballot grammar: column {column}: {message}")
        self.column = column


def _check_token(token) -> str:
    if not isinstance(token, str) or not _TOKEN.match(token):
        raise ValueError(
            f"invalid candidate id {token!r}: expected a nonempty string of "
            "letters, digits or underscores"
        )
    return token


def _pair(pair) -> tuple[str, str]:
    """``pair`` as ``(x, y)``; it must be a 2-element tuple or list of strings."""
    if isinstance(pair, (tuple, list)) and len(pair) == 2:
        x, y = pair
        if isinstance(x, str) and isinstance(y, str):
            return (x, y)
    raise ValueError(f"invalid pair {pair!r}: expected a 2-element tuple or list of candidate ids")


def _ids(values, what: str):
    """``values`` as given; a bare string, which iterates as its characters, is refused."""
    if isinstance(values, str):
        raise ValueError(f"invalid {what} {values!r}: expected a collection of candidate ids")
    return values


def _candidate_ids(values, what: str = "candidates") -> tuple[str, ...]:
    """The sorted distinct ids in ``values``; a bare string is refused.

    Each id is checked before any is hashed or sorted, in ``repr`` order (label
    order for valid ids), so an invalid id is named alike under every hash seed.
    """
    by_repr = {repr(v): v for v in _ids(values, what)}
    return tuple([_check_token(by_repr[r]) for r in sorted(by_repr)])


def _check_relation_cap(n: int) -> None:
    if n > MAX_RELATION_CANDIDATES:
        raise ValueError(
            f"candidate set of size {n} exceeds the relation cap of {MAX_RELATION_CANDIDATES}"
        )


def _exact_int(value, what: str) -> int:
    """``value`` as an exact integer; bools, floats and strings are refused."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RankedBallot:
    """One voter's ballot: a strict chain plus a tied unranked tail.

    ``ranked`` lists candidates from most preferred to least; ``unranked``
    holds everyone the voter left off the ballot, mutually tied below the
    chain.  Ranking all but one candidate pins the last one down as well,
    so a lone unranked candidate is appended to the chain on construction
    and instances never carry exactly one unranked candidate.
    """

    ranked: tuple[str, ...]
    unranked: frozenset[str] = frozenset()

    def __post_init__(self):
        ranked = tuple(map(_check_token, _ids(self.ranked, "ranked")))
        unranked = frozenset(_candidate_ids(self.unranked, "unranked"))
        if not ranked:
            raise ValueError("a ballot must rank at least one candidate")
        seen = set(ranked)
        if len(seen) != len(ranked):
            raise ValueError(f"duplicate candidate in ranking: {list(ranked)}")
        if not unranked.isdisjoint(seen):
            raise ValueError(f"candidates both ranked and unranked: {sorted(seen & unranked)}")
        _settled(ranked, unranked, self)

    @property
    def candidates(self) -> frozenset[str]:
        return frozenset(self.ranked) | self.unranked

    def is_total(self) -> bool:
        """True when every candidate is ranked."""
        return not self.unranked


def _settled(ranked: tuple, unranked: frozenset, ballot=None) -> RankedBallot:
    """``ballot``, or a new one, holding ids checked already; a lone unranked id is ranked last.

    ``RankedBallot`` settles here after its checks, and the parser and the
    bulk builders, whose ids were checked once on entry, build their ballots here.
    """
    if ballot is None:
        ballot = object.__new__(RankedBallot)
    if len(unranked) == 1:
        ranked += tuple(unranked)
        unranked = frozenset()
    object.__setattr__(ballot, "ranked", ranked)
    object.__setattr__(ballot, "unranked", unranked)
    return ballot


def parse_ballot(text: str, candidates: Iterable[str] | None = None) -> RankedBallot:
    """Parse ballot text such as ``"x>y>z>a~b~c~d"``.

    ``>`` separates strictly ranked candidates and ``~`` joins the tied
    group of unranked candidates, which may only appear as the final
    group.  When a ``candidates`` universe is supplied, ids missing from
    the text become unranked; otherwise the universe is exactly the ids
    mentioned.  Each id is checked once, by the grammar or with the universe.

    Raises:
        GrammarError: malformed text, with a 1-based column offset.
        ValueError: an invalid candidate universe, or a bare string for it.
    """
    universe = None if candidates is None else frozenset(_candidate_ids(candidates))

    groups: list[tuple[int, list[tuple[int, str]]]] = []
    column = 1
    for chunk in text.split(">"):
        ids: list[tuple[int, str]] = []
        sub = column
        for piece in chunk.split("~"):
            name = piece.strip()
            if not name:
                raise GrammarError("empty candidate id", sub)
            if not _TOKEN.match(name):
                raise GrammarError(f"invalid candidate id {name!r}", sub)
            ids.append((sub + piece.index(name[0]), name))
            sub += len(piece) + 1
        groups.append((column, ids))
        column += len(chunk) + 1

    seen: set[str] = set()
    for _, ids in groups:
        for col, name in ids:
            if name in seen:
                raise GrammarError(f"duplicate candidate {name!r}", col)
            seen.add(name)
            if universe is not None and name not in universe:
                raise GrammarError(f"unknown candidate {name!r}", col)

    for _, ids in groups[:-1]:
        if len(ids) > 1:
            raise GrammarError("tie group must be the final group", ids[1][0])

    tail_column, tail_ids = groups[-1]
    ranked = [name for _, ids in groups[:-1] for _, name in ids]
    if len(tail_ids) > 1:
        if not ranked:
            raise GrammarError("a ballot cannot consist of a tie group alone", tail_column)
        unranked = {name for _, name in tail_ids}
    else:
        ranked.append(tail_ids[0][1])
        unranked = set()
    if universe is not None:
        unranked |= universe - set(ranked) - unranked
    return _settled(tuple(ranked), frozenset(unranked))


def _slots(ballot: RankedBallot) -> tuple[str, ...]:
    """The ranked chain, then the sorted unranked tail: slot i to slot i maps a
    ballot's relation onto that of any ballot of its shape (ranked, unranked count)."""
    return ballot.ranked + tuple(sorted(ballot.unranked))


def _positions(ballot: RankedBallot) -> dict[str, int]:
    """Each candidate's position, in slot order: ranked candidate ``i`` sits at
    ``i`` and every unranked candidate at ``len(ranked)``, tied at the bottom."""
    k = len(ballot.ranked)
    return {c: i for i, c in enumerate(ballot.ranked)} | dict.fromkeys(sorted(ballot.unranked), k)


def format_ballot(ballot: RankedBallot) -> str:
    """Canonical text for a ballot; inverse of :func:`parse_ballot`."""
    text = ">".join(ballot.ranked)
    if ballot.unranked:
        text += ">" + "~".join(sorted(ballot.unranked))
    return text


@dataclass(frozen=True)
class OrderRelation:
    """Explicit reflexive binary relation over a candidate set.

    ``pairs`` lists every ``(x, y)`` with ``x`` weakly above ``y``,
    reflexive pairs included (they are added automatically).  No other
    axiom is imposed at construction; the ``is_*`` predicates classify
    instances.  ``_above[c]`` and ``_below[c]`` are the candidates
    :meth:`strictly` above and below ``c``, derived from ``pairs`` on
    construction; ``_gap``, ``_joins`` and ``_covers`` are derived on first
    use.  None of them is a field, so equality, hashing, ``repr`` and the
    dump format see ``candidates`` and ``pairs`` only.
    """

    candidates: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        cands = _candidate_ids(self.candidates)
        if not cands:
            raise ValueError("a relation needs at least one candidate")
        _check_relation_cap(len(cands))
        known = set(cands)
        pairs = set()
        for pair in self.pairs:
            x, y = _pair(pair)
            if x not in known or y not in known:
                raise ValueError(f"pair {(x, y)!r} mentions an unknown candidate")
            pairs.add((x, y))
        pairs.update((c, c) for c in cands)
        self._settle(cands, frozenset(pairs))

    def _settle(self, cands: tuple[str, ...], pairs: frozenset) -> "OrderRelation":
        """This relation on sorted ids and reflexive pairs checked already, with
        ``_above`` and ``_below`` derived.

        The constructor settles here after its checks, and :func:`relation_of`,
        whose ballot was checked when it was built, builds its relation here.
        """
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "pairs", pairs)
        above: dict[str, set[str]] = {c: set() for c in cands}
        below: dict[str, set[str]] = {c: set() for c in cands}
        for x, y in pairs:
            if (y, x) not in pairs:
                above[y].add(x)
                below[x].add(y)
        object.__setattr__(self, "_above", {c: frozenset(s) for c, s in above.items()})
        object.__setattr__(self, "_below", {c: frozenset(s) for c, s in below.items()})
        return self

    @cached_property
    def _gap(self) -> tuple[str, str, str] | None:
        """:func:`transitivity_gap`: at the first ``x >= y`` in label order where
        ``down[y] - down[x]`` is not empty, its least member completes the gap."""
        down: dict[str, set[str]] = {c: set() for c in self.candidates}
        for x, y in self.pairs:
            down[x].add(y)
        for x in self.candidates:
            for y in self.candidates:
                if y in down[x] and (missing := down[y] - down[x]):
                    return (x, y, min(missing))
        return None

    @cached_property
    def _joins(self) -> dict[tuple[str, str], str | None]:
        """Every :func:`join`, keyed by the ordered pair."""
        up = {c: self._above[c] | {c} for c in self.candidates}
        table = {}
        for i, x in enumerate(self.candidates):
            for y in self.candidates[i:]:
                ups = up[x] & up[y]
                least = [u for u in ups if ups <= up[u]]
                table[x, y] = table[y, x] = least[0] if len(least) == 1 else None
        return table

    @cached_property
    def _covers(self) -> frozenset[CoverPair]:
        """:func:`covers`: each strict pair with nothing strictly between."""
        return frozenset(
            CoverPair(x, y)
            for x in self.candidates
            for y in self._below[x]
            if not self._below[x] & self._above[y]
        )

    def holds(self, x: str, y: str) -> bool:
        """True when ``x`` is weakly above ``y``."""
        return (x, y) in self.pairs

    def strictly(self, x: str, y: str) -> bool:
        """True when ``x`` is strictly above ``y``."""
        return (x, y) in self.pairs and (y, x) not in self.pairs

    def indifferent(self, x: str, y: str) -> bool:
        """True when ``x`` and ``y`` are distinct and tied."""
        return x != y and (x, y) in self.pairs and (y, x) in self.pairs

    def to_dict(self) -> dict:
        """Dump format: all holds-pairs, reflexive ones included."""
        return {
            "candidates": list(self.candidates),
            "pairs": sorted([x, y] for x, y in self.pairs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OrderRelation":
        """The relation a :meth:`to_dict` dump describes; a malformed payload is a ``ValueError``."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"invalid relation payload {payload!r}: expected a mapping")
        for key in ("candidates", "pairs"):
            if key not in payload:
                raise ValueError(f"invalid relation payload: no {key!r}")
            if not isinstance(payload[key], Iterable):
                raise ValueError(f"invalid {key} {payload[key]!r}: expected a collection")
        return cls(payload["candidates"], payload["pairs"])

    def digest(self) -> str:
        """Short stable identifier for reports."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return "rel:" + hashlib.sha1(blob).hexdigest()[:10]


def relation_of(ballot: RankedBallot) -> OrderRelation:
    """The weak order a ballot induces.

    ``x`` is weakly above ``y`` exactly when its position (``_positions``)
    is no later: a ranked candidate is strictly above every later-ranked
    and every unranked candidate, and unranked candidates are mutually
    tied.  The result is complete by construction.  The ballot's ids were
    checked when it was built, so only the relation cap is checked here.
    """
    cands = ballot.candidates
    _check_relation_cap(len(cands))
    pos = _positions(ballot).items()
    pairs = frozenset((x, y) for x, px in pos for y, py in pos if px <= py)
    return object.__new__(OrderRelation)._settle(tuple(sorted(cands)), pairs)


def transitivity_gap(r: OrderRelation) -> tuple[str, str, str] | None:
    """First triple ``(x, y, z)`` in label order with ``x >= y >= z`` but not ``x >= z``."""
    return r._gap


def _first_pair(cands: Sequence[str], test: Callable[[str, str], bool]) -> list[str] | None:
    """The first ``[x, y]`` with ``x`` before ``y`` in ``cands`` and ``test(x, y)``, or None.

    Every pair search over a relation goes through here, so a pair witness
    is always the first such pair in label order.
    """
    for i, x in enumerate(cands):
        for y in cands[i + 1 :]:
            if test(x, y):
                return [x, y]
    return None


def _strictly_incomparable(r: OrderRelation, x: str, y: str) -> bool:
    """Neither of two distinct candidates is strictly above the other: tied or incomparable."""
    return r.holds(x, y) == r.holds(y, x)


def is_partial_order(r: OrderRelation) -> bool:
    """Reflexive, transitive and antisymmetric.

    Antisymmetry is the workable reading: a reflexive relation can never
    be asymmetric, and ties are exactly what :func:`is_weak_order`
    relaxes.  Reflexivity holds by construction.
    """
    return is_weak_order(r) and is_total(r)


def is_weak_order(r: OrderRelation) -> bool:
    """Reflexive and transitive, ties allowed.

    Transitivity of the whole relation already forces indistinguishability
    to be transitive, so no separate tie check is needed.
    """
    return transitivity_gap(r) is None


def minimal_elements(r: OrderRelation) -> frozenset[str]:
    """Candidates with nothing strictly below them."""
    return frozenset(x for x in r.candidates if not r._below[x])


def is_top_truncated(r: OrderRelation) -> bool:
    """Weak order whose ties all sit among minimal elements.

    Distinct non-minimal candidates must be strictly comparable, which
    also keeps out partial orders with incomparable non-minimal elements.
    No tie can join a minimal candidate to a non-minimal one: in a weak
    order, tied candidates have the same candidates strictly below them.
    """
    if not is_weak_order(r):
        return False
    minimal = minimal_elements(r)
    non_minimal = [x for x in r.candidates if x not in minimal]
    return _first_pair(non_minimal, lambda x, y: _strictly_incomparable(r, x, y)) is None


def is_complete(r: OrderRelation) -> bool:
    """Every pair comparable in at least one direction."""
    return _first_pair(r.candidates, lambda x, y: not (r.holds(x, y) or r.holds(y, x))) is None


def is_total(r: OrderRelation) -> bool:
    """No two distinct candidates are tied."""
    return _first_pair(r.candidates, r.indifferent) is None


def _require_candidate(r: OrderRelation, x: str) -> None:
    if x not in r.candidates:
        raise ValueError(f"unknown candidate {x!r}")


def join(r: OrderRelation, x: str, y: str) -> str | None:
    """Least upper bound of ``x`` and ``y``, or None when there is none.

    Bounds run along strict preference plus identity: ties are no help
    when hunting bounds, since every tied bottom candidate would qualify
    as a weak bound of the others and "the" least bound would stop being
    unique.  The least bound is the one upper bound that every upper
    bound sits at or strictly above.

    For a ballot relation this always exists: the higher of a comparable
    pair, or the lowest-ranked candidate above a tied pair.  Read from the join table.
    """
    _require_candidate(r, x)
    _require_candidate(r, y)
    return r._joins[x, y]


def meet(r: OrderRelation, x: str, y: str) -> str | None:
    """Greatest lower bound of ``x`` and ``y``, or None; dual of :func:`join`.

    Two distinct tied candidates have no meet: nothing sits strictly
    below them.
    """
    _require_candidate(r, x)
    _require_candidate(r, y)
    lows = (r._below[x] | {x}) & (r._below[y] | {y})
    greatest = [u for u in lows if lows <= r._below[u] | {u}]
    return greatest[0] if len(greatest) == 1 else None


@dataclass(frozen=True)
class CoverPair:
    """Strict pair with nothing strictly between: ``upper`` covers ``lower``."""

    upper: str
    lower: str


def covers(r: OrderRelation) -> frozenset[CoverPair]:
    """All covering pairs, i.e. the Hasse diagram edges, derived once per relation."""
    return r._covers


def join_irreducibles(r: OrderRelation) -> frozenset[str]:
    """Elements covering exactly one element."""
    counts = Counter(cp.upper for cp in covers(r))
    return frozenset(x for x, k in counts.items() if k == 1)


def meet_irreducibles(r: OrderRelation) -> frozenset[str]:
    """Elements covered by exactly one element."""
    counts = Counter(cp.lower for cp in covers(r))
    return frozenset(x for x, k in counts.items() if k == 1)


def _only_full_degree(r: OrderRelation, side: int) -> str | None:
    """The one candidate that is member ``side`` of ``n`` pairs, or None.

    Every relation holds its diagonal, so that candidate is weakly above
    (side 0) or below (side 1) every candidate.
    """
    n = len(r.candidates)
    full = [c for c, k in Counter(map(operator.itemgetter(side), r.pairs)).items() if k == n]
    return full[0] if len(full) == 1 else None


def least_element(r: OrderRelation) -> str | None:
    """The unique candidate everyone is weakly above, if there is one.

    Tied bottom candidates each satisfy the defining property, so a
    relation with a tied tail has no least element (and hence no atoms).
    """
    return _only_full_degree(r, 1)


def greatest_element(r: OrderRelation) -> str | None:
    """The unique candidate weakly above everyone, if there is one."""
    return _only_full_degree(r, 0)


def atoms(r: OrderRelation) -> frozenset[str]:
    """Elements covering the least element; empty without a least element."""
    bottom = least_element(r)
    if bottom is None:
        return frozenset()
    return frozenset(cp.upper for cp in covers(r) if cp.lower == bottom)


def coatoms(r: OrderRelation) -> frozenset[str]:
    """Elements covered by the greatest element; empty without one."""
    top = greatest_element(r)
    if top is None:
        return frozenset()
    return frozenset(cp.lower for cp in covers(r) if cp.upper == top)
