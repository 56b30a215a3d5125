"""Command-line surface: one subcommand per analysis, text or JSON out.

Exit codes: 0 success, 1 validation error (single ``error:`` line on
stderr), 2 when a must-hold claim fails during ``verify``, 141 (the
status a shell reports for a process ended by SIGPIPE) when stdout is
closed before the output is written, e.g. ``... | head -3``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .checks import _witness_check, relation_claims
from .election import (
    load_profile,
    tabulate_irv,
    truncation_experiment,
)
from .enumeration import (
    MAX_ENUMERATION_CANDIDATES,
    default_candidates,
    enumerate_ballots,
    exhaustive_verify,
)
from .order import (
    _candidate_ids,
    covers,
    atoms,
    coatoms,
    format_ballot,
    is_complete,
    is_partial_order,
    is_top_truncated,
    is_total,
    is_weak_order,
    join_irreducibles,
    meet_irreducibles,
    parse_ballot,
    relation_of,
)
from .representation import (
    _disjunction,
    canonical_utility,
    pair_record,
    subrecord_verdicts,
)

__all__ = ["main"]

class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 1 instead
        raise _UsageError(message)


def _integer(raw: str) -> int:
    """``raw`` as an integer: an optional minus sign and ASCII digits.

    int() alone would also take "0_3" and non-ASCII digits such as "\u0663".
    """
    text = raw.strip()
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    return int(text)


def _census_size(raw: str) -> int:
    """``--n``: an integer within the enumeration cap."""
    n = _integer(raw)
    if not 1 <= n <= MAX_ENUMERATION_CANDIDATES:
        raise argparse.ArgumentTypeError(f"must be within 1..{MAX_ENUMERATION_CANDIDATES}")
    return n


def _universe(raw: str) -> tuple[str, ...]:
    """The ``--candidates`` universe, validated before any input is read."""
    try:
        return _candidate_ids(piece.strip() for piece in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"--candidates: {exc}") from None


def _lengths(raw: str) -> list[int]:
    """The ``--lengths`` list, validated before any input is read."""
    try:
        return [_integer(piece) for piece in raw.split(",")]
    except argparse.ArgumentTypeError:
        raise ValueError(f"--lengths: expected comma-separated integers, got {raw!r}") from None


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode


def _write(value, out: list[str], indent: str) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2, sort_keys=True)``
    writes it, nested at ``indent``.

    Only the indented dump runs json's pure-Python encoder; here strings and
    keys go through its C escaper, and every other scalar through its own
    compact encoder.  A key that is not a string is a ``TypeError``.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write(value[key], out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]" if value else "[]")
    else:
        out.append(_encode_scalar(value))


def _cmd_analyze(args) -> tuple:
    ballot = args.ballot
    rel = relation_of(ballot)
    text = format_ballot(ballot)
    reports = relation_claims(rel, text)
    payload = {
        "ballot": text,
        "candidates": list(rel.candidates),
        "ranked": list(ballot.ranked),
        "unranked": sorted(ballot.unranked),
        "classification": {
            "is_partial_order": is_partial_order(rel),
            "is_weak_order": is_weak_order(rel),
            "is_top_truncated": is_top_truncated(rel),
            "is_complete": is_complete(rel),
            "is_total": is_total(rel),
        },
        "hasse": sorted([cp.upper, cp.lower] for cp in covers(rel)),
        "join_irreducibles": sorted(join_irreducibles(rel)),
        "meet_irreducibles": sorted(meet_irreducibles(rel)),
        "atoms": sorted(atoms(rel)),
        "coatoms": sorted(coatoms(rel)),
        "canonical_utility": canonical_utility(ballot).to_dict(),
        "claims": [report.to_dict() for report in reports],
        "relation": rel.to_dict(),
    }

    def render(p):
        print(f"ballot: {p['ballot']}")
        print(f"candidates ({len(p['candidates'])}): {' '.join(p['candidates'])}")
        flags = [name[3:] for name, value in p["classification"].items() if value]
        print(f"order: {', '.join(flags) if flags else '(none)'}")
        print("hasse cover lists:")
        uppers: dict[str, list[str]] = {}
        for upper, lower in p["hasse"]:
            uppers.setdefault(upper, []).append(lower)
        for upper in sorted(uppers):
            print(f"  {upper}")
            for lower in sorted(uppers[upper]):
                print(f"    {lower}")
        if not uppers:
            print("  (no cover edges)")
        print(f"join-irreducibles: {' '.join(p['join_irreducibles']) or '(none)'}")
        print(f"meet-irreducibles: {' '.join(p['meet_irreducibles']) or '(none)'}")
        print(f"atoms: {' '.join(p['atoms']) or '(none)'}")
        print(f"co-atoms: {' '.join(p['coatoms']) or '(none)'}")
        utility = " ".join(f"{c}={v}" for c, v in p["canonical_utility"].items())
        print(f"canonical utility: {utility}")
        print("claims:")
        for claim in p["claims"]:
            line = f"  {claim['claim']:5s} {claim['verdict']}"
            if claim["witness"] is not None:
                line += f"  witness={json.dumps(claim['witness'], sort_keys=True)}"
            print(line)

    return payload, render


def _cmd_verify(args) -> tuple:
    summary = exhaustive_verify(args.n)
    payload = summary.to_dict()

    def render(p):
        print(f"exhaustive verification: n={p['n']}, {p['ballot_count']} ballots")
        for claim in p["claims"]:
            kind = "MUST" if claim["must"] else "info"
            checked = claim["holds"] + claim["fails"] + claim["vacuous"]
            status = "ok" if not (claim["must"] and claim["fails"]) else "FAILED"
            print(
                f"  {claim['claim']:10s} [{kind}] holds {claim['holds']}/{checked}"
                f" fails {claim['fails']} vacuous {claim['vacuous']}  {status}"
                f"  ({claim['description']})"
            )
        print(f"result: {'ok' if p['ok'] else 'MUST-HOLD FAILURE: ' + ', '.join(p['must_failures'])}")

    return payload, render, 0 if summary.ok else 2


def _cmd_enumerate(args) -> tuple:
    ballots = [format_ballot(b) for b in enumerate_ballots(default_candidates(args.n))]
    payload = {"n": args.n, "count": len(ballots), "ballots": ballots}

    def render(p):
        for text in p["ballots"]:
            print(text)

    return payload, render


def _cmd_theorem3(args) -> tuple:
    ballot = args.ballot
    # The record is the ballot's own, so it is empty exactly when there is one candidate.
    if len(ballot.candidates) == 1:
        raise ValueError(
            f"ballot {format_ballot(ballot)!r} has one candidate, so its record is empty"
        )
    if args.all_subsets:
        counts = {"disjunct1": 0, "disjunct2": 0, "fails": 0}
        fails_all_unranked = 0
        unexpected = []
        total = 0
        for chosen, verdict in subrecord_verdicts(ballot):
            total += 1
            counts[verdict.outcome] += 1
            if verdict.outcome == "fails":
                if verdict.all_unranked:
                    fails_all_unranked += 1
                elif len(unexpected) < 10:
                    unexpected.append([list(p) for p in chosen])
        payload = {
            "ballot": format_ballot(ballot),
            "mode": "all-subsets",
            "total_subrecords": total,
            "counts": counts,
            "fails_all_unranked": fails_all_unranked,
            "unexpected_failures": unexpected,
        }

        def render(p):
            print(f"ballot: {p['ballot']}")
            print(f"sub-records checked: {p['total_subrecords']}")
            for key, value in sorted(p["counts"].items()):
                print(f"  {key}: {value}")
            print(f"fails on all-unranked records: {p['fails_all_unranked']}")
            if p["unexpected_failures"]:
                print(f"unexpected failures: {p['unexpected_failures']}")
            else:
                print("unexpected failures: none")

        return payload, render

    verdict = _disjunction(ballot, pair_record(ballot).pairs)
    payload = {
        "ballot": format_ballot(ballot),
        "mode": "full",
        "verdict": verdict.to_dict(),
    }

    def render(p):
        print(f"ballot: {p['ballot']}")
        v = p["verdict"]
        print(f"disjunct: {v['disjunct']}")
        print(f"witness: {json.dumps(v['witness'], sort_keys=True)}")
        print(f"all_unranked: {v['all_unranked']}")

    return payload, render


def _cmd_witness(args) -> tuple:
    ballot = args.ballot
    record = pair_record(ballot)  # checks the relation cap before anything is sampled
    witness, utilities, rationalizability, concavity, _ = _witness_check(ballot, record)
    payload = {
        "ballot": format_ballot(ballot),
        "witness": witness.to_dict(),
        "utilities": utilities.to_dict(),
        "rationalizability": rationalizability,
        "concavity": concavity.to_dict(),
    }

    def render(p):
        print(f"ballot: {p['ballot']}")
        print(f"dimension: {p['witness']['dimension']}")
        print(f"peak: ({', '.join(p['witness']['peak'])})")
        print("points:")
        for cand, coords in p["witness"]["points"].items():
            print(f"  {cand}: ({', '.join(coords)})  u={p['utilities'][cand]}")
        print(f"rationalizability: {p['rationalizability']}")
        ok = "passed" if p["concavity"]["ok"] else "FAILED"
        print(f"concavity sampling: {ok} ({p['concavity']['trials']} trials)")

    return payload, render


def _cmd_tabulate(args) -> tuple:
    payload = tabulate_irv(args.input).to_dict()

    def render(p):
        for number, rnd in enumerate(p["rounds"], start=1):
            tallies = " ".join(f"{c}={v}" for c, v in sorted(rnd["tallies"].items()))
            line = f"round {number}: {tallies}  exhausted={rnd['exhausted']}"
            if rnd["eliminated"]:
                line += f"  eliminated={rnd['eliminated']}"
            print(line)
        print(f"winner: {p['winner']}")

    return payload, render


def _cmd_truncate(args) -> tuple:
    payload = truncation_experiment(args.input, args.lengths).to_dict()

    def render(p):
        for length, winner in sorted(p["winners"].items(), key=lambda kv: int(kv[0])):
            print(f"length {length}: winner {winner}")
        if p["winner_divergence"]:
            pairs = ", ".join(f"{a} vs {b}" for a, b in p["winner_divergence"])
            print(f"winner divergence: {pairs}")
        else:
            print("winner divergence: none")

    return payload, render


# Built on the first call and reused by every later one in the process.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ballot-lattice", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    # Each input flag is declared once, on a parent its subcommands share.
    universe = argparse.ArgumentParser(add_help=False)
    universe.add_argument("--candidates", help="comma-separated candidate universe")
    one_ballot = argparse.ArgumentParser(add_help=False, parents=[universe])
    one_ballot.add_argument("--ballot", required=True, help='ballot text, e.g. "x>y>z>a~b~c~d"')
    profile = argparse.ArgumentParser(add_help=False, parents=[universe])
    profile.add_argument("--input", required=True, help="profile CSV path")
    census = argparse.ArgumentParser(add_help=False)
    census.add_argument("--n", type=_census_size, required=True)

    def add(name, handler, help_text, parent):
        sub = subs.add_parser(name, help=help_text, parents=[parent])
        sub.set_defaults(handler=handler)
        sub.add_argument("--format", choices=("text", "json"), default="text")
        return sub

    add("analyze", _cmd_analyze, "classify one ballot and report all claims", one_ballot)
    add("verify", _cmd_verify, "exhaustively verify all claims on n candidates", census)
    add("enumerate", _cmd_enumerate, "list the full ballot census on n candidates", census)
    sub = add("theorem3", _cmd_theorem3, "record disjunction check for one ballot", one_ballot)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--full", action="store_true", help="check the full record (default)")
    group.add_argument("--all-subsets", action="store_true", help="sweep every nonempty sub-record")
    add("witness", _cmd_witness, "spatial witness and concavity check for one ballot", one_ballot)
    add("tabulate", _cmd_tabulate, "instant-runoff tabulation of a CSV profile", profile)
    sub = add("truncate", _cmd_truncate, "ballot-length sensitivity experiment", profile)
    sub.add_argument("--lengths", required=True, help="comma-separated lengths, e.g. 1,2,3")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        # Each input is read once, here, and its flag's value replaced by what
        # was read.  The order fixes which error a command with several bad
        # inputs reports: the universe, then the lengths, then the ballot or file.
        if getattr(args, "candidates", None) is not None:
            args.candidates = _universe(args.candidates)
        if "lengths" in args:
            args.lengths = _lengths(args.lengths)
        if "ballot" in args:
            args.ballot = parse_ballot(args.ballot, args.candidates)
        if "input" in args:
            args.input = load_profile(args.input, candidates=args.candidates)
        payload, render, *status = args.handler(args)  # verify adds its exit status
        if args.format == "json":
            out: list[str] = []
            _write(payload, out, "")
            print("".join(out))
        else:
            render(payload)
        return status[0] if status else 0
    except BrokenPipeError:
        # The reader is gone: stop quietly, and send what is still buffered
        # for stdout to the null device so the flush at exit cannot fail too.
        sys.stdout = open(os.devnull, "w")
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
