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

from .checks import relation_claims
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
    _check_token,
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
    concave_witness,
    pair_record,
    rationalizability_class,
    subrecord_verdicts,
    verify_concavity,
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


def _enumeration_cap() -> int:
    raw = os.environ.get("BALLOT_LATTICE_MAX_N")
    if raw is None:
        return MAX_ENUMERATION_CANDIDATES
    try:
        value = _integer(raw)
    except argparse.ArgumentTypeError:
        raise ValueError(f"BALLOT_LATTICE_MAX_N must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("BALLOT_LATTICE_MAX_N must be at least 1")
    # The environment may lower the cap, never raise it.
    return min(value, MAX_ENUMERATION_CANDIDATES)


def _check_n(n: int) -> int:
    cap = _enumeration_cap()
    if not 1 <= n <= cap:
        note = " (lowered by BALLOT_LATTICE_MAX_N)" if cap < MAX_ENUMERATION_CANDIDATES else ""
        raise ValueError(f"--n must be within 1..{cap}{note}")
    return n


def _positive_int(raw: str) -> int:
    value = _integer(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _universe(args) -> list[str] | None:
    """The ``--candidates`` universe, validated before any input is read."""
    if args.candidates is None:
        return None
    try:
        return [_check_token(piece.strip()) for piece in args.candidates.split(",")]
    except ValueError as exc:
        raise ValueError(f"--candidates: {exc}") from None


def _lengths(raw: str) -> list[int]:
    """The ``--lengths`` list, validated before any input is read."""
    try:
        return [_integer(piece) for piece in raw.split(",")]
    except argparse.ArgumentTypeError:
        raise ValueError(f"--lengths: expected comma-separated integers, got {raw!r}") from None


def _emit(payload: dict, args, render_text) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        render_text(payload)


def _cmd_analyze(args) -> int:
    universe = _universe(args)
    ballot = parse_ballot(args.ballot, universe)
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

    _emit(payload, args, render)
    return 0


def _cmd_verify(args) -> int:
    n = _check_n(args.n)
    summary = exhaustive_verify(n, trials=args.trials)
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

    _emit(payload, args, render)
    return 0 if summary.ok else 2


def _cmd_enumerate(args) -> int:
    n = _check_n(args.n)
    ballots = [format_ballot(b) for b in enumerate_ballots(default_candidates(n))]
    payload = {"n": n, "count": len(ballots), "ballots": ballots}

    def render(p):
        for text in p["ballots"]:
            print(text)

    _emit(payload, args, render)
    return 0


def _cmd_theorem3(args) -> int:
    universe = _universe(args)
    ballot = parse_ballot(args.ballot, universe)
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

        _emit(payload, args, render)
        return 0

    # The record is the ballot's own, so there is no sub-record to validate.
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

    _emit(payload, args, render)
    return 0


def _cmd_witness(args) -> int:
    universe = _universe(args)
    ballot = parse_ballot(args.ballot, universe)
    witness = concave_witness(ballot)
    utilities = witness.utilities()
    concavity = verify_concavity(witness, args.trials)
    payload = {
        "ballot": format_ballot(ballot),
        "witness": witness.to_dict(),
        "utilities": utilities.to_dict(),
        "rationalizability": rationalizability_class(utilities, pair_record(ballot)),
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

    _emit(payload, args, render)
    return 0


def _cmd_tabulate(args) -> int:
    universe = _universe(args)
    profile = load_profile(args.input, candidates=universe)
    result = tabulate_irv(profile)
    payload = result.to_dict()

    def render(p):
        for number, rnd in enumerate(p["rounds"], start=1):
            tallies = " ".join(f"{c}={v}" for c, v in sorted(rnd["tallies"].items()))
            line = f"round {number}: {tallies}  exhausted={rnd['exhausted']}"
            if rnd["eliminated"]:
                line += f"  eliminated={rnd['eliminated']}"
            print(line)
        print(f"winner: {p['winner']}")

    _emit(payload, args, render)
    return 0


def _cmd_truncate(args) -> int:
    universe = _universe(args)
    lengths = _lengths(args.lengths)
    profile = load_profile(args.input, candidates=universe)
    report = truncation_experiment(profile, lengths)
    payload = report.to_dict()

    def render(p):
        for length, winner in sorted(p["winners"].items(), key=lambda kv: int(kv[0])):
            print(f"length {length}: winner {winner}")
        if p["winner_divergence"]:
            pairs = ", ".join(f"{a} vs {b}" for a, b in p["winner_divergence"])
            print(f"winner divergence: {pairs}")
        else:
            print("winner divergence: none")

    _emit(payload, args, render)
    return 0


# Built on the first call and reused by every later one in the process.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ballot-lattice", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--format", choices=("text", "json"), default="text")
        return sub

    sub = add("analyze", _cmd_analyze, "classify one ballot and report all claims")
    sub.add_argument("--ballot", required=True, help='ballot text, e.g. "x>y>z>a~b~c~d"')
    sub.add_argument("--candidates", help="comma-separated candidate universe")

    sub = add("verify", _cmd_verify, "exhaustively verify all claims on n candidates")
    sub.add_argument("--n", type=_integer, required=True)
    sub.add_argument(
        "--trials", type=_positive_int, default=1000, help="concavity samples per ballot shape"
    )

    sub = add("enumerate", _cmd_enumerate, "list the full ballot census on n candidates")
    sub.add_argument("--n", type=_integer, required=True)

    sub = add("theorem3", _cmd_theorem3, "record disjunction check for one ballot")
    sub.add_argument("--ballot", required=True)
    sub.add_argument("--candidates", help="comma-separated candidate universe")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--full", action="store_true", help="check the full record (default)")
    group.add_argument("--all-subsets", action="store_true", help="sweep every nonempty sub-record")

    sub = add("witness", _cmd_witness, "spatial witness and concavity check for one ballot")
    sub.add_argument("--ballot", required=True)
    sub.add_argument("--candidates", help="comma-separated candidate universe")
    sub.add_argument("--trials", type=_positive_int, default=1000, help="concavity samples")

    sub = add("tabulate", _cmd_tabulate, "instant-runoff tabulation of a CSV profile")
    sub.add_argument("--input", required=True, help="profile CSV path")
    sub.add_argument("--candidates", help="comma-separated candidate universe")

    sub = add("truncate", _cmd_truncate, "ballot-length sensitivity experiment")
    sub.add_argument("--input", required=True, help="profile CSV path")
    sub.add_argument("--lengths", required=True, help="comma-separated lengths, e.g. 1,2,3")
    sub.add_argument("--candidates", help="comma-separated candidate universe")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
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
