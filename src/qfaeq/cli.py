"""Command-line front end.

Subcommands and exit codes form a stable scripting contract: 0 means
equivalent or valid, 1 means inequivalent, 2 means a usage or input error.

    validate FILE                 check a document, violations on stderr
    prob FILE WORD                exact acceptance probability of WORD
    equiv FILE1 FILE2             equivalence check with witness report
        [--method algebraic|bruteforce [--max-len N]] [--json]
    gen --states N --alphabet CSV --k K --seed S -o FILE
    bound FILE1 FILE2             print the paper's Theorem 4 depth

``equiv`` runs either method on the two automata and reports its depth as
``bound_used``: the ``--max-len`` given, or else
:func:`~qfaeq.equivalence.rank_bound` at the larger effective width, the
width the search runs at, which is also ``brute_force``'s default depth.
``bound`` prints the paper's larger :func:`~qfaeq.equivalence.theorem4_bound`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .equivalence import (
    _search_depth,
    brute_force,
    decide,
    require_shared_alphabet,
    theorem4_bound,
)
from .io import QfaFormatError, load_qfa, save_qfa
from .qfa import (
    Alphabet,
    KLetterQFA,
    _length_past_cap,
    accept_prob,
    random_qfa,
)
from .scalars import format_rational

__all__ = ["cli_main"]

# The most words --method bruteforce compares, m^0 + m^1 + ... + m^depth
# for an m-letter alphabet: 2^16 words take seconds on small automata,
# and its queue holds a whole length of words at once.
_MAX_BRUTEFORCE_WORDS = 2**16


def _print_report(report: dict, as_json: bool) -> None:
    """Print an equiv report as indented JSON, or as one "key: value" line
    per field with the witness lines only when there is a witness and the
    basis sizes only when the search seeded a class."""
    if as_json:
        print(json.dumps(report, indent=2))
        return
    stats = report["stats"]
    lines = [f"{key}: {report[key]}" for key in ("verdict", "method", "bound_used")]
    if report["witness"] is not None:
        lines.append(f"witness: {report['witness']!r}")
        lines.append(f"p1: {report['p1']}")
        lines.append(f"p2: {report['p2']}")
    if stats["basis_sizes"]:
        sizes = ", ".join(
            f"{cls!r}={size}" for cls, size in sorted(stats["basis_sizes"].items())
        )
        lines.append(f"basis_sizes: {sizes}")
    lines.append(f"nodes_processed: {stats['nodes_processed']}")
    lines.append(f"wall_ms: {stats['wall_ms']}")
    print("\n".join(lines))


def _load_two(path1, path2) -> tuple[KLetterQFA, KLetterQFA]:
    a1 = load_qfa(path1)
    a2 = load_qfa(path2)
    require_shared_alphabet(a1, a2)
    return a1, a2


def _cmd_validate(ns) -> int:
    load_qfa(ns.file)
    print(f"ok: {ns.file}")
    return 0


def _cmd_prob(ns) -> int:
    a = load_qfa(ns.file)
    p = accept_prob(a, ns.word)
    print(f"{format_rational(p)} ~ {float(p):.12g}")
    return 0


def _cmd_equiv(ns) -> int:
    if ns.max_len is not None and ns.method != "bruteforce":
        raise QfaFormatError("--max-len: only --method bruteforce takes a depth cap")
    if ns.max_len is not None and ns.max_len < 0:
        raise QfaFormatError(f"--max-len: expected an integer >= 0, got {ns.max_len}")
    a1, a2 = _load_two(ns.file1, ns.file2)
    depth = _search_depth(a1, a2) if ns.max_len is None else ns.max_len
    m = len(a1.alphabet)
    if ns.method == "bruteforce":
        too_deep = _length_past_cap(m, _MAX_BRUTEFORCE_WORDS, depth, count=1)
        if too_deep is not None:
            raise QfaFormatError(
                f"--method bruteforce: depth {depth} over {m} letters is more "
                f"than {_MAX_BRUTEFORCE_WORDS} words (the cap); give "
                f"--max-len {too_deep - 1} or less"
            )
    start = time.perf_counter()
    if ns.method == "algebraic":
        verdict = decide(a1, a2)
    else:
        verdict = brute_force(a1, a2, depth)
    wall_ms = round((time.perf_counter() - start) * 1000, 3)
    report = {
        "verdict": "equivalent" if verdict.equivalent else "not_equivalent",
        "method": ns.method,
        "bound_used": depth,
        "witness": verdict.witness,
        "p1": None if verdict.p1 is None else format_rational(verdict.p1),
        "p2": None if verdict.p2 is None else format_rational(verdict.p2),
        "stats": {
            "basis_sizes": verdict.basis_sizes,
            "nodes_processed": verdict.nodes_processed,
            "wall_ms": wall_ms,
        },
    }
    _print_report(report, ns.json)
    return 0 if verdict.equivalent else 1


def _cmd_gen(ns) -> int:
    try:
        alphabet = Alphabet(ns.alphabet.split(","))
    except ValueError as exc:
        raise QfaFormatError(f"alphabet: {exc}") from None
    if ns.states < 1 or ns.k < 1:
        raise QfaFormatError("states and k must be at least 1")
    a = random_qfa(ns.states, alphabet, ns.k, ns.seed)
    save_qfa(a, ns.output)
    print(f"wrote {ns.output}")
    return 0


def _cmd_bound(ns) -> int:
    a1, a2 = _load_two(ns.file1, ns.file2)
    print(theorem4_bound(a1.n, a2.n, len(a1.alphabet), max(a1.k, a2.k)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfaeq",
        description="Exact equivalence checking for k-letter quantum "
        "finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("prob", help="acceptance probability of a word")
    p.add_argument("file")
    p.add_argument("word")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("equiv", help="decide equivalence of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument(
        "--method",
        choices=("algebraic", "bruteforce"),
        default="algebraic",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--max-len",
        type=int,
        default=None,
        help="cap the bruteforce search depth (default: the rank bound); "
        "a depth with more than 65536 words is refused, as the rank bound "
        "is for all but small automata over two or more symbols",
    )
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("gen", help="write a seeded random automaton")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", required=True, help="comma-separated symbols")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bound", help="print the paper's Theorem 4 depth")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_bound)

    return parser


# Built once per process; parse_args leaves it unchanged.
_PARSER = _build_parser()


def cli_main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return ns.func(ns)
    except (OSError, QfaFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
