"""The JSON persistence format for automata.

A document is a single JSON object:

    {
      "format_version": 1,
      "k": 2,
      "alphabet": ["a", "b"],
      "states": 2,
      "initial": [["1/1", "0/1"], ["0/1", "0/1"]],
      "accepting": [1],
      "transitions": {"_a": [[["3/5", "0/1"], ...], ...], ...}
    }

Complex numbers are pairs of rational strings "p/q" (serialized reduced with
a positive denominator; unreduced input such as "2/4" is accepted and
normalized, a zero denominator is rejected).  Context keys use "_" for the
blank padding symbol, only as a prefix.  Parsing validates both the document
structure and the automaton semantics, so a successfully parsed automaton is
always valid; every error message names the offending location.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

from .linalg import CMatrix
from .qfa import (
    Alphabet,
    KLetterQFA,
    _context_shape_ok,
    _iter_contexts,
    reachable_contexts,
    validate,
)
from .scalars import GaussianRational

__all__ = [
    "QfaFormatError",
    "format_rational",
    "load_qfa",
    "parse_qfa",
    "parse_rational",
    "save_qfa",
    "serialize_qfa",
]

FORMAT_VERSION = 1

_DOCUMENT_FIELDS = (
    "format_version",
    "k",
    "alphabet",
    "states",
    "initial",
    "accepting",
    "transitions",
)

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

# Digits allowed in a numerator or denominator: Python 3.11's default limit
# on int conversion from text, enforced here on every version.
_MAX_DIGITS = 4300


class QfaFormatError(ValueError):
    """A document failed structural or semantic validation; the message says
    where."""


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text, where: str = "value") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise QfaFormatError(f"{where}: malformed rational {text!r}")
    if any(len(digits) > _MAX_DIGITS for digits in text.lstrip("-").split("/")):
        raise QfaFormatError(
            f"{where}: rational too long ({len(text)} characters)"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise QfaFormatError(
            f"{where}: malformed rational {text!r} (zero denominator)"
        ) from None


def _format_complex(z: GaussianRational) -> list:
    return [format_rational(z.re), format_rational(z.im)]


def _parse_complex(pair, where: str) -> GaussianRational:
    if not isinstance(pair, list) or len(pair) != 2:
        raise QfaFormatError(f"{where}: expected a [re, im] pair of strings")
    return GaussianRational(
        parse_rational(pair[0], f"{where}[0]"),
        parse_rational(pair[1], f"{where}[1]"),
    )


def _parse_matrix(obj, n: int, where: str) -> CMatrix:
    if not isinstance(obj, list) or len(obj) != n:
        raise QfaFormatError(f"{where}: expected {n} matrix rows")
    rows = []
    for r, rowobj in enumerate(obj):
        if not isinstance(rowobj, list) or len(rowobj) != n:
            raise QfaFormatError(f"{where}[{r}]: expected {n} entries")
        rows.append(
            tuple(
                _parse_complex(entry, f"{where}[{r}][{c}]")
                for c, entry in enumerate(rowobj)
            )
        )
    return CMatrix(rows)


def _require_int(obj, where: str, minimum: int) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < minimum:
        raise QfaFormatError(f"{where}: expected an integer >= {minimum}")
    return obj


def parse_qfa(text: str) -> KLetterQFA:
    """Parse and validate a document; the result is always a valid
    automaton, and any problem raises QfaFormatError naming its location."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise QfaFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise QfaFormatError("document: expected a JSON object")
    for name in _DOCUMENT_FIELDS:
        if name not in obj:
            raise QfaFormatError(f"document: missing field {name!r}")
    for name in obj:
        if name not in _DOCUMENT_FIELDS:
            raise QfaFormatError(f"document: unknown field {name!r}")
    version = _require_int(obj["format_version"], "format_version", 1)
    if version != FORMAT_VERSION:
        raise QfaFormatError(
            f"format_version: unsupported version {version}, "
            f"expected {FORMAT_VERSION}"
        )
    if not isinstance(obj["alphabet"], list):
        raise QfaFormatError("alphabet: expected a list of symbols")
    if not isinstance(obj["initial"], list):
        raise QfaFormatError("initial: expected a list of [re, im] pairs")
    if not isinstance(obj["accepting"], list):
        raise QfaFormatError("accepting: expected a list of state indices")
    if not isinstance(obj["transitions"], dict):
        raise QfaFormatError("transitions: expected an object")
    k = _require_int(obj["k"], "k", 1)
    n = _require_int(obj["states"], "states", 1)
    try:
        alphabet = Alphabet(obj["alphabet"])
    except ValueError as exc:
        raise QfaFormatError(f"alphabet: {exc}") from None
    if len(obj["initial"]) != n:
        raise QfaFormatError(
            f"initial: expected {n} entries, found {len(obj['initial'])}"
        )
    initial = tuple(
        _parse_complex(pair, f"initial[{i}]") for i, pair in enumerate(obj["initial"])
    )
    accepting = frozenset(
        _require_int(q, f"accepting[{i}]", 0) for i, q in enumerate(obj["accepting"])
    )
    transitions = {}
    for key, matrix in obj["transitions"].items():
        if not _context_shape_ok(key, alphabet, k):
            raise QfaFormatError(f"transitions: malformed context {key!r}")
        transitions[key] = _parse_matrix(matrix, n, f"transitions[{key!r}]")
    # Every well-shaped key is a reachable context, so if any context is
    # absent, one of the first len(transitions) + 1 in context order is.
    # Looking no further keeps a short document with a large k from
    # enumerating all m + ... + m**k contexts; with no key at all, even the
    # first context (k characters) is not bounded by the document's size.
    if not transitions:
        raise QfaFormatError("transitions: expected one matrix per context, found none")
    for ctx in itertools.islice(_iter_contexts(alphabet, k), len(transitions) + 1):
        if ctx not in transitions:
            raise QfaFormatError(f"transitions: missing context {ctx!r}")
    automaton = KLetterQFA(n, alphabet, k, initial, accepting, transitions)
    problems = validate(automaton)
    if problems:
        raise QfaFormatError("; ".join(problems))
    return automaton


def serialize_qfa(a: KLetterQFA) -> str:
    """Serialize to the canonical document text; parse_qfa inverts this
    field-for-field."""
    doc = {
        "format_version": FORMAT_VERSION,
        "k": a.k,
        "alphabet": list(a.alphabet.symbols),
        "states": a.n,
        "initial": [_format_complex(z) for z in a.initial],
        "accepting": sorted(a.accepting),
        "transitions": {
            ctx: [[_format_complex(z) for z in row] for row in a.transitions[ctx].data]
            for ctx in reachable_contexts(a.alphabet, a.k)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def load_qfa(path) -> KLetterQFA:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_qfa(handle.read())


def save_qfa(a: KLetterQFA, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_qfa(a))
