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
always valid; every error message names the offending location.  A document
may declare at most 64 states and 4096 contexts, the generator's caps.

One reader takes every number in a document, the initial vector's and the
matrices', from text to integers scaled to a common denominator: the
initial vector over one, read back as Gaussian rationals, and each matrix
over its own, read straight into the integer form of
:class:`~qfaeq.linalg.CMatrix`.  Each numerator and denominator has at most
4300 digits, each common denominator (the lcm of the denominators it
covers) at most 8600, and the nonzero parts of one matrix, scaled to it,
at most 1 100 800 together, so hostile input stops at a located error
before any arithmetic on it.  The reader takes a matrix's parts in bulk:
one int call and a capped lcm per distinct denominator, checked first,
then one pattern match over all the parts joined and one int call per
numerator.  Only when a bulk check fails does it walk the parts one by
one in document order, to name the first problem; that walk builds no
values.

One writer, :func:`serialize_qfa`, formats both back, exact at any size,
as the text json.dumps(doc, indent=2) gives, byte for byte.  It lays that
text out itself, because with indent set json encodes in pure Python on
CPython 3.12 and earlier: json.dumps writes the head fields and each
context key, and each row of numbers is formatted, one gcd per part, and
joined in that layout directly, once per matrix object however many
contexts share it.
"""

from __future__ import annotations

import itertools
import json
import re
from bisect import bisect_left
from math import gcd, lcm
from operator import floordiv

from .linalg import CMatrix, _row_vector, _scaled_row
from .qfa import (
    _MAX_CONTEXTS,
    _MAX_STATES,
    Alphabet,
    KLetterQFA,
    _context_shape_ok,
    _iter_contexts,
    reachable_contexts,
    validate,
)
from .scalars import _ratio_text

__all__ = [
    "QfaFormatError",
    "load_qfa",
    "parse_qfa",
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

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# Digits allowed in a numerator or denominator: Python 3.11's default limit
# on int conversion from text, enforced here on every version.
_MAX_DIGITS = 4300

# The parts of a matrix joined by commas, each written "p/q" within the
# digit cap.
_PART = rf"-?[0-9]{{1,{_MAX_DIGITS}}}/[0-9]{{1,{_MAX_DIGITS}}}"
_PARTS_RE = re.compile(rf"{_PART}(?:,{_PART})*")

# Digits allowed in the common denominator of a matrix, and the bound it
# stays below.
_MAX_DEN_DIGITS = 2 * _MAX_DIGITS
_MAX_DEN = 10**_MAX_DEN_DIGITS

# Digits allowed in all the nonzero scaled parts of a matrix together: one
# full row of _MAX_STATES entries, both parts at the common-denominator cap.
_MAX_SCALED_DIGITS = 2 * _MAX_STATES * _MAX_DEN_DIGITS


class QfaFormatError(ValueError):
    """A document failed structural or semantic validation; the message says
    where."""


def _locate(where: str, *index: int) -> str:
    return where + "".join(f"[{i}]" for i in index)


def _scaled_digits(nums: list, dens: list, den: int) -> int:
    """A bound on the digits that the nonzero parts nums[i] / dens[i] take
    scaled to den: p * (den // q) has at most p.bit_length() +
    den.bit_length() - q.bit_length() + 1 bits, and b bits in all over c
    parts take at most (1234 * b >> 12) + c digits, 1234 / 4096 being just
    above log10(2).  Zero parts take none."""
    qs = list(itertools.compress(dens, nums))
    bits = (
        sum(map(int.bit_length, nums))
        - sum(map(int.bit_length, qs))
        + len(qs) * (den.bit_length() + 1)
    )
    return (1234 * bits >> 12) + len(qs)


def _raise_first_problem(rows: list, n: int, parts: list) -> None:
    """Raise the first problem, if any, among parts, the [re, im] parts
    read so far from rows in document order, checked one at a time with
    the common-denominator cap after each.  The message names the part,
    such as initial[0][1] or transitions['a'][2][0][1]."""
    den = 1
    for i, text in enumerate(parts):
        at = _locate(rows[i // (2 * n)][0], i // 2 % n, i % 2)
        match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
        if match is None:
            raise QfaFormatError(f"{at}: malformed rational {text!r}")
        num, q = match.groups()
        if max(len(num) - (num[0] == "-"), len(q or "")) > _MAX_DIGITS:
            raise QfaFormatError(f"{at}: rational too long ({len(text)} characters)")
        den = lcm(den, int(q or 1))  # 0 after a zero denominator
        if not den:
            raise QfaFormatError(
                f"{at}: malformed rational {text!r} (zero denominator)"
            )
        if den >= _MAX_DEN:
            raise QfaFormatError(
                f"{at}: common denominator exceeds {_MAX_DEN_DIGITS} digits"
            )


def _read_rows(rows: list, n: int) -> tuple[int, tuple, tuple]:
    """The common denominator of the [re, im] pairs in rows, a list of
    (location, row of n pairs), and their real and imaginary parts scaled
    to it, one tuple per row.  The parts are checked and read in bulk; when
    a check fails, :func:`_raise_first_problem` names the first problem.
    The lcm is capped at _MAX_DEN_DIGITS digits: every part is scaled to it,
    so without a cap a few dozen coprime denominators would make every
    scaled part huge.  Under that cap a few large denominators can still
    make thousands of small parts large, so before any part is scaled,
    :func:`_scaled_digits` of them all is capped at _MAX_SCALED_DIGITS."""
    parts = []
    for where, row in rows:
        if not isinstance(row, list) or len(row) != n:
            _raise_first_problem(rows, n, parts)
            raise QfaFormatError(f"{where}: expected {n} entries")
        for c, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                _raise_first_problem(rows, n, parts)
                raise QfaFormatError(
                    f"{where}[{c}]: expected a [re, im] pair of strings"
                )
            parts += pair
    try:  # each part as "p/q", joined by commas
        text = ",".join([p if "/" in p else p + "/1" for p in parts])
    except TypeError:  # a part that is not a string
        text = ""
    pieces = text.replace(",", "/").split("/")
    # check and read each distinct denominator, under the lcm cap, before the match
    value = dict.fromkeys(pieces[1::2])
    den = 1
    for q in value:
        if not (q.isascii() and q.isdigit() and len(q) <= _MAX_DIGITS):
            _raise_first_problem(rows, n, parts)
        value[q] = int(q)
        den = lcm(den, value[q])  # 0 after a zero denominator
        if not den or den >= _MAX_DEN:
            _raise_first_problem(rows, n, parts)
    # a part that holds a comma adds one
    if not _PARTS_RE.fullmatch(text) or text.count(",") != len(parts) - 1:
        _raise_first_problem(rows, n, parts)
    nums = list(map(int, pieces[::2]))
    dens = list(map(value.__getitem__, pieces[1::2]))
    if _scaled_digits(nums, dens, den) > _MAX_SCALED_DIGITS:
        # the bound only grows part by part: name the first part past the cap
        i = bisect_left(
            range(len(nums)),
            _MAX_SCALED_DIGITS + 1,
            key=lambda j: _scaled_digits(nums[: j + 1], dens[: j + 1], den),
        )
        raise QfaFormatError(
            f"{_locate(rows[i // (2 * n)][0], i // 2 % n, i % 2)}: scaled "
            f"parts exceed {_MAX_SCALED_DIGITS} digits in total"
        )
    scaled = [p * (den // q) for p, q in zip(nums, dens)]
    width = 2 * n
    starts = range(0, len(scaled), width)
    re = tuple(tuple(scaled[i : i + width : 2]) for i in starts)
    im = tuple(tuple(scaled[i + 1 : i + width : 2]) for i in starts)
    return den, re, im


def _parts(den: int, xs: list) -> map:
    """Each x/den for x in xs as reduced "p/q" text, one gcd per part."""
    dens = itertools.repeat(den)
    gs = list(map(gcd, xs, dens))
    return map(_ratio_text, map(floordiv, xs, gs), map(floordiv, dens, gs))


def _rows_text(den: int, re: tuple, im: tuple, pad: str) -> str:
    """The rows of [re, im] pairs of (re + i*im)/den, joined by commas, as
    json.dumps(..., indent=2) lays out rows whose brackets are indented by
    pad: each pair two spaces deeper, and each part four."""
    pair = "\n" + pad + "  "
    part = pair + "  "
    opening = f'[{pair}[{part}"'
    within = f'",{part}"'
    between = f'"{pair}],{pair}[{part}"'
    closing = f'"{pair}]\n{pad}]'
    flat = itertools.chain.from_iterable
    res = _parts(den, list(flat(re)))
    ims = _parts(den, list(flat(im)))
    pairs = list(map(within.join, zip(res, ims)))
    n = len(re[0])
    rows = [between.join(pairs[i : i + n]) for i in range(0, len(pairs), n)]
    return opening + f"{closing},\n{pad}{opening}".join(rows) + closing


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
    if n > _MAX_STATES:
        raise QfaFormatError(f"states: {n} exceeds the cap of {_MAX_STATES}")
    if len(obj["transitions"]) > _MAX_CONTEXTS:
        raise QfaFormatError(
            f"transitions: {len(obj['transitions'])} contexts exceed the cap "
            f"of {_MAX_CONTEXTS}"
        )
    try:
        alphabet = Alphabet(obj["alphabet"])
    except ValueError as exc:
        raise QfaFormatError(f"alphabet: {exc}") from None
    den, (xs,), (ys,) = _read_rows([("initial", obj["initial"])], n)
    initial = _row_vector((den, xs, ys))
    accepting = frozenset(
        _require_int(q, f"accepting[{i}]", 0) for i, q in enumerate(obj["accepting"])
    )
    transitions = {}
    for key, matrix in obj["transitions"].items():
        if not _context_shape_ok(key, alphabet, k):
            raise QfaFormatError(f"transitions: malformed context {key!r}")
        where = f"transitions[{key!r}]"
        if not isinstance(matrix, list) or len(matrix) != n:
            raise QfaFormatError(f"{where}: expected {n} matrix rows")
        rows = [(f"{where}[{r}]", row) for r, row in enumerate(matrix)]
        transitions[key] = CMatrix._from_ints(*_read_rows(rows, n))
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
    """Serialize to the canonical document text, json.dumps(doc, indent=2)
    of the document plus a newline, byte for byte; parse_qfa inverts this
    field-for-field."""
    head = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "k": a.k,
            "alphabet": list(a.alphabet.symbols),
            "states": a.n,
            "initial": None,
            "accepting": sorted(a.accepting),
        },
        indent=2,
    )
    # "initial": null occurs once: the alphabet's symbols are single
    # characters, so no symbol's text holds it
    before, after = head[:-2].split('"initial": null')
    s, xs, ys = _scaled_row(a.initial)
    initial = _rows_text(s, (xs,), (ys,), "  ")
    # a matrix that several contexts share, as lift makes them, is laid out
    # once
    texts = {}
    matrices = []
    for ctx in reachable_contexts(a.alphabet, a.k):
        m = a.transitions[ctx]
        if id(m) not in texts:
            texts[id(m)] = _rows_text(m.den, m.re, m.im, "      ")
        matrices.append(f"{json.dumps(ctx)}: [\n      {texts[id(m)]}\n    ]")
    return (
        f'{before}"initial": {initial}{after},\n'
        '  "transitions": {\n    ' + ",\n    ".join(matrices) + "\n  }\n}\n"
    )


def load_qfa(path) -> KLetterQFA:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_qfa(handle.read())


def save_qfa(a: KLetterQFA, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_qfa(a))
