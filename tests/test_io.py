import dataclasses
import itertools
import json
import sys
from fractions import Fraction

import pytest

from qfaeq.io import (
    QfaFormatError,
    load_qfa,
    parse_qfa,
    save_qfa,
    serialize_qfa,
)
from qfaeq.linalg import CMatrix
from qfaeq.qfa import (
    Alphabet,
    KLetterQFA,
    always_accept_qfa,
    last_letter_qfa,
    lift,
    random_qfa,
)
from qfaeq.scalars import GaussianRational, format_rational
from reference import (
    coprime_denominators,
    rotation_qfa,
    scaled_size_document,
    serialize_reference,
)


def complex_phase_qfa():
    phase = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    return KLetterQFA(
        n=1,
        alphabet=Alphabet("a"),
        k=1,
        initial=(1,),
        accepting=frozenset({0}),
        transitions={"a": CMatrix([[phase]])},
    )


def test_parse_rational_grammar():
    # The initial vector and the matrices are read by one reader, so each
    # case is checked at an entry of both.
    doc = one_state_document()
    for pair, value in [
        (["3/5", "-4/5"], GaussianRational(Fraction(3, 5), Fraction(-4, 5))),
        (["-3/5", "4/5"], GaussianRational(Fraction(-3, 5), Fraction(4, 5))),
        (["-1", "0"], GaussianRational(-1)),
        (["0/7", "-1"], GaussianRational(0, -1)),
        (["6/10", "8/10"], GaussianRational(Fraction(3, 5), Fraction(4, 5))),
        (["-0", "-1"], GaussianRational(0, -1)),
        (["007/25", "-0024/25"], GaussianRational(Fraction(7, 25), Fraction(-24, 25))),
    ]:
        doc["initial"][0] = pair
        doc["transitions"]["a"][0][0] = pair
        a = parse_doc(doc)
        assert a.initial == (value,)
        assert a.transitions["a"][0, 0] == value
    # bare integers next to "p/q" parts in one matrix
    doc = json.loads(serialize_qfa(rotation_qfa()))
    doc["transitions"]["a"] = [
        [["3/5", "0"], ["-4/5", "-0"]],
        [["4/5", "000"], ["0003/5", "0/9"]],
    ]
    assert parse_doc(doc) == rotation_qfa()
    doc = one_state_document()
    # parts that a comma-joined reading could misread, and parts that int()
    # takes but the grammar does not
    for bad in [
        "3/0", "1.5", "3/-5", "a/b", "", "1/2/3", "0x1", None, 3,
        "1,2", "1/2,3/4", "+1", " 1", "1 ", "1_0", "\u0661",
    ]:
        doc["initial"][0][1] = bad
        with pytest.raises(
            QfaFormatError, match=r"^initial\[0\]\[1\]: malformed rational"
        ):
            parse_doc(doc)
        doc["initial"][0][1] = "0"
        doc["transitions"]["a"][0][0][0] = bad
        with pytest.raises(
            QfaFormatError,
            match=r"^transitions\['a'\]\[0\]\[0\]\[0\]: malformed rational",
        ):
            parse_doc(doc)
        doc["transitions"]["a"][0][0][0] = "1"


def test_format_rational_reduced_positive_denominator():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(3, -5)) == "-3/5"
    assert format_rational(Fraction(0)) == "0/1"


@pytest.mark.parametrize(
    "automaton",
    [
        rotation_qfa(),
        complex_phase_qfa(),
        last_letter_qfa(),
        always_accept_qfa(Alphabet("ab")),
        random_qfa(3, Alphabet("ab"), 2, seed=9),
        random_qfa(2, Alphabet("abc"), 1, seed=10),
        random_qfa(1, Alphabet("a"), 3, seed=11),
    ],
)
def test_round_trip_identity(automaton):
    assert parse_qfa(serialize_qfa(automaton)) == automaton


def test_serialization_is_canonical_and_stable():
    a = random_qfa(2, Alphabet("ab"), 2, seed=4)
    text = serialize_qfa(a)
    assert serialize_qfa(parse_qfa(text)) == text
    assert serialize_qfa(a) == text
    doc = json.loads(text)
    assert doc["format_version"] == 1
    assert list(doc) == [
        "format_version",
        "k",
        "alphabet",
        "states",
        "initial",
        "accepting",
        "transitions",
    ]
    assert list(doc["transitions"]) == ["_a", "_b", "aa", "ab", "ba", "bb"]
    for pair in doc["initial"]:
        for part in pair:
            num, _, den = part.partition("/")
            assert int(den) > 0
            assert Fraction(int(num), int(den)) == Fraction(part)


def writer_cases():
    """Automata the generator pin does not reach: widths up to 3 over up to
    three letters, a lift, whose contexts share matrix objects, symbols
    that json escapes, an empty accepting set, and a unit phase whose
    parts pass 4000 digits, where _ratio_text writes them in pieces."""
    for n, m, k in itertools.product((1, 2, 3, 8), (1, 2, 3), (1, 2, 3)):
        yield random_qfa(n, Alphabet("abc"[:m]), k, seed=n + m + k)
    yield lift(random_qfa(3, Alphabet("ab"), 2, seed=5), 4)
    escapes = random_qfa(2, Alphabet(['"', "\\", "\u00e9", "\t", "\u2028"]), 2, seed=3)
    yield escapes
    yield dataclasses.replace(escapes, accepting=frozenset())
    # the primitive Pythagorean triple of u = 10**2050 + 1 and v = u - 1
    u, v = 10**2050 + 1, 10**2050
    phase = CMatrix._from_ints(
        u * u + v * v, ((u * u - v * v,),), ((2 * u * v,),)
    )
    yield KLetterQFA(1, Alphabet("a"), 1, (1,), frozenset({0}), {"a": phase})


def test_writer_matches_json_layout_and_round_trips():
    for a in writer_cases():
        text = serialize_qfa(a)
        assert text == serialize_reference(a)
        assert parse_qfa(text) == a


def test_writer_matches_json_layout_past_the_digit_cap():
    # serialize_qfa does not validate: an entry of 4501 digits is written
    # exactly, and only the reader refuses it
    entry = CMatrix._from_ints(10**4500 + 7, ((1,),), ((0,),))
    a = KLetterQFA(1, Alphabet("a"), 1, (1,), frozenset(), {"a": entry})
    text = serialize_qfa(a)
    assert text == serialize_reference(a)
    with pytest.raises(
        QfaFormatError,
        match=r"^transitions\['a'\]\[0\]\[0\]\[0\]: rational too long "
        r"\(4503 characters\)$",
    ):
        parse_qfa(text)


def test_unreduced_input_is_normalized():
    text = serialize_qfa(rotation_qfa())
    swapped = text.replace('"3/5"', '"6/10"', 1)
    assert parse_qfa(swapped) == rotation_qfa()


def base_document():
    return json.loads(serialize_qfa(last_letter_qfa()))


def one_state_document():
    return json.loads(serialize_qfa(always_accept_qfa(Alphabet("a"))))


def parse_doc(doc):
    return parse_qfa(json.dumps(doc))


def test_invalid_json_is_positioned():
    with pytest.raises(QfaFormatError, match="invalid JSON"):
        parse_qfa("{not json")
    # Nesting past the recursion limit, and an integer past Python's
    # int-conversion limit, are decoder failures too.
    with pytest.raises(QfaFormatError, match="invalid JSON"):
        parse_qfa("[" * 200_000)
    with pytest.raises(QfaFormatError, match="invalid JSON"):
        parse_qfa('{"states": ' + "1" * 5000 + "}")


def test_missing_and_unknown_fields():
    doc = base_document()
    del doc["alphabet"]
    with pytest.raises(QfaFormatError, match="missing field 'alphabet'"):
        parse_doc(doc)
    doc = base_document()
    doc["extra"] = 1
    with pytest.raises(QfaFormatError, match="unknown field 'extra'"):
        parse_doc(doc)


def test_unsupported_format_version():
    doc = base_document()
    doc["format_version"] = 2
    with pytest.raises(QfaFormatError, match="unsupported version 2"):
        parse_doc(doc)


def test_malformed_context_key():
    doc = base_document()
    doc["transitions"]["a_"] = doc["transitions"].pop("ab")
    with pytest.raises(QfaFormatError, match="malformed context 'a_'"):
        parse_doc(doc)


def test_missing_context_detected():
    doc = base_document()
    del doc["transitions"]["ba"]
    with pytest.raises(QfaFormatError, match="missing context 'ba'"):
        parse_doc(doc)
    # A short document with a wide window names the first absent context
    # without enumerating all 2 + 4 + ... + 2**20 of them.
    wide = {
        "format_version": 1,
        "k": 20,
        "alphabet": ["a", "b"],
        "states": 1,
        "initial": [["1/1", "0/1"]],
        "accepting": [0],
        "transitions": {"_" * 19 + "a": [[["1/1", "0/1"]]]},
    }
    with pytest.raises(QfaFormatError) as info:
        parse_doc(wide)
    assert "missing context '___________________b'" in str(info.value)
    assert len(str(info.value)) < 200
    wide["k"] = 10**30
    wide["transitions"] = {}
    with pytest.raises(QfaFormatError, match="transitions: .* found none"):
        parse_doc(wide)


def test_key_under_huge_width_is_malformed():
    # a key is compared with the declared width, never padded out to it
    doc = {
        "format_version": 1,
        "k": 10**30,
        "alphabet": ["a"],
        "states": 1,
        "initial": [["1/1", "0/1"]],
        "accepting": [0],
        "transitions": {"a": [[["1/1", "0/1"]]]},
    }
    with pytest.raises(QfaFormatError, match="^transitions: malformed context 'a'$"):
        parse_doc(doc)


def test_initial_norm_violation():
    doc = base_document()
    doc["initial"] = [["1", "0"], ["1", "0"]]
    with pytest.raises(QfaFormatError, match="squared norm 2"):
        parse_doc(doc)
    # a norm past Python's 4300-digit int-to-str limit is still named, in
    # full: 1/(10**2200 + 1)**2 = 1/(10**4400 + 2*10**2200 + 1)
    doc = one_state_document()
    doc["initial"][0][0] = f"1/1{'0' * 2199}1"
    zeros = "0" * 2199
    with pytest.raises(
        QfaFormatError,
        match=rf"^initial vector has squared norm 1/1{zeros}2{zeros}1, expected 1$",
    ):
        parse_doc(doc)


def test_non_unitary_matrix_rejected():
    doc = base_document()
    doc["transitions"]["aa"] = [
        [["1/1", "0/1"], ["1/1", "0/1"]],
        [["0/1", "0/1"], ["1/1", "0/1"]],
    ]
    with pytest.raises(QfaFormatError, match="'aa' is not unitary"):
        parse_doc(doc)


def test_zero_denominator_rational():
    doc = base_document()
    doc["initial"][0][0] = "3/0"
    with pytest.raises(QfaFormatError, match=r"initial\[0\]\[0\].*3/0"):
        parse_doc(doc)


def test_oversized_rational_is_located():
    doc = base_document()
    doc["initial"][0][0] = "1" * 5000
    with pytest.raises(QfaFormatError, match=r"initial\[0\]\[0\]"):
        parse_doc(doc)


def test_rational_digit_cap_holds_without_interpreter_limit():
    # Python 3.10 has no int-conversion limit; lifting it here shows the
    # parser enforces its own cap of 4300 digits per part.  Parts at the
    # cap are read exactly: the norm message gives their squares.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = one_state_document()
        sevens = int("7" * 4300)
        threes = int("3" * 4300)
        for text, norm in (
            ("-" + "7" * 4300, f"{sevens**2}/1"),
            ("1/" + "3" * 4300, f"1/{threes**2}"),
        ):
            doc["initial"][0][0] = text
            with pytest.raises(
                QfaFormatError,
                match=rf"^initial vector has squared norm {norm}, expected 1$",
            ):
                parse_doc(doc)
        for text in ("1" * 5000, "1/" + "3" * 4301):
            doc["initial"][0][0] = text
            with pytest.raises(
                QfaFormatError,
                match=rf"^initial\[0\]\[0\]: rational too long "
                rf"\({len(text)} characters\)$",
            ):
                parse_doc(doc)
    finally:
        sys.set_int_max_str_digits(saved)


def oversized_documents():
    """Just above each cap: 65 states, or 4097 declared contexts.  No
    matrix is well formed, so the cap must fire before any is parsed."""
    states = base_document()
    states["states"] = 65
    states["transitions"] = {ctx: None for ctx in states["transitions"]}
    contexts = base_document()
    contexts["transitions"] = {f"x{i}": None for i in range(4097)}
    return states, contexts


def test_document_caps_on_states_and_contexts():
    states, contexts = oversized_documents()
    with pytest.raises(
        QfaFormatError, match=r"^states: 65 exceeds the cap of 64$"
    ):
        parse_doc(states)
    with pytest.raises(
        QfaFormatError,
        match=r"^transitions: 4097 contexts exceed the cap of 4096$",
    ):
        parse_doc(contexts)
    # at the caps the document gets as far as its next problem
    states["states"] = 64
    with pytest.raises(QfaFormatError, match="initial: expected 64 entries"):
        parse_doc(states)
    del contexts["transitions"]["x0"]
    with pytest.raises(QfaFormatError, match="malformed context 'x1'"):
        parse_doc(contexts)


def test_long_matrix_entries_parse_exactly():
    # an entry of more than 4300 characters, each part within the digit
    # cap, parses to its exact value
    doc = base_document()
    big = "7" * 3000
    doc["transitions"]["aa"][0][0] = [f"{big}/{big}", f"-0/{big}"]
    a = parse_doc(doc)
    assert a == last_letter_qfa()
    doc["transitions"]["aa"][1][1][1] = "1/" + "0" * 3000
    with pytest.raises(
        QfaFormatError, match=r"^transitions\['aa'\]\[1\]\[1\]\[1\]: .*zero denominator"
    ):
        parse_doc(doc)


def test_common_denominator_cap_is_located():
    # 72 parts over pairwise coprime denominators: the lcm of the first
    # three already passes 8600 digits, and parsing stops at the third
    doc = json.loads(serialize_qfa(random_qfa(6, Alphabet("ab"), 1, 0)))
    matrix = doc["transitions"]["a"]
    dens = iter(coprime_denominators(72))
    for row in matrix:
        for pair in row:
            pair[:] = [f"1/{next(dens)}", f"1/{next(dens)}"]
    with pytest.raises(
        QfaFormatError,
        match=r"^transitions\['a'\]\[0\]\[1\]\[0\]: common denominator "
        r"exceeds 8600 digits$",
    ):
        parse_doc(doc)
    # two of them stay under the cap and reach the unitarity check
    for row in matrix:
        for pair in row:
            pair[:] = ["0/1", "0/1"]
    two = coprime_denominators(2)
    matrix[0][0] = [f"1/{two[0]}", f"1/{two[1]}"]
    with pytest.raises(QfaFormatError, match="'a' is not unitary"):
        parse_doc(doc)
    # the initial vector is read the same way: the third part stops it
    four = iter(coprime_denominators(4))
    doc = base_document()
    doc["initial"] = [[f"1/{next(four)}", f"1/{next(four)}"] for _ in range(2)]
    with pytest.raises(
        QfaFormatError,
        match=r"^initial\[1\]\[0\]: common denominator exceeds 8600 digits$",
    ):
        parse_doc(doc)


def test_first_of_two_problems_in_a_matrix_is_reported():
    # Each matrix holds two problems; the message names whichever comes
    # first in document order, a common-denominator cap, a zero denominator
    # or a malformed part ahead of a pair or a row of the wrong shape.
    doc = json.loads(serialize_qfa(random_qfa(6, Alphabet("ab"), 1, 0)))
    dens = coprime_denominators(3)
    at = r"^transitions\['a'\]"
    lcm_cap = "common denominator exceeds 8600 digits$"
    for edits, message in [
        (
            {(0, 0, 0): f"1/{dens[0]}", (0, 0, 1): f"1/{dens[1]}",
             (0, 1, 0): f"1/{dens[2]}", (4, 2, 1): "1/2/3"},
            rf"{at}\[0\]\[1\]\[0\]: {lcm_cap}",
        ),
        (
            {(0, 0, 0): "1/2/3", (2, 0, 0): f"1/{dens[0]}",
             (2, 0, 1): f"1/{dens[1]}", (2, 1, 0): f"1/{dens[2]}"},
            rf"{at}\[0\]\[0\]\[0\]: malformed rational '1/2/3'$",
        ),
        (
            {(1, 3, 1): "2/0", (4, 2, 1): "1/2/3"},
            rf"{at}\[1\]\[3\]\[1\]: malformed rational '2/0' \(zero denominator\)$",
        ),
        (
            {(1, 3, 1): "1/2/3", (4, 2): ["1"]},
            rf"{at}\[1\]\[3\]\[1\]: malformed rational '1/2/3'$",
        ),
        (
            {(0, 2, 0): "1/2/3", (3,): [["1", "0"]]},
            rf"{at}\[0\]\[2\]\[0\]: malformed rational '1/2/3'$",
        ),
    ]:
        bad = json.loads(json.dumps(doc))
        for index, value in edits.items():
            target = bad["transitions"]["a"]
            for i in index[:-1]:
                target = target[i]
            target[index[-1]] = value
        with pytest.raises(QfaFormatError, match=message):
            parse_doc(bad)


def test_scaled_size_cap_is_located():
    # each part is small, but scaled to the lcm of two ~3000-digit
    # denominators the matrix would take ~25 million digits: parsing stops,
    # before any part is scaled, at the part that passes the total cap
    with pytest.raises(
        QfaFormatError,
        match=r"^transitions\['a'\]\[2\]\[55\]\[0\]: scaled parts exceed "
        r"1100800 digits in total$",
    ):
        parse_doc(scaled_size_document())
    # generated matrices at the state cap stay far below it
    a = random_qfa(64, Alphabet("ab"), 1, 3)
    assert parse_qfa(serialize_qfa(a)) == a


def test_wrong_matrix_shape():
    doc = base_document()
    doc["transitions"]["aa"] = [[["1/1", "0/1"]]]
    with pytest.raises(QfaFormatError, match=r"transitions\['aa'\]"):
        parse_doc(doc)


def test_complex_entry_must_be_a_pair():
    doc = base_document()
    doc["initial"][0] = ["1/1"]
    with pytest.raises(QfaFormatError, match=r"initial\[0\].*pair"):
        parse_doc(doc)


def test_accepting_out_of_range():
    doc = base_document()
    doc["accepting"] = [5]
    with pytest.raises(QfaFormatError, match="accepting state 5"):
        parse_doc(doc)


def test_initial_length_mismatch():
    doc = base_document()
    doc["initial"] = doc["initial"][:1]
    with pytest.raises(QfaFormatError, match="initial: expected 2 entries"):
        parse_doc(doc)


def test_bad_alphabet():
    doc = base_document()
    doc["alphabet"] = ["a", "a"]
    with pytest.raises(QfaFormatError, match="alphabet.*duplicate"):
        parse_doc(doc)


def test_document_from_qfa_contains_wire_values():
    doc = json.loads(serialize_qfa(rotation_qfa()))
    assert doc["states"] == 2
    assert doc["k"] == 1
    assert doc["alphabet"] == ["a"]
    assert doc["accepting"] == [0]
    assert doc["initial"] == [["1/1", "0/1"], ["0/1", "0/1"]]
    assert doc["transitions"]["a"][0][0] == ["3/5", "0/1"]
    assert doc["transitions"]["a"][0][1] == ["-4/5", "0/1"]


def test_save_and_load_files(tmp_path):
    path = tmp_path / "automaton.json"
    a = random_qfa(2, Alphabet("ab"), 2, seed=21)
    save_qfa(a, path)
    assert load_qfa(path) == a
