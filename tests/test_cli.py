import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qfaeq
import qfaeq.cli as cli
from qfaeq.cli import cli_main
from qfaeq.io import load_qfa, serialize_qfa
from qfaeq.qfa import (
    Alphabet,
    KLetterQFA,
    accept_prob,
    always_accept_qfa,
    last_letter_qfa,
    lift,
    random_qfa,
    random_unitary,
    validate,
)
from reference import coprime_denominators, rotation_qfa, scaled_size_document


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("qfa")
    paths = {}

    def write(name, automaton):
        path = base / f"{name}.json"
        path.write_text(serialize_qfa(automaton))
        paths[name] = str(path)

    write("last_letter", last_letter_qfa())
    write("always", always_accept_qfa(Alphabet("ab")))
    write("rotation", rotation_qfa())
    broken = base / "broken.json"
    text = (base / "last_letter.json").read_text()
    broken.write_text(text.replace('"1/1",\n      "0/1"', '"1/1",\n      "1/1"', 1))
    paths["broken"] = str(broken)
    paths["dir"] = str(base)
    return paths


def test_validate_ok(files, capsys):
    assert cli_main(["validate", files["last_letter"]]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_invalid_document(files, capsys, tmp_path):
    assert cli_main(["validate", files["broken"]]) == 2
    assert "error:" in capsys.readouterr().err
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    assert cli_main(["validate", str(nested)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON")
    assert "Traceback" not in err
    # a squared norm of 4401 digits, past Python's int-to-str limit
    tiny = json.loads(serialize_qfa(always_accept_qfa(Alphabet("a"))))
    tiny["initial"][0][0] = f"1/1{'0' * 2199}1"
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny))
    assert cli_main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial vector has squared norm 1/1000")
    assert len(err) > 4401


def test_validate_missing_file(files, capsys):
    assert cli_main(["validate", files["dir"] + "/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_prob_prints_exact_and_decimal(files, capsys, tmp_path):
    assert cli_main(["prob", files["rotation"], "a"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("9/25 ~ 0.36")
    assert cli_main(["prob", files["rotation"], "aa"]) == 0
    assert capsys.readouterr().out.startswith("49/625 ~ ")
    # a denominator of about 4500 digits, past Python's int-to-str limit,
    # is printed in full
    path = tmp_path / "g.json"
    args = ["gen", "--states", "3", "--alphabet", "a,b", "--k", "2", "--seed", "1"]
    assert cli_main(args + ["-o", str(path)]) == 0
    capsys.readouterr()
    word = "ab" * 300
    assert cli_main(["prob", str(path), word]) == 0
    exact, _, _ = capsys.readouterr().out.partition(" ~ ")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        p = Fraction(exact)
    finally:
        sys.set_int_max_str_digits(saved)
    assert p.denominator > 10**4300
    assert p == accept_prob(load_qfa(path), word)


def test_prob_empty_word(files, capsys):
    assert cli_main(["prob", files["last_letter"], ""]) == 0
    assert capsys.readouterr().out.startswith("0/1 ~ 0")


def test_prob_foreign_letter(files, capsys):
    assert cli_main(["prob", files["rotation"], "ax"]) == 2
    assert "not in alphabet" in capsys.readouterr().err


def test_equiv_identical_files(files, capsys):
    assert cli_main(["equiv", files["last_letter"], files["last_letter"]]) == 0
    out = capsys.readouterr().out
    assert "verdict: equivalent" in out
    assert "witness" not in out


def test_equiv_last_letter_vs_always(files, capsys):
    rc = cli_main(["equiv", files["last_letter"], files["always"]])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[-1].startswith("wall_ms: ")
    assert float(lines[-1].removeprefix("wall_ms: ")) >= 0
    assert lines[:-1] == [
        "verdict: not_equivalent",
        "method: algebraic",
        "bound_used: 9",
        "witness: ''",
        "p1: 0/1",
        "p2: 1/1",
        "nodes_processed: 0",
    ]


def test_equiv_json_schema(files, capsys):
    rc = cli_main(["equiv", files["last_letter"], files["always"], "--json"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "verdict",
        "method",
        "bound_used",
        "witness",
        "p1",
        "p2",
        "stats",
    ]
    assert report["verdict"] == "not_equivalent"
    assert report["method"] == "algebraic"
    assert report["witness"] == ""
    assert report["p1"] == "0/1" and report["p2"] == "1/1"
    assert set(report["stats"]) == {"basis_sizes", "nodes_processed", "wall_ms"}
    # the search stops at the empty word, before any node or class
    assert report["stats"]["nodes_processed"] == 0
    assert report["stats"]["basis_sizes"] == {}


def test_equiv_json_stable_modulo_wall_time(files, capsys):
    cli_main(["equiv", files["last_letter"], files["always"], "--json"])
    first = json.loads(capsys.readouterr().out)
    cli_main(["equiv", files["last_letter"], files["always"], "--json"])
    second = json.loads(capsys.readouterr().out)
    del first["stats"]["wall_ms"], second["stats"]["wall_ms"]
    assert first == second


def test_equiv_bruteforce_method(files, capsys):
    rc = cli_main(
        [
            "equiv",
            files["last_letter"],
            files["always"],
            "--method",
            "bruteforce",
            "--max-len",
            "4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "method: bruteforce" in out
    assert "witness: ''" in out
    assert "bound_used: 4" in out  # the depth compared, not the rank bound
    rc = cli_main(
        [
            "equiv",
            files["last_letter"],
            files["last_letter"],
            "--method",
            "bruteforce",
            "--max-len",
            "6",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(
        [
            "equiv",
            files["last_letter"],
            files["last_letter"],
            "--method",
            "bruteforce",
            "--max-len",
            "-1",
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --max-len:")
    # the algebraic search has no depth cap: a cap given to it is refused
    # rather than ignored
    for method in ([], ["--method", "algebraic"]):
        argv = ["equiv", files["last_letter"], files["always"], "--max-len", "4"]
        assert cli_main(argv + method) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --max-len:")


def test_equiv_bruteforce_word_cap(files, capsys, tmp_path):
    # Without --max-len a two-letter pair of 3-state width-2 automata has
    # the rank bound 35 as its depth, over 2^36 words: refused before any
    # word is compared
    bruteforce = ["equiv", "--method", "bruteforce"]
    three = tmp_path / "three.json"
    three.write_text(serialize_qfa(random_qfa(3, Alphabet("ab"), 2, 5)))
    assert cli_main(bruteforce + [str(three), str(three)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --method bruteforce: depth 35 over 2 letters is more than "
        "65536 words (the cap); give --max-len 15 or less\n"
    )
    # the last-letter pair's rank bound 15 is within the cap: all 2^16 - 1
    # words up to it are compared
    same = [files["last_letter"], files["last_letter"]]
    assert cli_main(bruteforce + same + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bound_used"] == 15
    assert report["stats"]["nodes_processed"] == 65535
    # the cap counts the depth in use, --max-len included: 2^17 - 1 words
    # at depth 16 are refused, and a small depth still gets its verdict
    assert cli_main(bruteforce + same + ["--max-len", "16"]) == 2
    assert "give --max-len 15 or less" in capsys.readouterr().err
    assert cli_main(bruteforce + same + ["--max-len", "6"]) == 0
    assert "verdict: equivalent" in capsys.readouterr().out
    # a unary pair has one word per length: it runs to the rank bound
    rotation = [files["rotation"], files["rotation"], "--json"]
    assert cli_main(bruteforce + rotation) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bound_used"] == 7
    assert report["stats"]["nodes_processed"] == 8


def test_equiv_reports_no_class_grown_before_the_witness(capsys, tmp_path):
    # the pair first differs at "b"; the search grows "a" only when the
    # children of "a" would be checked, after "b", so it stops with no
    # class seeded and prints no basis_sizes line
    a = random_qfa(2, Alphabet("ab"), 2, 3)
    twist = random_unitary(2, random.Random(3))
    transitions = {**a.transitions, "_b": a.transitions["_b"] * twist}
    b = KLetterQFA(a.n, a.alphabet, a.k, a.initial, a.accepting, transitions)
    pair = []
    for name, automaton in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_qfa(automaton))
        pair.append(str(path))
    assert cli_main(["equiv", *pair, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["witness"] == "b"
    assert report["stats"]["nodes_processed"] == 0
    assert report["stats"]["basis_sizes"] == {}
    assert cli_main(["equiv", *pair]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "witness: 'b'" in lines and "nodes_processed: 0" in lines
    assert not any(line.startswith("basis_sizes:") for line in lines)


def test_equiv_depth_at_effective_width(capsys, tmp_path, monkeypatch):
    # a width-5 lift of a width-1 automaton is searched at width 1, so the
    # default depth is the rank bound there, 7, not 116 at the declared
    # width, whose 2^117 - 1 words bruteforce would refuse.  Both methods
    # get the automata as loaded, at their declared widths 1 and 5, and
    # find the lift's effective width themselves.
    a = random_qfa(2, Alphabet("ab"), 1, 3)
    pair = []
    for name, automaton in (("plain", a), ("lifted", lift(a, 5))):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_qfa(automaton))
        pair.append(str(path))
    widths = []

    def recorder(real):
        def record(a1, a2, *rest):
            widths.append((a1.k, a2.k))
            return real(a1, a2, *rest)

        return record

    monkeypatch.setattr(cli, "decide", recorder(cli.decide))
    monkeypatch.setattr(cli, "brute_force", recorder(cli.brute_force))
    for method, nodes in (("algebraic", 8), ("bruteforce", 255)):
        widths.clear()
        assert cli_main(["equiv", *pair, "--method", method, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert widths == [(1, 5)]
        assert report["bound_used"] == 7
        assert report["stats"]["nodes_processed"] == nodes


def test_equiv_wide_unary_lifts(capsys, tmp_path):
    # two width-1024 lifts of a 2-state unary automaton, 1024 contexts
    # each: both narrow to width 1, where the rank bound is 7
    pair = []
    for name in ("first", "second"):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_qfa(lift(rotation_qfa(), 1024)))
        pair.append(str(path))
    assert cli_main(["equiv", *pair, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["bound_used"]) == ("equivalent", 7)


def test_equiv_alphabet_mismatch(files, capsys):
    assert cli_main(["equiv", files["rotation"], files["always"]]) == 2
    assert "alphabet mismatch" in capsys.readouterr().err


def test_bound_binary_two_state_pair(files, capsys, tmp_path):
    f1 = tmp_path / "g1.json"
    f2 = tmp_path / "g2.json"
    assert (
        cli_main(
            ["gen", "--states", "2", "--alphabet", "a,b", "--k", "2",
             "--seed", "1", "-o", str(f1)]
        )
        == 0
    )
    assert (
        cli_main(
            ["gen", "--states", "2", "--alphabet", "a,b", "--k", "2",
             "--seed", "2", "-o", str(f2)]
        )
        == 0
    )
    capsys.readouterr()
    assert cli_main(["bound", str(f1), str(f2)]) == 0
    assert capsys.readouterr().out.strip() == "32"


def test_bound_mixed_sizes(files, capsys):
    assert cli_main(["bound", files["last_letter"], files["always"]]) == 0
    assert capsys.readouterr().out.strip() == "18"


def test_gen_writes_valid_deterministic_file(files, capsys, tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    args = ["gen", "--states", "3", "--alphabet", "a,b", "--k", "1", "--seed", "9"]
    assert cli_main(args + ["-o", str(f1)]) == 0
    assert cli_main(args + ["-o", str(f2)]) == 0
    assert validate(load_qfa(f1)) == []
    assert f1.read_bytes() == f2.read_bytes()


def test_gen_rejects_bad_alphabet(files, capsys, tmp_path):
    rc = cli_main(
        ["gen", "--states", "2", "--alphabet", "ab", "--k", "1",
         "--seed", "0", "-o", str(tmp_path / "x.json")]
    )
    assert rc == 2
    assert "alphabet" in capsys.readouterr().err


def test_gen_rejects_oversized_request(capsys, tmp_path):
    # 2 + 4 + ... + 2**40 contexts: refused before any matrix is built
    out = tmp_path / "x.json"
    rc = cli_main(
        ["gen", "--states", "2", "--alphabet", "a,b", "--k", "40",
         "--seed", "0", "-o", str(out)]
    )
    assert rc == 2
    assert "more than 4096 contexts" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_documents_exit_2(files, capsys, tmp_path):
    doc = json.loads(Path(files["last_letter"]).read_text())
    big = dict(doc, states=65)
    wide = dict(doc, transitions={f"x{i}": None for i in range(4097)})
    # pairwise coprime denominators in the first matrix or in the initial
    # vector, so their lcm passes 8600 digits at the third part
    coprime = json.loads(json.dumps(doc))
    first = next(iter(coprime["transitions"].values()))
    dens = iter(coprime_denominators(8))
    for row in first:
        for pair in row:
            pair[:] = [f"1/{next(dens)}", f"1/{next(dens)}"]
    dens = iter(coprime_denominators(4))
    initial = dict(
        doc, initial=[[f"1/{next(dens)}", f"1/{next(dens)}"] for _ in range(2)]
    )
    for name, text, cap in (
        ("big", big, "exceeds the cap of 64"),
        ("wide", wide, "exceed the cap of 4096"),
        ("coprime", coprime, "transitions['_a'][0][1][0]: common denominator"),
        ("initial", initial, "initial[1][0]: common denominator exceeds 8600"),
        ("scaled", scaled_size_document(), "[2][55][0]: scaled parts exceed"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(text))
        for argv in (
            ["validate", str(path)],
            ["equiv", str(path), files["last_letter"]],
        ):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and cap in err
            assert "Traceback" not in err


def test_unknown_flag_exits_2(files, capsys):
    assert cli_main(["equiv", files["always"], files["always"], "--frobnicate"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["transmogrify"]) == 2


def test_no_arguments_exits_2(capsys):
    assert cli_main([]) == 2


def _assert_help_runs(command):
    # The child imports the same qfaeq package as this test process, and
    # any warning in it is an error.
    package_root = str(Path(qfaeq.__file__).resolve().parents[1])
    result = subprocess.run(
        [*command, "--help"], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=package_root, PYTHONWARNINGS="error"),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: qfaeq")
    assert "equiv" in result.stdout


def test_console_script_entry_point():
    # An installed `qfaeq` script is what pip generates from the entry point.
    exe = shutil.which("qfaeq")
    if exe is not None:
        _assert_help_runs([exe])

    # Without an install, check the declared entry point itself and run it
    # the way the generated wrapper does.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qfaeq"]
    module, _, attr = spec.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli_main
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _assert_help_runs([sys.executable, "-c", wrapper])
