"""End-to-end command line behavior: formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import gtrim.koszul
from gtrim import canonical_generators, ideals, report_dict
from gtrim.cli import main
from gtrim.ideals import buchberger
from gtrim.pfaffians import selector_labels

V2_STRINGS = [
    ["0", "0", "0", "x", "z"],
    ["0", "0", "x", "z", "y"],
    ["0", "-x", "0", "y", "0"],
    ["-x", "-z", "-y", "0", "0"],
    ["-z", "-y", "0", "0", "0"],
]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_process(argv, timeout=None):
    """Run the CLI in a fresh interpreter, so a crash shows as a traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(gtrim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gtrim.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def classify_ideal_file(tmp_path, payload, timeout=None):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(payload))
    return run_cli_process(["classify", "--ideal", str(path)], timeout)


# ---- gen ---------------------------------------------------------------------

def test_gen_json_frozen(capsys):
    code, out, err = run_cli(["gen", "--m", "2"], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert list(data) == ["m", "U", "V", "d", "pfaffians", "generators"]
    assert data["m"] == 2
    assert data["U"] == [["x", "z"], ["z", "y"]]
    assert data["V"] == V2_STRINGS
    assert data["d"] == "x*y - z^2"
    assert data["pfaffians"] == ["y^2", "y*z", "-x*y + z^2", "x*z", "x^2"]
    assert data["generators"] == ["x^2", "x*z", "x*y - z^2", "y*z", "y^2"]


def test_gen_text(capsys):
    code, out, _ = run_cli(["gen", "--m", "2", "--format", "text"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m = 2"
    assert lines[1] == "d = x*y - z^2"
    assert "generators: x^2, x*z, x*y - z^2, y*z, y^2" in lines


def test_gen_rejects_csv(capsys):
    code, out, err = run_cli(["gen", "--m", "2", "--format", "csv"], capsys)
    assert code == 2
    assert out == "" and "error:" in err


# ---- classify -----------------------------------------------------------------

def test_classify_trim_json_frozen(capsys):
    code, out, err = run_cli(["classify", "--m", "3", "--trim", "d"], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert list(data) == ["mu", "type", "hilbert", "ranks", "p", "q", "r",
                          "class", "class_params", "gorenstein"]
    assert data == {"mu": 7, "type": 2, "hilbert": [1, 3, 6, 4, 1],
                    "ranks": [1, 7, 8, 2], "p": 0, "q": 1, "r": 4,
                    "class": "G", "class_params": {"r": 4}, "gorenstein": False}


def test_classify_family_matches_library(capsys):
    # the CLI prints report_dict itself: same keys, same order, same values
    for argv, kz in ((["--m", "3", "--trim", "d"], helpers.koszul(3, "d")),
                     (["--m", "2"], helpers.koszul(2))):
        code, out, _ = run_cli(["classify"] + argv, capsys)
        assert code == 0
        data, report = json.loads(out), report_dict(kz)
        assert data == report and list(data) == list(report), argv
    assert data["hilbert"] == [1, 3, 1]
    assert data["class"] == "Gorenstein"
    assert data["gorenstein"] is True


def test_classify_text_and_csv(capsys):
    code, out, _ = run_cli(["classify", "--m", "3", "--trim", "d",
                            "--format", "text"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "mu = 7" in lines
    assert "hilbert = 1 3 6 4 1" in lines
    assert "class = G(4)" in lines
    assert "class_params" not in out
    code, out, _ = run_cli(["classify", "--m", "3", "--trim", "d",
                            "--format", "csv"], capsys)
    assert code == 0
    header, row = out.splitlines()
    assert header == "mu,type,hilbert,ranks,p,q,r,class,gorenstein"
    assert row == "7,2,1 3 6 4 1,1 7 8 2,0,1,4,G(4),False"


def test_classify_ideal_file_round_trip(capsys, tmp_path):
    fam = tmp_path / "m2.json"
    code, out, _ = run_cli(["gen", "--m", "2", "--out", str(fam)], capsys)
    assert code == 0 and out == ""
    code, from_file, _ = run_cli(["classify", "--ideal", str(fam),
                                  "--trim", "x1"], capsys)
    assert code == 0
    code, from_m, _ = run_cli(["classify", "--m", "2", "--trim", "x1"], capsys)
    assert code == 0
    assert from_file == from_m
    data = json.loads(from_m)
    assert (data["mu"], data["class"]) == (4, "H")


def test_classify_generators_only_file(capsys, tmp_path):
    path = tmp_path / "ci.json"
    path.write_text(json.dumps({"generators": ["x^2", "y^2", "z^2"]}))
    code, out, _ = run_cli(["classify", "--ideal", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "CompleteIntersection"
    assert data["mu"] == 3 and data["gorenstein"] is True


def test_classify_argument_validation(capsys, tmp_path):
    for argv in (["classify"],
                 ["classify", "--m", "2", "--ideal", "whatever.json"],
                 ["classify", "--m", "3", "--trim", "q9"],
                 ["classify", "--m", "3", "--trim", "x3"],
                 ["classify", "--m", "1", "--trim", "x0"],
                 ["classify", "--m", "2", "--char", "15"],
                 ["classify", "--ideal", str(tmp_path / "missing.json")]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["classify", "--ideal", str(bad)], capsys)[0] == 2
    even = tmp_path / "even.json"
    even.write_text(json.dumps({"generators": ["x^2", "y^2", "z^2", "x*y"]}))
    code, _, err = run_cli(["classify", "--ideal", str(even), "--trim", "x0"], capsys)
    assert code == 2 and "odd generator count" in err


def test_classify_trim_counts_generators_as_listed(capsys, tmp_path):
    """--trim on a file counts and indexes the generators as the file lists
    them, zeros included; a selector on a zero generator exits 2, and a
    non-homogeneous file still exits 3."""
    def trim_file(generators, selector):
        path = tmp_path / "listed.json"
        path.write_text(json.dumps({"generators": generators}))
        return run_cli(["classify", "--ideal", str(path), "--trim", selector], capsys)

    code, out, err = trim_file(["x^2", "y^2", "0", "z^2"], "y0")
    assert (code, out) == (2, "") and "odd generator count" in err and "found 4" in err
    assert len(err.splitlines()) == 1
    code, out, err = trim_file(["x^2", "y^2", "0", "z^2", "x*y*z"], "d")
    assert (code, out, err) == (2, "", "error: cannot trim a zero generator\n")
    code, out, err = trim_file(["x^2 + x", "y^2", "z^2"], "x0")
    assert (code, out) == (3, "") and len(err.splitlines()) == 1
    code, trimmed, _ = trim_file(["x^2", "0", "y^2", "z^2", "x*y*z"], "y0")
    assert code == 0
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"generators": ["x^2", "y^2", "z^2", "x^2*y*z",
                                               "x*y^2*z", "x*y*z^2"]}))
    assert run_cli(["classify", "--ideal", str(path)], capsys) == (0, trimmed, "")


def test_classify_precondition_exit_codes(capsys, tmp_path):
    cases = {
        "not-primary.json": {"generators": ["x^2", "y^2"]},
        "not-homogeneous.json": {"generators": ["x^2 + x"]},
        "linear.json": {"generators": ["x", "y^2", "z^2"]},
    }
    for name, payload in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(["classify", "--ideal", str(path)], capsys)
        assert code == 3, name
        assert out == "" and "error:" in err


def test_classify_ideal_nonprime_characteristic_exits_2(tmp_path):
    for char in (4, 7.0, "5", False, 0.0):
        code, out, err = classify_ideal_file(
            tmp_path, {"field": {"char": char}, "generators": ["x^2", "y^2", "z^2"]})
        assert code == 2 and out == "", char
        assert err.startswith("error: bad field") and "Traceback" not in err
        assert len(err.splitlines()) == 1


def test_characteristic_beyond_certified_primality_exits_2(capsys, tmp_path):
    """psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the bases
    2..37 and psi_13 to 2..41; neither is accepted as a prime field, from
    --char or from a file, while the prime 2^61 - 1 is.  The prime 2^89 - 1
    is refused too, by a message that names the limit of the test."""
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    for char in (psi12, psi13):
        code, out, err = run_cli(["classify", "--m", "2", "--trim", "d", "--char", str(char)],
                                 capsys)
        assert code == 2 and out == "" and "characteristic must be prime" in err, char
        code, out, err = classify_ideal_file(
            tmp_path, {"field": {"char": char}, "generators": ["x^2", "y^2", "z^2"]})
        assert code == 2 and out == "" and err.startswith("error: bad field"), char
    code, out, _ = run_cli(["classify", "--m", "2", "--trim", "d", "--char", str(2 ** 61 - 1)],
                           capsys)
    assert code == 0 and json.loads(out)["class"] == "B"
    # the prime 2^89 - 1 lies beyond the test's limit, and the message says so
    code, out, err = run_cli(["classify", "--m", "2", "--trim", "d", "--char", str(2 ** 89 - 1)],
                             capsys)
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert (f"characteristic must be prime and below {psi13} (the limit of its primality "
            f"test), got {2 ** 89 - 1}") in err


def test_classify_ideal_not_utf8_exits_2(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"generators": ["x^2"]}).encode("utf-16-le"))
    code, out, err = run_cli_process(["classify", "--ideal", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_classify_ideal_field_not_an_object_exits_2(tmp_path):
    code, out, err = classify_ideal_file(
        tmp_path, {"field": 7, "generators": ["x^2", "y^2", "z^2"]})
    assert code == 2 and out == ""
    assert err.startswith("error: bad field") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_classify_ideal_denominator_divisible_by_p_exits_2(tmp_path):
    # 1/2 has no value mod 2: said in the field's terms, not in pow's
    code, out, err = classify_ideal_file(
        tmp_path, {"field": {"char": 2}, "generators": ["1/2*x^2", "y^2", "z^2"]})
    assert code == 2 and out == ""
    assert err == (f"error: bad generators in {tmp_path / 'ideal.json'}: "
                   "1/2 has no value in F_2: its denominator is divisible by 2\n")


def test_classify_ideal_zero_denominator_exits_2(tmp_path):
    code, out, err = classify_ideal_file(tmp_path, {"generators": ["3/0*x^2", "y^2", "z^2"]})
    assert code == 2 and out == ""
    assert err.startswith("error: bad generators") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_classify_ideal_order_key_is_ignored(capsys, tmp_path):
    # grevlex is the one order: an "order" key is read no more than any other unknown key
    path = tmp_path / "ideal.json"
    gens = ["x^2", "x*z", "x*y - z^2", "y*z", "y^2"]
    path.write_text(json.dumps({"generators": gens}))
    expected = run_cli(["classify", "--ideal", str(path), "--trim", "d"], capsys)
    assert expected[0] == 0
    for order in ("lex", "grlex", "revlex", ["x"], 5, None):
        path.write_text(json.dumps({"order": order, "generators": gens}))
        assert run_cli(["classify", "--ideal", str(path), "--trim", "d"], capsys) == expected


def test_classify_ideal_non_ascii_digit_exits_2(tmp_path):
    # "x^\u0663" (Arabic-Indic three) used to classify as x^3 with exit 0
    code, out, err = classify_ideal_file(tmp_path, {"generators": ["x^\u0663", "y^2", "z^2"]})
    assert code == 2 and out == ""
    assert err.startswith("error: bad generators") and "bad character" in err
    assert len(err.splitlines()) == 1


def test_classify_ideal_bad_generator_types_exit_2(tmp_path):
    # a string used to be read character by character, "xyz" as (x, y, z);
    # a non-string entry used to end in an AttributeError traceback
    for gens in ("xyz", [2], [None], {"x^2": 1}):
        code, out, err = classify_ideal_file(tmp_path, {"generators": gens})
        assert code == 2 and out == "", gens
        assert err.startswith("error: bad generators") and "Traceback" not in err
        assert len(err.splitlines()) == 1


def test_classify_ideal_juxtaposition_exits_2(tmp_path):
    code, out, err = classify_ideal_file(tmp_path, {"generators": ["x^2y", "y^3", "z^3"]})
    assert code == 2 and out == ""
    assert err.startswith("error: bad generators") and "missing operator" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_classify_three_generator_file_trims(capsys, tmp_path):
    path = tmp_path / "ci.json"
    path.write_text(json.dumps({"generators": ["x^2", "y^2", "z^2"]}))
    for sel in ("x0", "d", "y0"):
        code, out, err = run_cli(["classify", "--ideal", str(path), "--trim", sel], capsys)
        assert code == 0 and err == "", sel
        assert json.loads(out)["class"] == "B"
    code, out, err = run_cli(["classify", "--ideal", str(path), "--trim", "x1"], capsys)
    assert code == 2 and "needs 0 <= I <= 0 for m=1" in err


def test_selectors_match_in_full_ascii(capsys, tmp_path):
    # a trailing newline, a non-ASCII digit and a leading zero were accepted before
    path = tmp_path / "ci.json"
    path.write_text(json.dumps({"generators": ["x^2", "y^2", "z^2"]}))
    for sel in ("x1\n", "x\u0663", "x01", "y01", "d\n", " x1"):
        for source in (["--m", "4"], ["--ideal", str(path)]):
            code, out, err = run_cli(["classify"] + source + ["--trim", sel], capsys)
            assert code == 2 and out == "", (sel, source)
            assert err.startswith("error: bad trim selector") and len(err.splitlines()) == 1


def test_integer_arguments_match_in_full_ascii(capsys):
    # int() takes non-ASCII digits and `_` separators, so --m \u0663 classified
    # m = 3, --m 1_0 m = 10 and --char \u0667 picked F_7 before
    refused = [(["classify", "--m", text], f"argument --m: not an integer: {text!r}")
               for text in ("\u0663", "1_0", "\uff13", " \u0663 ")]
    refused += [(["table", "--m", text], f"argument --m: bad range {text!r}; expected N or A..B")
                for text in ("\u0662..\u0663", "2..\u0663", "\u0662", "2..1_0", "2_0..21")]
    refused += [(["classify", "--m", "3", "--char", text],
                 f"argument --char: invalid int value: {text!r}") for text in ("\u0667", "3_2003")]
    for argv, message in refused:
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", argv
        assert err.splitlines()[-1].endswith(message), argv
    # what int() read in ASCII reads the same: spaces, a newline and a sign
    for argv, same in ((["classify", "--m", " 3\n"], ["classify", "--m", "3"]),
                       (["classify", "--m", "+3", "--char", " 7 "],
                        ["classify", "--m", "3", "--char", "7"]),
                       (["table", "--m", " 2..+3"], ["table", "--m", "2..3"])):
        expected = run_cli(same, capsys)
        assert expected[0] == 0 and run_cli(argv, capsys) == expected, argv


def test_classify_unit_ideal_exits_3(tmp_path):
    code, out, err = classify_ideal_file(tmp_path, {"generators": ["1"]}, timeout=30)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        "error: minimal generators are only defined for ideals inside (x, y, z)"]


def test_classify_ideal_rational_coefficients(capsys, tmp_path):
    # over Q, 1/2*x^2 - y^2 and x^2 - 2*y^2 are proportional, so mu is 3
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"field": {"char": 0},
                                "generators": ["1/2*x^2 - y^2", "x^2 - 2*y^2", "x*y", "z^2"]}))
    code, out, err = run_cli(["classify", "--ideal", str(path)], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert (data["mu"], data["hilbert"], data["class"]) == (3, [1, 3, 3, 1],
                                                             "CompleteIntersection")


LINEAR_GENERATOR = ("error: ideal has a degree-1 minimal generator; classification "
                    "requires the ideal to sit inside the square of the maximal ideal")


def test_classify_ideal_large_pure_power(tmp_path):
    # the work grows linearly in a pure power's exponent: well inside 30 s
    code, out, err = classify_ideal_file(tmp_path, {"generators": ["x^160", "y^2", "z^2"]},
                                         timeout=30)
    assert code == 0 and err == ""
    assert json.loads(out)["class"] == "CompleteIntersection"


def test_classify_ideal_large_power_with_linear_generator_exits_3(tmp_path):
    code, out, err = classify_ideal_file(
        tmp_path, {"generators": ["x^400", "x", "y", "z^2"]}, timeout=30)
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.splitlines() == [LINEAR_GENERATOR]


def test_family_above_dimension_bound_exits_3():
    # each used to run for minutes, building the generator ladder (and for
    # table the rows below the bound) before any bound was checked
    for argv in (["classify", "--m", "5000", "--trim", "d"], ["classify", "--m", "84"],
                 ["hilbert", "--m", "5000"], ["gen", "--m", "300"],
                 ["table", "--m", "2..5000"], ["table", "--m", "84..84", "--format", "csv"]):
        code, out, err = run_cli_process(argv, timeout=30)
        assert code == 3 and out == "" and "Traceback" not in err, argv
        assert len(err.splitlines()) == 1 and err.startswith("error: m = "), argv
        assert "above the bound 200000" in err, argv


def test_classify_ideal_above_dimension_bound_exits_3(tmp_path):
    # x^999999999 used to hang; a huge degree is refused when the ideal is
    # built, and a least generator degree of 106 or more (every monomial below
    # it standard, so dim R >= C(108, 3)) before the Groebner basis; the
    # degrees of (x, y^2, z^150000) leave only 6, so the staircase walk finds
    # dim R = 300,000 and refuses it
    for gens, message in ((["x^999999999", "y^2", "z^2"], "generator of degree 999999999"),
                          (["x^600", "y^600", "z^600"], "more than 200000 standard monomials"),
                          (["x", "y^2", "z^150000"],
                           "more than 200000 standard monomials (the bound on dim R)\n")):
        code, out, err = classify_ideal_file(tmp_path, {"generators": gens}, timeout=30)
        assert code == 3 and out == "" and "Traceback" not in err, gens
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err


def test_trim_error_paths_frozen(capsys, tmp_path, monkeypatch):
    """`--ideal F --trim SEL` fails with the exit code and message it gave
    when every trim ran its own Groebner basis, whichever of the parent's
    checks fire first: the trim's own degree bounds, then artinian, then
    dim R.  The parent (x, y^5, z^5) has dim 25 and degree bound 20; its x0
    trim has dim 26 and degree bound 8.  (x, y^5, y*z^4) is not artinian,
    and its degree bound is 20 too."""
    walk = "quotient has more than {} standard monomials (the bound on dim R)"
    not_artinian = "quotient is not artinian; some variable has no pure-power leading term"
    for gens, selector, bound, code, message in (
            (["x^2", "y^2", "x*y"], "x0", None, 3, not_artinian),
            (["x", "y^5", "y*z^4"], "x0", 10, 3, not_artinian),
            (["x^2", "y^2", "0", "z^2", "x*y*z"], "d", None, 2, "cannot trim a zero generator"),
            (["x^2", "y^2", "z^2"], "x0", 2, 3, "generator of degree 3 is above the bound 2 on dim R"),
            (["x^2", "y^2", "z^2"], "x0", 5, 3,
             walk.format(5) + ": the generator degrees leave at least 8"),
            (["x", "y^5", "z^5"], "x0", 10, 3, walk.format(10)),  # the parent's bound fires
            (["x", "y^5", "z^5"], "x0", 24, 3, walk.format(24)),  # the parent's walk fires
            (["x", "y^5", "z^5"], "x0", 25, 3, walk.format(25)),  # one more than the parent's
            (["x", "y^5", "z^5"], "x0", 26, 0, None)):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"generators": gens}))
        with monkeypatch.context() as patch:
            if bound is not None:
                patch.setattr(ideals, "MAX_DIM", bound)
            got = run_cli(["classify", "--ideal", str(path), "--trim", selector], capsys)
        if message is None:
            assert got[0] == 0 and got[2] == "" and sum(json.loads(got[1])["hilbert"]) == 26
            assert hashlib.sha256(got[1].encode()).hexdigest() == (
                "3cd07b5a09ddf2ab263459034ce33bd078823694d024cd4c3231c56f3ba32962")
        else:
            assert got == (code, "", f"error: {message}\n"), (gens, bound)


def test_classify_ideal_trim_frozen_by_digest(capsys, tmp_path):
    """`classify --ideal FILE --trim SEL` for every selector of three files
    of mixed generator degree, over F_32003 and F_3, each stdout frozen by
    sha256 over the selectors in ladder order.  They hold trims at a
    non-minimal g, where R' = R (y0 of the first over F_3, y2 of the second
    over F_32003), trims at deg g = top_degree + 1 that make R' one degree
    taller (x2, d and y0 of the second, and y2 over F_3), and trims where
    R'_(deg g) grows by one (the rest); the coefficient 3 makes the two
    fields differ."""
    for gens, digests in (
            (["x^2", "y^3", "x*y*z", "z^3", "x^2*y + 3*y^2*z"],
             ("590ad837830ff421e9fc0a031f1d62a58b9b39a99aaa24e9e7eda8b1e5d7a50d",
              "2507c146d14865ddcf4dc0f67da0b4d12eda554cf3a55e75e1b34a4311145431")),
            (["x^2 + 3*y*z", "y^3", "z^4", "x*y^2*z", "y*z^3", "x*z^2", "y^2*z^2"],
             ("8af300703148eff076d7980a981964159c4d29644863b315573d9f0dd2fbf163",
              "8b28f07156d1193a1688f1ddb024bcf805ac9dcacdabbace1d980c212f867ebb")),
            (["x^3 + 3*y^3", "x*y^2", "y^4", "x^2*z - y^2*z", "z^3"],
             ("e52654cd512bd5e97f2ed77511752a342963ad761d5555bd20574c42c05efabf",
              "82186408d2c92111bbf18fcb5e87e3d61390175c7c5cab86b88ccfce19a8cad3"))):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"generators": gens}))
        for char, digest in zip(("32003", "3"), digests):
            out = ""
            for sel in selector_labels((len(gens) - 1) // 2):
                code, text, err = run_cli(["classify", "--ideal", str(path), "--trim", sel,
                                           "--char", char], capsys)
                assert code == 0 and err == "", (gens, sel, char)
                out += text
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (gens, char)


def test_buchberger_runs_once_per_family(capsys, monkeypatch):
    """Trims derive their rings from their parent's: `table --m 2..8` runs
    Buchberger 7 times, on each g_m, and `classify --m 14 --trim d` once."""
    calls = []

    def spy(generators):
        calls.append(tuple(generators))
        return buchberger(generators)

    monkeypatch.setattr(ideals, "buchberger", spy)
    assert run_cli(["table", "--m", "2..8", "--format", "csv"], capsys)[0] == 0
    assert calls == [tuple(canonical_generators(m, helpers.field())) for m in range(2, 9)]
    calls.clear()
    assert run_cli(["classify", "--m", "14", "--trim", "d"], capsys)[0] == 0
    assert calls == [tuple(canonical_generators(14, helpers.field()))]


# ---- table ---------------------------------------------------------------------

def test_table_csv_frozen(capsys):
    code, out, err = run_cli(["table", "--m", "2..2", "--format", "csv"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "m,g,mu,type,p,q,r,class",
        "2,x^2,5,2,1,1,2,B",
        "2,x*z,4,2,3,2,2,\"H(3,2)\"",
        "2,x*y - z^2,5,2,1,1,2,B",
        "2,y*z,4,2,3,2,2,\"H(3,2)\"",
        "2,y^2,5,2,1,1,2,B",
    ]


def test_table_json_and_text(capsys):
    code, out, _ = run_cli(["table", "--m", "3..3"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 7
    assert [r["class"] for r in rows] == [
        "G(4)", "G(3)", "G(3)", "G(4)", "G(3)", "G(3)", "G(4)"]
    assert all(list(r) == ["m", "g", "mu", "type", "p", "q", "r", "class"]
               for r in rows)
    code, out, _ = run_cli(["table", "--m", "3..3", "--format", "text"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["m", "g", "mu", "type", "p", "q", "r", "class"]
    assert len(lines) == 8


def test_table_range_validation(capsys):
    for bad in ("5..2", "1..3", "x", "2.."):
        code, _, _ = run_cli(["table", "--m", bad, "--format", "csv"], capsys)
        assert code == 2, bad


# ---- hilbert --------------------------------------------------------------------

def test_hilbert_json(capsys):
    code, out, _ = run_cli(["hilbert", "--m", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data == {"m": 4, "coefficients": [1, 3, 6, 10, 6, 3, 1],
                    "closed_form": [1, 3, 6, 10, 6, 3, 1], "match": True}


def test_hilbert_text_and_csv(capsys):
    code, out, _ = run_cli(["hilbert", "--m", "2", "--format", "text"], capsys)
    assert code == 0
    assert "coefficients = 1 3 1" in out and "match = True" in out
    code, out, _ = run_cli(["hilbert", "--m", "2", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["degree,computed,closed_form",
                                "0,1,1", "1,3,3", "2,1,1"]


# ---- cross-cutting behavior -------------------------------------------------------

def test_gen_rejects_bad_m(capsys):
    code, _, _ = run_cli(["gen", "--m", "0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["gen", "--m", "two"], capsys)
    assert code == 2


def test_byte_identical_reruns(capsys):
    for argv in (["table", "--m", "2..3", "--format", "csv", "--char", "0"],
                 ["classify", "--m", "3", "--trim", "x1"],
                 ["gen", "--m", "3"]):
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second
        assert first[0] == 0


def test_stdout_frozen_by_digest(capsys):
    """The sha256 of the whole stdout of larger runs: the JSON ones frozen
    before the Koszul eliminations stopped at the Euler count and products
    moved to coordinates, the text and CSV ones before `classify` and
    `table` shared one route to the displayed class, the `hilbert` ones
    before it read the Hilbert function off `quotient_ring()`, the interior
    trims (A_3 in two degrees) before H_3 was read off the exact socle, the
    `gen` ones before U_m and V_m came from one band rule, the small-
    characteristic tables before trims read products off the family's
    pairing.  No class, rank, Hilbert function, matrix or rendered byte
    moves."""
    for argv, digest in (
            (["table", "--m", "2..8"],
             "b564f3154460abade1875a989de277fd7507f16500cc67b862ce4c3dcbe42e19"),
            (["table", "--m", "2..8", "--format", "text"],
             "d7fafa7a06403302a5b94f6857005709f2b4fd5c437390af5d599760e4e84499"),
            (["table", "--m", "2..8", "--format", "csv"],
             "89618ea41a2ec22fa6abcfa3f43f36775ab99189013f9f8cb00bba2ea58c8d5b"),
            (["classify", "--m", "14", "--trim", "d", "--format", "text"],
             "7ef77acf4eaf04788d10032d5f2895ac44a928b47bff5e0d2e44d9cbb0c73d9a"),
            (["classify", "--char", "0", "--m", "9", "--trim", "y4", "--format", "csv"],
             "95c0e41a94c7c4e033ee852318dadb5cede89e346f151dd17128b0e7d4dab6aa"),
            (["classify", "--m", "14", "--trim", "d"],
             "cea2df432a0b192e3294429f375a1028b2cf4ac8945fedb61f1250fb09281461"),
            (["table", "--char", "0", "--m", "2..7"],
             "b942a106d31440228f011c04c17ea489c62ea36f8a3b0f2bc6c33bbde731f260"),
            (["table", "--m", "2..8", "--char", "2"],
             "461c47a260c854fca0b4886e4761cdcb1076cbd591b9b2a9cc28e3b6a86f04c7"),
            (["table", "--m", "2..8", "--char", "3"],
             "9c942eaff818121473efb28b17ff53e7553a2b6fddf27c981dca90c15f24da53"),
            (["hilbert", "--m", "17"],
             "31ef7906b3e0a412f96927885c9485cb4f9c854b424f9d4489714df2b74a36a9"),
            (["hilbert", "--m", "16", "--format", "csv"],
             "720ff9d1f548c6ac7c7f21f44e58f9ef4bb23039448611e30a3ed253551dcbbd"),
            (["classify", "--m", "14", "--trim", "x5"],
             "2cfea05770ebd12b36b8bc7cb930eb572493f4db076b38ea8025b809248800f6"),
            (["classify", "--char", "0", "--m", "9", "--trim", "x4"],
             "0870838b28ae15a7403a58e12c89cd1bde74774553285daf089241c4e6ff7d1f"),
            (["classify", "--char", "0", "--m", "9", "--trim", "d"],
             "1c2c9d9f6a676d4e778c99f7655f1b3c1918bbc82fc90311e40fd6e462a09dcc"),
            (["gen", "--m", "12"],
             "b8221c8d3925cbdf9674a904c2924a34dbd1ff67eb6aeb084f6e52d3b24489d2"),
            (["gen", "--char", "0", "--m", "12"],
             "b8221c8d3925cbdf9674a904c2924a34dbd1ff67eb6aeb084f6e52d3b24489d2"),
            (["gen", "--m", "7", "--format", "text"],
             "e3751b5bfe6be6a0e5346a765ad9ca64f7328a786c3f9e3b2cce14781cff3126"),
            (["gen", "--char", "0", "--m", "7", "--format", "text"],
             "e3751b5bfe6be6a0e5346a765ad9ca64f7328a786c3f9e3b2cce14781cff3126")):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == "", argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_out_writes_same_bytes_as_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["classify", "--m", "2", "--trim", "d"], capsys)
    assert code == 0
    code, silent, _ = run_cli(["classify", "--m", "2", "--trim", "d",
                               "--out", str(path)], capsys)
    assert code == 0 and silent == ""
    assert path.read_text() == out


def assert_cannot_write(target):
    code, out, err = run_cli_process(["classify", "--m", "2", "--trim", "x1",
                                      "--out", str(target)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_out_to_a_directory_exits_2(tmp_path):
    assert_cannot_write(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_out_under_a_missing_directory_exits_2(tmp_path):
    assert_cannot_write(tmp_path / "missing" / "report.json")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_is_refused_before_any_homology(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("KoszulComplex built before --out was checked")

    monkeypatch.setattr(gtrim.koszul, "KoszulComplex", refuse)
    target = tmp_path / "missing" / "report.json"
    for argv in (["classify", "--m", "2", "--trim", "x1"], ["table", "--m", "2..3"]):
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and len(err.splitlines()) == 1


def test_failed_command_leaves_no_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generators": ["x^2 + y", "y^2", "z^2"]}))
    for argv, expected in ((["classify"], 2), (["classify", "--ideal", str(bad)], 3)):
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert code == expected and out == "" and err.startswith("error: "), argv
        assert not target.exists(), argv
    target.write_text("kept")  # a file that was there before stays as it was
    code, _, _ = run_cli(["classify", "--out", str(target)], capsys)
    assert code == 2 and target.read_text() == "kept"


def test_char_zero_and_order_flags(capsys):
    code, at_p, _ = run_cli(["classify", "--m", "2", "--trim", "x1"], capsys)
    assert code == 0
    code, at_0, _ = run_cli(["classify", "--m", "2", "--trim", "x1",
                             "--char", "0"], capsys)
    assert code == 0
    assert at_p == at_0
    # grevlex is the one monomial order: there is no flag to choose another
    for command in (["classify", "--m", "2", "--trim", "x1"], ["table", "--m", "2..2"],
                    ["hilbert", "--m", "2"], ["gen", "--m", "2"]):
        code, out, err = run_cli(command + ["--order", "lex"], capsys)
        assert code == 2 and out == "" and "--order" in err, command


def test_classify_ideal_contract_fuzzed(capsys, tmp_path):
    """Every `--ideal` document ends with exit 0, 2 or 3 and no escaping
    exception; a non-zero exit leaves exactly one line on stderr."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    form = st.integers(0, 4).flatmap(lambda d: st.lists(
        st.builds(lambda c, i, j: f"{c}*x^{i}*y^{j}*z^{d - i - j}" if i + j <= d else "0",
                  st.integers(-3, 3), st.integers(0, d), st.integers(0, d)),
        min_size=1, max_size=3).map(" - ".join))
    poly = st.lists(form, min_size=2, max_size=3).map(" + ".join)  # often inhomogeneous
    odd = st.one_of(st.none(), st.booleans(), st.integers(-3, 40000), st.floats(),
                    st.text(max_size=4), st.lists(st.integers(), max_size=2))
    powers = st.tuples(*[st.integers(2, 4)] * 3).map(
        lambda e: [f"x^{e[0]}", f"y^{e[1]}", f"z^{e[2]}"])
    generators = st.one_of(
        st.builds(lambda p, extra: p + extra, powers, st.lists(form, max_size=3)),  # artinian
        st.lists(st.one_of(form, poly), max_size=6),
        st.lists(st.text(max_size=8), max_size=4),
        st.lists(odd, max_size=3),
        odd,
        st.dictionaries(st.text(max_size=3), odd, max_size=2))
    field = st.one_of(st.sampled_from([{"char": 2}, {"char": 3}, {"char": 0}, {}]),
                      st.dictionaries(st.sampled_from(["char", "p"]), odd, max_size=2), odd)
    with_generators = st.fixed_dictionaries({"generators": generators},
                                            optional={"field": field, "order": odd})
    without = st.one_of(odd, st.dictionaries(st.sampled_from(["generator", "field"]), odd,
                                             max_size=2))
    document = st.integers(0, 9).flatmap(lambda k: with_generators if k else without)
    path = tmp_path / "ideal.json"

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(document)
    def check(doc):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["classify", "--ideal", str(path)], capsys)
        assert code in (0, 2, 3), (doc, code)
        if code:
            assert out == "" and len(err.splitlines()) == 1, (doc, err)
            assert err.startswith("error: "), (doc, err)
        else:
            assert err == "" and json.loads(out)["class"], doc

    check()
