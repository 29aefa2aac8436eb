import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ncsym
from ncsym import cli, errors, girard
from ncsym.cli import main
from ncsym.girard import girard_positive
from ncsym.linalg import tuple_to_json_dict
from ncsym.parsing import parse
from ncsym.words import MatrixTuple

from helpers import ncpoly_equal, record_eigensolves, thirty_distinct


@pytest.fixture
def files(tmp_path):
    def dump(name, t):
        path = tmp_path / name
        path.write_text(json.dumps(tuple_to_json_dict(t)))
        return str(path)

    eye2 = MatrixTuple((np.eye(2, dtype=complex),))
    nil = MatrixTuple((np.array([[0, 1], [0, 0]], dtype=complex),))
    pair = MatrixTuple((np.array([[4.0]]), np.array([[2.0]])))
    return {
        "id2": dump("id2.json", eye2),
        "nil": dump("nil.json", nil),
        "pair42": dump("pair42.json", pair),
        "tmp": tmp_path,
    }


def test_girard_output_parses_to_the_generated_expression(capsys):
    assert main(["girard", "--n", "3"]) == 0
    text = capsys.readouterr().out.strip()
    assert ncpoly_equal(parse(text), girard_positive(3).P)


def test_girard_with_verification(capsys):
    assert main(["girard", "--n", "2", "--verify", "--levels", "2",
                 "--trials", "3", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[1])
    assert report["passed"] is True


@pytest.mark.parametrize("n, digest", [
    ("12", "35db8b80eb69b1035fdb7f29110be67f0d24a4f936d03f3c8d3615b15403e6a3"),
    ("16", "accbfa335ccbc96a3d19f7b8127db610f633819dab6a6e1939c719613e1a9ec6"),
    ("-16", "0fb03e37fdc9371294856da5a568e3c3b68786e3fa2e428a22a834e13d4966cf"),
])
def test_girard_text_within_the_budgets_is_unchanged(n, digest, capsys):
    # 2^15 table words for 16; 5.1 MB of tree text for -16
    assert main(["girard", "--n", n]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["girard", "--n", "-5", "--verify", "--seed", "3"],
     "f7881ca3a1b97cb93ef9f960bc20c08e9b3ec3aa9fc09dac0888425ac92cc4f5"),
    (["verify", "--suite", "girard", "--seed", "2"],
     "0ccba7224ebedcee49f444af8f21f79bebc5d954d66a9950579ca5b398b4d196"),
])
def test_sampled_verdicts_print_the_same_bytes(argv, digest, capsys):
    # the samples, residual floats and witnesses of a seed are pinned
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, budget", [
    (["girard", "--n", "400"], "TERM_BUDGET"),
    (["girard", "--n", "-400", "--verify"], "TEXT_BUDGET"),
    (["decompose", "--expr", "(x+y)^40"], "TERM_BUDGET"),
    # the budget test compares exponents, and builds no 2^(10^9)
    (["girard", "--n", "1000000000"], "TERM_BUDGET"),
    # P_n takes |n| transfer steps, counted before the first is built
    (["girard", "--n", "-1000000000000"], "TERM_BUDGET"),
    (["girard", "--n", "99999999999999999999", "--verify", "--trials", "2",
      "--levels", "1"], "TERM_BUDGET"),
    # a power counts its factors before it makes a list of them
    *[(["decompose", "--expr", expr], "TERM_BUDGET") for expr in (
        "x^99999999999", "2.5^99999999999", "(x-y)^99999999999",
        "(x^200000)^200000", "x^1e308")],
])
def test_output_over_a_budget_is_refused_at_once(argv, budget, capsys):
    # the text of P_-400, the words of P_400 or (x+y)^40 and the factors
    # of x^99999999999 would not fit in memory; they are refused before
    # anything is printed, in one line
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition violation:")
    assert captured.err.count("\n") == 1 and budget in captured.err


def test_a_power_in_a_delta_cell_is_refused_at_once(files, capsys):
    delta = files["tmp"] / "delta.json"
    delta.write_text(json.dumps([["x^99999999999"]]))
    start = time.perf_counter()
    assert main(["check-domain", "--pred", "Bdelta", "--tuple", files["nil"],
                 "--delta", str(delta)]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("precondition violation:")
    assert "TERM_BUDGET" in captured.err


def test_decompose_of_a_high_power_is_one_transform(capsys):
    # 2^12 coefficients pass through 12 butterflies, not 4^12 products
    start = time.perf_counter()
    assert main(["decompose", "--expr", "(x+y)^12"]) == 0
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["genpoly"] == "4096*U^12"


def test_girard_verify_without_trials_is_refused(capsys):
    # zero trials used to print "passed": true with residual 0
    assert main(["girard", "--n", "-3", "--verify", "--trials", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_girard_verify_over_the_sample_budget_draws_nothing(capsys,
                                                            monkeypatch):
    monkeypatch.setattr(girard, "random_tuples", _no_draw)
    assert main(["girard", "--n", "2", "--verify", "--levels", "2,3",
                 "--trials", str(10 ** 9)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "SAMPLE_BUDGET" in captured.err


def _no_draw(*args):
    raise AssertionError("a sample was drawn")


@pytest.mark.parametrize("levels", ["a", "2,,3", "-1", "0"])
def test_girard_verify_bad_levels_are_refused(levels, capsys):
    # an unparsable list must not escape main() as a ValueError, and a
    # level below 1 has no sample to draw; a refusal prints no P_n either
    assert main(["girard", "--n", "2", "--verify", "--levels", levels,
                 "--trials", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_sqrt_enumerate(files, capsys):
    assert main(["sqrt", "--matrix", files["id2"], "--enumerate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is True
    assert len(out["enumeration"]["roots"]) == 2


def test_sqrt_nonexistent(files, capsys):
    assert main(["sqrt", "--matrix", files["nil"], "--enumerate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is False
    assert out["enumeration"]["roots"] == []


def _matrix_file(tmp, name, x):
    path = tmp / name
    path.write_text(json.dumps(tuple_to_json_dict(MatrixTuple((x,)))))
    return str(path)


def test_sqrt_exists_at_an_extreme_scale(files, capsys):
    path = _matrix_file(files["tmp"], "huge.json", np.array([[1e200]]))
    assert main(["sqrt", "--matrix", path]) == 0
    assert json.loads(capsys.readouterr().out)["exists"] is True


def test_sqrt_enumerate_ill_conditioned_matrix(files, capsys):
    # numerically singular, but with eigenvalues +-1: four roots
    path = _matrix_file(files["tmp"], "illcond.json",
                        np.array([[1.0, 1e6], [0.0, -1.0]]))
    assert main(["sqrt", "--matrix", path, "--enumerate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is True
    assert len(out["enumeration"]["roots"]) == 4


def test_sqrt_enumerate_where_eigenvalue_distances_overflow_exits_1(files,
                                                                   capsys):
    # 1e308 - (-1e308) overflows: refused before any disc is tested
    path = _matrix_file(files["tmp"], "apart.json", np.diag([-1e308, 1e308]))
    assert main(["sqrt", "--matrix", path, "--enumerate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == ("numerical failure: eigenvalues or their "
                                    "distances overflow the float range")


def test_sqrt_enumerate_over_the_stack_budget_exits_2(files, capsys):
    path = _matrix_file(files["tmp"], "wide.json", thirty_distinct())
    t0 = time.perf_counter()
    assert main(["sqrt", "--matrix", path, "--enumerate"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "budget" in capsys.readouterr().err


def test_pi_and_fiber(files, capsys):
    assert main(["pi", "--input", files["pair42"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d"] == 3
    assert out["entries"][0][0][0] == [3.0, 0.0]

    assert main(["fiber", "--input", files["pair42"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 2


def test_pi_overflow_is_a_numerical_failure(files, capsys):
    # v^2 and vuv hold inf * 0 = NaN, which is not JSON
    path = files["tmp"] / "overflow.json"
    w = MatrixTuple((np.diag([1e308, 1.0]), np.diag([-1e308, 2.0])))
    path.write_text(json.dumps(tuple_to_json_dict(w)))
    assert main(["pi", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows" in captured.err
    # as a process, with no numpy warning before the one stderr line
    proc = _run_module(["pi", "--input", str(path)])
    assert proc.returncode == 1 and proc.stderr == captured.err


def test_pairs_near_the_float_range_are_halved_before_they_are_summed(
        files, capsys):
    # w^1 - w^2 overflows, but v = (w^1 - w^2)/2 is finite and nilpotent
    path = files["tmp"] / "edge.json"
    e = np.zeros((3, 3))
    e[0, 1] = 1.0
    w = MatrixTuple((-1.7e308 * e, 1e308 * e))
    path.write_text(json.dumps(tuple_to_json_dict(w)))
    assert main(["fiber", "--input", str(path)]) == 2
    assert "needs v invertible" in capsys.readouterr().err
    assert main(["check-domain", "--pred", "So", "--tuple", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] is False and out["residuals"]["min-pair-sum"] == 0.0
    assert main(["pi", "--input", str(path)]) == 0
    u = json.loads(capsys.readouterr().out)["entries"][0][0][1]
    assert u == pytest.approx([-3.5e307, 0.0])


def test_check_domain_invertibility_where_the_2_norm_overflows(files, capsys):
    path = _matrix_file(files["tmp"], "huge.json",
                        np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]]))
    assert main(["check-domain", "--pred", "I", "--matrix", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] is True
    assert out["residuals"]["sv-ratio"] == pytest.approx(1.0)


def test_decompose(capsys):
    assert main(["decompose", "--expr", "x*y + y*x"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["genpoly"] == "-2*M0 + 2*U^2"
    assert main(["decompose", "--expr", "x*y"]) == 2  # not symmetric
    assert main(["decompose", "--expr", "x*(y"]) == 3  # parse error
    assert main(["decompose", "--expr", "alpha"]) == 2  # wrong kind


def test_decompose_decimal_coefficients(capsys):
    # the float change of variables leaves a 2.8e-17 odd-v part; symmetry
    # is decided exactly on the x,y coefficients instead
    assert main(["decompose", "--expr",
                 "0.35*x*y + 0.35*y*x + 0.15*x^3 + 0.05*x*y^2 + 0.05*y*x^2"
                 " + 0.15*y^3"]) == 0
    assert "U^3" in json.loads(capsys.readouterr().out)["genpoly"]


@pytest.mark.parametrize("expr, code", [
    ("+".join(["x*y", "y*x"] * 600), 0),
    ("(" * 3000 + "x" + ")" * 3000, 3),
    ("inv(" * 3000 + "x" + ")" * 3000, 3),
    ("1e999*x*y + 1e999*y*x", 3),
    ("1e300*1e300*x*y + 1e300*1e300*y*x", 3),
], ids=["1200-terms", "3000-parentheses", "3000-inv", "inf-literal",
        "overflowing-product"])
def test_decompose_long_deep_and_huge_inputs(expr, code, capsys):
    assert main(["decompose", "--expr", expr]) == code
    err = capsys.readouterr().err
    assert ("parse error" in err) == (code == 3)


@pytest.mark.parametrize("expr, position", [
    ("1e300*1e300*x*y + 1e300*1e300*y*x", 0),
    ("(1e200)^2*x*y + y*x", 0),
    ("inv(1e-320)*x*y + y*x", 0),
    ("y*x + inv(1e-320)*x*y", 6),
    ("(1e308 + x) + 1e308", 0),
    ("(1e200*x + y)*(1e200*y + x)", 0),
    ("y*x + (1e200*x + y)*(1e200*y + x)", 6),
    ("x + (y + 1e300*(1e300*x*y + x))", 9),
    ("inv(1e300*1e300*alpha)", 4),
])
def test_overflowing_constants_are_parse_errors(expr, position, capsys):
    # constants that fold, or expand, to a non-finite value are named as
    # such, at the sum or term that overflows, instead of failing a
    # symmetry test on nan coefficients
    assert main(["decompose", "--expr", expr]) == 3
    err = capsys.readouterr().err
    assert "parse error: number out of range" in err
    with pytest.raises(errors.ParseError) as info:
        parse(expr)
    assert info.value.position == position


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "pascoe", "--seed", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert {c["name"] for c in out["checks"]} >= {"pi-values-match",
                                                  "entry-1-4-discrepancy"}


def test_check_domain_predicates(files, capsys):
    assert main(["check-domain", "--pred", "Q", "--matrix",
                 files["id2"]]) == 0
    assert json.loads(capsys.readouterr().out)["value"] is True

    assert main(["check-domain", "--pred", "I", "--matrix",
                 files["nil"]]) == 0
    assert json.loads(capsys.readouterr().out)["value"] is False

    assert main(["check-domain", "--pred", "So", "--tuple",
                 files["pair42"]]) == 0
    assert json.loads(capsys.readouterr().out)["value"] is True

    assert main(["check-domain", "--pred", "D", "--matrix", files["id2"],
                 "--centers", "1", "--radius", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] is True


def test_check_domain_bdelta(files, capsys):
    delta = files["tmp"] / "delta.json"
    delta.write_text(json.dumps([["x"]]))
    assert main(["check-domain", "--pred", "Bdelta", "--tuple", files["nil"],
                 "--delta", str(delta)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] is False  # nilpotent block norm is exactly 1
    assert out["residuals"]["block-norm"] == pytest.approx(1.0)


def test_check_domain_ugamma(files, capsys, tmp_path):
    w = MatrixTuple((np.array([[0, 1], [1, 0]], dtype=complex),
                     np.diag([1.0, 4.0]).astype(complex)))
    path = tmp_path / "ux.json"
    path.write_text(json.dumps(tuple_to_json_dict(w)))
    assert main(["check-domain", "--pred", "Ugamma", "--tuple", str(path),
                 "--centers", "1,4", "--radius", "0.4"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] is True


def test_check_domain_ugamma_takes_the_library_tolerance(tmp_path, capsys):
    # a coupling of 1e-9 is below in_U_gamma's default tolerance, 1e-8,
    # so u commutes with I_(1,-1) there; it is not below 1e-10
    w = MatrixTuple((np.array([[1, 1e-9], [1e-9, 1]], dtype=complex),
                     np.diag([1.0, 4.0]).astype(complex)))
    path = tmp_path / "ux.json"
    path.write_text(json.dumps(tuple_to_json_dict(w)))
    argv = ["check-domain", "--pred", "Ugamma", "--tuple", str(path),
            "--centers", "1,4", "--radius", "0.4"]
    for extra, value in (([], False), (["--tol", "1e-10"], True)):
        assert main(argv + extra) == 0
        assert json.loads(capsys.readouterr().out)["value"] is value, extra


@pytest.mark.parametrize("pred, d, delta, code", [
    ("Ugamma", 3, None, 2),       # Ugamma reads a pair (u, x)
    ("Bdelta", 1, "y", 2),        # y is a letter beyond the tuple
    ("Bdelta", 2, "inv(x)", 2),   # not a word polynomial
    ("Bdelta", 2, "x*y", 0),      # a pair takes the polynomial as it is
], ids=["ugamma-triple", "bdelta-letter-out-of-range", "bdelta-rational",
        "bdelta-pair"])
def test_check_domain_refuses_what_its_predicate_cannot_read(
        pred, d, delta, code, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tuple_to_json_dict(
        MatrixTuple(tuple(0.5 ** (k + 1) * np.eye(2) for k in range(d))))))
    argv = ["check-domain", "--pred", pred, "--tuple", str(path)]
    if delta is None:
        argv += ["--centers", "1,4", "--radius", "0.4"]
    else:
        (tmp_path / "delta.json").write_text(json.dumps([[delta]]))
        argv += ["--delta", str(tmp_path / "delta.json")]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and "precondition violation" in err
    else:
        # ||x y|| = 1/2 * 1/4 for x = I/2, y = I/4
        assert json.loads(out)["residuals"]["block-norm"] == 0.125


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_a_tol_that_is_not_finite_and_positive_exits_2(tol, files, capsys,
                                                       tmp_path):
    # w lies in its own fiber, and u commutes with diag(1, -1): no such
    # tol can judge either, nor whether the zero matrix is invertible or
    # in Q
    assert main(["fiber", "--input", files["pair42"], "--tol", tol]) == 2
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(tuple_to_json_dict(
        MatrixTuple((np.zeros((1, 1)),)))))
    for pred in ("Q", "I"):
        assert main(["check-domain", "--pred", pred, "--matrix", str(zero),
                     "--tol", tol]) == 2
    assert main(["check-domain", "--pred", "So", "--tuple", files["pair42"],
                 "--tol", tol]) == 2
    w = MatrixTuple((np.diag([2.0, 3.0]).astype(complex),
                     np.diag([1.0, 4.0]).astype(complex)))
    path = tmp_path / "ux.json"
    path.write_text(json.dumps(tuple_to_json_dict(w)))
    assert main(["check-domain", "--pred", "Ugamma", "--tuple", str(path),
                 "--centers", "1,4", "--radius", "0.4", "--tol", tol]) == 2
    # P_5 is refused with its verification, before it is printed
    assert main(["girard", "--n", "5", "--verify", "--tol", tol]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("gap", ["nan", "-1", "0", "inf"])
def test_a_gap_that_is_not_finite_and_positive_exits_2(gap, files, capsys):
    # diag(1, 4) has four roots and a matrix without roots an empty list,
    # but no such gap can cluster a spectrum
    diag14 = _matrix_file(files["tmp"], "diag14.json", np.diag([1.0, 4.0]))
    for path in (diag14, files["nil"]):
        assert main(["sqrt", "--matrix", path, "--enumerate",
                     "--gap", gap]) == 2
    assert main(["fiber", "--input", files["pair42"], "--gap", gap]) == 2
    assert capsys.readouterr().out == ""


def _run_module(argv):
    """python -m ncsym.cli argv in a fresh process, warnings included."""
    src = os.path.dirname(os.path.dirname(ncsym.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "ncsym.cli"] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "nc", "--seed", "-1"],
    ["girard", "--n", "2", "--verify", "--seed", "-5"],
])
def test_a_negative_seed_exits_2_without_a_traceback(argv):
    proc = _run_module(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "seed" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", ["1000", "-1000"])
def test_girard_overflow_is_one_numerical_failure_line(n):
    # x^n overflows at these indices: no numpy warning may reach stderr
    proc = _run_module(["girard", "--n", n, "--verify"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert "overflows" in lines[0]


@pytest.mark.parametrize("pred, centers, radius", [
    ("Ugamma", "1,1.5", "0.2"),   # discs not quarter-isolated
    ("Ugamma", "1,4", "2"),       # 0 inside a disc
    ("Ugamma", "1,4", "-1"),
    ("D", "1", "-1"),
    ("D", "1", None),
    ("D", "1", "nan"),
    ("D", "1", "inf"),            # would cover every point
])
def test_check_domain_bad_disc_system_is_a_precondition_violation(
        pred, centers, radius, tmp_path, capsys):
    x = np.diag([1.0, 1.5]).astype(complex)
    mats = (np.eye(2, dtype=complex), x) if pred == "Ugamma" else (x,)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(tuple_to_json_dict(MatrixTuple(mats))))
    argv = ["check-domain", "--pred", pred, "--centers", centers,
            "--tuple" if pred == "Ugamma" else "--matrix", str(path)]
    if radius is not None:
        argv += ["--radius", radius]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["sqrt", "--matrix", "m", "--enumerate"],
    ["check-domain", "--pred", "Q", "--matrix", "m"],
    ["check-domain", "--pred", "So", "--tuple", "w"],
], ids=["sqrt-enumerate", "Q", "So"])
def test_matrix_commands_solve_once(argv, files, capsys, monkeypatch):
    # one Spectrum of the input matrix serves every predicate, residual and
    # the enumeration
    x = np.array([[1, 2, 0], [0, 4, 1], [0, 0, 9]], dtype=complex)
    eye = np.eye(3, dtype=complex)
    paths = {"m": _matrix_file(files["tmp"], "m.json", x),
             "w": files["tmp"] / "w.json"}
    paths["w"].write_text(json.dumps(tuple_to_json_dict(
        MatrixTuple((eye + x, eye - x)))))
    solves = record_eigensolves(monkeypatch)
    assert main([str(paths.get(a, a)) for a in argv]) == 0
    assert [kind for kind, _ in solves] == ["eigvals"]
    assert np.allclose(solves[0][1], x)
    json.loads(capsys.readouterr().out)


def test_json_output_is_deterministic(files, capsys):
    main(["sqrt", "--matrix", files["id2"], "--enumerate"])
    first = capsys.readouterr().out
    main(["sqrt", "--matrix", files["id2"], "--enumerate"])
    assert capsys.readouterr().out == first

    main(["verify", "--suite", "symbasis", "--seed", "9"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "symbasis", "--seed", "9"])
    assert capsys.readouterr().out == first



@pytest.mark.parametrize("data", [
    {"n": 2, "d": 1, "entries": [[[[float("nan"), 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [1.0, 0.0]]]]},
    {"n": 2, "d": 1, "entries": [[[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]]},
    {"n": 2, "d": 1, "entries": [[[[1.0, 0.0], [0.0, 0.0]]]]},
    {"n": 3, "d": 1, "entries": [[[[1.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [1.0, 0.0]]]]},
    {"n": 2, "d": 1},
], ids=["nan-entry", "ragged-row", "non-square", "header-mismatch",
        "no-entries"])
def test_malformed_matrix_json_is_a_precondition_violation(data, tmp_path,
                                                           capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["sqrt", "--matrix", str(path), "--enumerate"]) == 2
    assert "precondition violation" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-domain", "--pred", "Q"],
    ["check-domain", "--pred", "Q", "--matrix", "{missing}"],
    ["pi", "--input", "{dir}"],
    ["fiber", "--input", "{invalid}"],
    ["check-domain", "--pred", "So", "--tuple", "{invalid}"],
    ["check-domain", "--pred", "Bdelta", "--tuple", "{nil}"],
    ["check-domain", "--pred", "Bdelta", "--tuple", "{nil}",
     "--delta", "{invalid}"],
    ["check-domain", "--pred", "Bdelta", "--tuple", "{nil}",
     "--delta", "{numbers}"],
], ids=["no-matrix", "missing-file", "directory", "invalid-json-input",
        "invalid-json-tuple", "no-delta", "invalid-json-delta",
        "delta-not-strings"])
def test_unreadable_input_files_are_precondition_violations(argv, files,
                                                            capsys):
    tmp = files["tmp"]
    (tmp / "invalid.json").write_text('{"n": 1,')
    (tmp / "numbers.json").write_text("[[1, 0], [0, 1]]")
    paths = {"missing": str(tmp / "missing.json"), "dir": str(tmp),
             "invalid": str(tmp / "invalid.json"),
             "numbers": str(tmp / "numbers.json"), "nil": files["nil"]}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "precondition violation" in capsys.readouterr().err


# every package error and the exit code main() maps it to
_EXIT_CODES = {
    "ParseError": 3, "MixedChartError": 3,
    "PreconditionError": 2, "DimensionMismatchError": 2, "ChartError": 2,
    "AssignmentError": 2, "ExpansionError": 2,
    "SpectrumOutsideDomainError": 2, "UnsupportedError": 2,
    "NotSymmetricError": 2, "DomainError": 2,
    "NumericalError": 1, "SingularityError": 1, "InconclusiveError": 1,
    "GenerationError": 1, "IllConditionedInterpolationError": 1,
    "ClusteringError": 1, "ContradictionError": 1, "EvaluatorError": 1,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_maps_to_its_exit_code(monkeypatch, capsys):
    categories = (errors.ParseError, errors.PreconditionError,
                  errors.NumericalError)
    found = set(_subclasses(errors.NcsymError))
    assert {cls.__name__ for cls in found} == set(_EXIT_CODES)
    for cls in found:
        assert sum(issubclass(cls, c) for c in categories) == 1, cls

        def fail(args, cls=cls):
            raise cls("injected")

        monkeypatch.setattr(cli, "_cmd_pi", fail)
        assert main(["pi", "--input", "unused.json"]) \
            == _EXIT_CODES[cls.__name__], cls
