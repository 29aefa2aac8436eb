"""Command-line front end: expression parsing, dispatch, JSON I/O.

Every subcommand wraps library calls; exit codes are part of the contract:
0 success, 1 numerical failure, 2 precondition violation, 3 parse error,
one per error category in errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import domains, girard, linalg, sqrtlib, verify
from .errors import NumericalError, ParseError, PreconditionError
from .parsing import parse
from .ratexpr import render_ncpoly, to_text
from .symbasis import decompose_symmetric, reduce_to_pi
from .words import FreePoly, MatrixTuple


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True))


def _load_json(path: Optional[str], option: str):
    """The JSON document at path; a missing option, an unreadable file or
    invalid JSON is a PreconditionError."""
    if path is None:
        raise PreconditionError(f"this command needs {option}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise PreconditionError(f"cannot read {option} {path!r}: {exc}") \
            from exc


def _load_tuple(path: Optional[str], option: str) -> MatrixTuple:
    return linalg.tuple_from_json_dict(_load_json(path, option))


def _load_matrix(path: Optional[str]) -> np.ndarray:
    t = _load_tuple(path, "--matrix")
    if t.d != 1:
        raise PreconditionError(f"expected a single matrix (d=1), got d={t.d}")
    return t[0]


def _parse_complex(text: str) -> complex:
    value = parse(text)
    if isinstance(value, FreePoly) and set(value.terms) <= {()}:
        return value.coefficient(())
    raise ParseError(f"expected a complex literal, got {text!r}")


def _load_simple_set(args) -> domains.SimpleSet:
    """The disc system of --centers and --radius; a missing or invalid one
    is a PreconditionError."""
    if args.centers is None or args.radius is None:
        raise PreconditionError("this predicate needs --centers and --radius")
    centers = tuple(_parse_complex(part)
                    for part in args.centers.split(",") if part)
    try:
        return domains.SimpleSet(centers, args.radius)
    except ValueError as exc:
        raise PreconditionError(f"invalid disc system: {exc}") from exc


def _cmd_girard(args) -> int:
    report = None
    if args.verify:  # a refused verification prints nothing
        try:
            levels = tuple(int(s) for s in args.levels.split(","))
        except ValueError as exc:
            raise PreconditionError(f"--levels: {exc}") from exc
        report = girard.verify_girard_random(
            args.n, levels=levels, trials=args.trials, tol=args.tol,
            seed=args.seed)
    if args.n >= 0:
        print(render_ncpoly(girard.table_expression(args.n)))
    else:
        print(to_text(girard.girard_pair(args.n).P))
    if report is None:
        return 0
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_decompose(args) -> int:
    value = parse(args.expr)
    if not isinstance(value, FreePoly) or value.d != 2:
        raise PreconditionError("decompose expects a polynomial in x, y")
    g = decompose_symmetric(value)
    _emit({"genpoly": g.to_text(), "ratexpr": to_text(reduce_to_pi(g))})
    return 0


def _cmd_sqrt(args) -> int:
    m = linalg.spectrum(_load_matrix(args.matrix))
    if args.enumerate and args.gap is not None:
        linalg.require_positive("gap", args.gap)
    exists = sqrtlib.sqrt_exists(m)
    out = {"exists": exists, "enumeration": None}
    if args.enumerate:
        if exists:
            out["enumeration"] = sqrtlib.all_square_roots(
                m, gap=args.gap).to_json_dict()
        else:
            out["enumeration"] = {"roots": [], "k": 0, "extension": False,
                                  "empty": True}
    _emit(out)
    return 0


def _cmd_pi(args) -> int:
    w = _load_tuple(args.input, "--input")
    _emit(linalg.tuple_to_json_dict(linalg.pi(w)))
    return 0


def _cmd_fiber(args) -> int:
    w = _load_tuple(args.input, "--input")
    points = domains.fiber(w, tol=args.tol, gap=args.gap)
    _emit({"count": len(points),
           "fiber": [linalg.tuple_to_json_dict(p) for p in points]})
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, seed=args.seed)
    _emit(report.to_json_dict())
    return 0 if report.passed else 1


def _cmd_check_domain(args) -> int:
    pred = args.pred
    out: dict = {"pred": pred}
    if pred in ("Q", "I", "So"):  # without --tol, the library default
        tol = linalg.DEFAULT_TOL if args.tol is None else args.tol
        linalg.require_positive("tol", tol)
    if pred == "I":
        ratio = linalg.sv_ratio(_load_matrix(args.matrix))
        out["value"] = ratio > tol  # in_I, from the same SVD
        out["residuals"] = {"sv-ratio": ratio}
    elif pred in ("Q", "So"):
        if pred == "Q":
            m = _load_matrix(args.matrix)
        else:  # in_S_o: v in Q, from the same split as pi's
            m = linalg.uv_parts(_load_tuple(args.tuple, "--tuple"))[1]
        s = linalg.spectrum(m)
        margin = linalg.q_margin(s)
        if not np.isfinite(margin):  # JSON has no infinity
            raise NumericalError("min-pair-sum overflows the float range")
        out["value"] = linalg.in_Q(s, tol)
        out["residuals"] = {"min-pair-sum": margin}
    elif pred == "D":
        m = _load_matrix(args.matrix)
        out["value"] = domains.in_D_gamma(m, _load_simple_set(args))
    elif pred == "Ugamma":
        t = _load_tuple(args.tuple, "--tuple")
        if t.d != 2:
            raise PreconditionError("Ugamma expects a pair (u, x)")
        out["value"] = domains.in_U_gamma(
            t[0], t[1], _load_simple_set(args),
            tol=domains.COMMUTE_TOL if args.tol is None else args.tol)
    elif pred == "Bdelta":
        t = _load_tuple(args.tuple, "--tuple")
        rows = _load_json(args.delta, "--delta")
        if not (isinstance(rows, list) and rows and all(
                isinstance(row, list) and row and len(row) == len(rows[0])
                and all(isinstance(cell, str) for cell in row)
                for row in rows)):
            raise PreconditionError("--delta must be a 2-D array of strings")
        delta = [[_as_poly(parse(cell), t.d) for cell in row] for row in rows]
        norm = linalg.op_norm(linalg.eval_delta(delta, t))
        out["value"] = norm < 1.0
        out["residuals"] = {"block-norm": norm}
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown predicate {pred}")
    _emit(out)
    return 0


def _as_poly(value, d: int) -> FreePoly:
    if not isinstance(value, FreePoly):
        raise PreconditionError("delta entries must be word polynomials")
    if value.d == d:
        return value
    used = {k for word in value.terms for k in word}
    if used <= set(range(d)):
        return FreePoly(d, value.terms)
    raise PreconditionError(
        f"polynomial uses letters beyond the tuple's {d} components")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ncsym",
        description="Symmetric free polynomials, branch matrix square "
                    "roots, and rational power-sum identities")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("girard", help="emit the power-sum expression P_n")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--verify", action="store_true")
    g.add_argument("--levels", default="2,3")
    g.add_argument("--trials", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--tol", type=float, default=None)
    g.set_defaults(func=_cmd_girard)

    d = sub.add_parser("decompose",
                       help="write a symmetric polynomial over the "
                            "generators and reduce to alpha,beta,gamma")
    d.add_argument("--expr", required=True)
    d.set_defaults(func=_cmd_decompose)

    s = sub.add_parser("sqrt", help="square-root existence and enumeration")
    s.add_argument("--matrix", required=True)
    s.add_argument("--enumerate", action="store_true")
    s.add_argument("--gap", type=float, default=None)
    s.set_defaults(func=_cmd_sqrt)

    p = sub.add_parser("pi", help="apply the symmetrization map")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_pi)

    f = sub.add_parser("fiber", help="enumerate the fiber of pi at a pair")
    f.add_argument("--input", required=True)
    f.add_argument("--tol", type=float, default=domains.COMMUTE_TOL)
    f.add_argument("--gap", type=float, default=None)
    f.set_defaults(func=_cmd_fiber)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True,
                   choices=("nc", "anc", "girard", "pascoe", "symbasis"))
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("check-domain", help="membership predicates")
    c.add_argument("--pred", required=True,
                   choices=("Bdelta", "D", "Q", "I", "So", "Ugamma"))
    c.add_argument("--matrix")
    c.add_argument("--tuple")
    c.add_argument("--centers")
    c.add_argument("--radius", type=float)
    c.add_argument("--delta")
    c.add_argument("--tol", type=float, default=None)
    c.set_defaults(func=_cmd_check_domain)
    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        # every overflow this silences fails a finiteness check, which
        # raises NumericalError
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
