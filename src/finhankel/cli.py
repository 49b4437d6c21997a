"""Command-line front end.

Subcommands, each with ``--profile`` and the flags listed under it::

    transform     transform values on an r grid        (CSV or JSON rows)
                  --r-min --r-max --count --spacing --format --tol
    expand        origin/boundary ladders + terms      (JSON)
                  --max-k --n-terms
    verify        quadrature vs prediction + slope     (CSV or JSON)
                  --r-min --r-max --count --spacing --format --max-k
                  --n-terms --tol
    classify      invertibility verdict                (JSON)
                  --max-k --N --verify, and with --verify: --r-min --r-max --tol
    slowdecrease  window-supremum corroboration        (CSV or JSON)
                  --r-min --r-max --format --tol

A subcommand takes only the flags it reads: any other flag exits 2, and so
do classify's --r-min, --r-max and --tol without --verify.

Exit codes: 0 success, 2 malformed profile/arguments, 3 quadrature tolerance
not certified (rows are still emitted), 4 hypothesis violation in the
expansion machinery.  Output is deterministic for a fixed invocation: CSV
numbers carry 17 significant digits, JSON carries the same values as raw
floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import asymptotics as asym
from .errors import DomainError, FinHankelError, ProfileFormatError
from .invertibility import classify, verify_profile_slow_decrease
from .profiles import (
    RadialProfile,
    boundary_expansion,
    origin_expansion,
    profile_from_json,
)
# no command calls finite_hankel, but bench/tracing.py rebinds it by this name
from .quadrature import QuadratureConfig, _finite_hankel_grid, finite_hankel

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TOLERANCE = 3
EXIT_HYPOTHESIS = 4

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _r_grid(args) -> np.ndarray:
    if args.r_min <= 0 or args.r_max < args.r_min or args.count < 1:
        raise ProfileFormatError("need 0 < r-min <= r-max and count >= 1")
    if args.count == 1:
        return np.array([args.r_min])
    if args.spacing == "log":
        return np.geomspace(args.r_min, args.r_max, args.count)
    return np.linspace(args.r_min, args.r_max, args.count)


def _load_profile(path: str) -> RadialProfile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProfileFormatError(f"cannot read profile: {exc}") from exc
    return profile_from_json(text)


def _emit_rows(args, header, rows, extra=None):
    """Rows as CSV lines or a JSON document; identical numbers either way."""
    if args.format == "json":
        doc = {"rows": [dict(zip(header, row)) for row in rows]}
        if extra:
            doc.update(extra)
        sys.stdout.write(json.dumps(doc) + "\n")
        return
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    for key, val in (extra or {}).items():
        sys.stdout.write(f"# {key} = {_fmt(val)}\n")


def _tolerance_ok(values, estimates, tol) -> bool:
    scale = max((abs(v) for v in values), default=0.0)
    floor = 1e-6 * scale
    return all(e <= tol * max(abs(v), floor) for v, e in zip(values, estimates))


def cmd_transform(args) -> int:
    profile = _load_profile(args.profile)
    cfg = QuadratureConfig(target_rel_tol=args.tol)
    grid = _r_grid(args)
    values, estimates, _ = _finite_hankel_grid(profile, grid, cfg)
    rows = [(r, v.real, v.imag, e) for r, v, e in zip(grid.tolist(), values.tolist(), estimates.tolist())]
    _emit_rows(args, ("r", "re", "im", "error_estimate"), rows)
    return EXIT_OK if _tolerance_ok(values, estimates, args.tol) else EXIT_TOLERANCE


def cmd_expand(args) -> int:
    profile = _load_profile(args.profile)
    origin = origin_expansion(profile, max_k=args.max_k)
    kk = asym.k_set(origin, profile.nu)
    doc = {
        "origin": {
            "mu": [origin.mu.real, origin.mu.imag],
            "c_k": [[k, c.real, c.imag] for k, c in enumerate(origin.coeffs)],
            "K": list(kk.members),
            "k0": kk.k0,
        },
        "boundary": None,
    }
    if not profile.vanishes_near_one:
        boundary = boundary_expansion(profile, max_j=args.max_k)
        doc["boundary"] = {
            "lambda_k": [[e.real, e.imag] for e, _ in boundary.terms],
            "a_k": [[a.real, a.imag] for _, a in boundary.terms],
            "Lambda": [boundary.Lambda.real, boundary.Lambda.imag],
            "N": boundary.N,
        }
    pred = asym.predict(profile, n_origin_terms=args.n_terms, max_k=args.max_k)
    doc["terms"] = [_term_dict(t) for t in pred.origin_terms + pred.boundary_terms]
    doc["valid_error_order"] = (
        None if math.isinf(pred.valid_error_order) else pred.valid_error_order
    )
    sys.stdout.write(json.dumps(doc) + "\n")
    return EXIT_OK


def _term_dict(t: asym.AsymptoticTerm) -> dict:
    out = {
        "amplitude": [t.amplitude.real, t.amplitude.imag],
        "exponent": [t.exponent.real, t.exponent.imag],
        "phase": None,
    }
    if t.phase is not None:
        off = complex(t.phase.offset)
        out["phase"] = {"freq": t.phase.freq, "offset": off.real}
        if off.imag:
            out["phase"]["offset_imag"] = off.imag
    return out


def cmd_verify(args) -> int:
    if args.count < 2 or not args.r_max > args.r_min:
        raise ProfileFormatError("verify fits a slope: need count >= 2 and r-max > r-min")
    profile = _load_profile(args.profile)
    cfg = QuadratureConfig(target_rel_tol=args.tol)
    pred = asym.predict(profile, n_origin_terms=args.n_terms, max_k=args.max_k)
    grid = _r_grid(args)
    rep = asym.dominance(pred)
    if pred.boundary_terms:
        # tied decays: sample where the cosine factor vanishes, so the
        # non-oscillatory part is measured alone; edge-dominated: sample the
        # envelope at the |cos| = 1 points
        snap = None
        if rep.kind is asym.Dominance.BALANCED:
            snap = asym.cosine_zero_grid(pred.boundary_terms[0], args.r_min, args.r_max)
        elif rep.kind is asym.Dominance.BOUNDARY:
            snap = asym.cosine_extremum_grid(pred.boundary_terms[0], args.r_min, args.r_max)
        if snap is not None and snap.size >= 2:
            idx = np.unique(np.searchsorted(snap, grid).clip(0, snap.size - 1))
            grid = snap[idx]
    values, estimates, _ = _finite_hankel_grid(profile, grid, cfg)
    rows = []
    for r, v in zip(grid.tolist(), values.tolist()):
        pv = asym.evaluate_prediction(pred, r)
        err = abs(v - pv)
        rows.append((r, v.real, v.imag, pv.real, pv.imag, err, err / abs(v) if abs(v) > 0 else math.inf))
    slope = asym.fit_loglog_slope([row[0] for row in rows], [row[5] for row in rows])
    _emit_rows(
        args,
        ("r", "quadrature_re", "quadrature_im", "prediction_re", "prediction_im", "abs_err", "rel_err"),
        rows,
        extra={"remainder_slope": slope},
    )
    ok = _tolerance_ok(values, estimates, args.tol)
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_classify(args) -> int:
    given = [flag for flag in _VERIFY_FLAGS if _FLAGS[flag]["dest"] in vars(args)]
    if given and not args.verify:
        raise ProfileFormatError(f"classify reads {' '.join(given)} only with --verify")
    profile = _load_profile(args.profile)
    verdict = classify(profile, max_k=args.max_k, N=args.N)
    doc = verdict.to_dict()
    if args.verify:
        r_min, r_max, tol = (
            getattr(args, _FLAGS[flag]["dest"], _FLAGS[flag]["default"]) for flag in _VERIFY_FLAGS
        )
        report = verify_profile_slow_decrease(profile, (r_min, r_max), QuadratureConfig(target_rel_tol=tol))
        doc["slow_decrease"] = report.to_dict()
    sys.stdout.write(json.dumps(doc) + "\n")
    return EXIT_OK


def cmd_slowdecrease(args) -> int:
    profile = _load_profile(args.profile)
    report = verify_profile_slow_decrease(
        profile, (args.r_min, args.r_max), QuadratureConfig(target_rel_tol=args.tol)
    )
    if args.format == "json":
        sys.stdout.write(json.dumps(report.to_dict()) + "\n")
    else:
        sys.stdout.write("passed,worst_margin,windows,failures,insufficient_resolution\n")
        sys.stdout.write(
            f"{int(report.passed)},{_fmt(report.worst_margin)},"
            f"{report.windows},{report.failures},{int(report.insufficient_resolution)}\n"
        )
    return EXIT_OK


# every flag of the CLI, as argparse keyword arguments
_FLAGS = {
    "--profile": dict(required=True, help="path to profile JSON"),
    "--r-min": dict(type=float, default=50.0, dest="r_min"),
    "--r-max": dict(type=float, default=2000.0, dest="r_max"),
    "--count": dict(type=int, default=20),
    "--spacing": dict(choices=("linear", "log"), default="log"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--max-k": dict(type=int, default=8, dest="max_k"),
    "--n-terms": dict(type=int, default=3, dest="n_terms"),
    "--N": dict(type=int, default=8),
    "--tol": dict(type=float, default=1e-10, dest="tol"),
    "--verify": dict(action="store_true"),
}

# classify reads these only under --verify, so it records them only when given
_VERIFY_FLAGS = ("--r-min", "--r-max", "--tol")

# each subcommand takes exactly the flags its cmd_* reads
_COMMANDS = (
    ("transform", cmd_transform,
     ("--profile", "--r-min", "--r-max", "--count", "--spacing", "--format", "--tol")),
    ("expand", cmd_expand, ("--profile", "--max-k", "--n-terms")),
    ("verify", cmd_verify,
     ("--profile", "--r-min", "--r-max", "--count", "--spacing", "--format",
      "--max-k", "--n-terms", "--tol")),
    ("classify", cmd_classify,
     ("--profile", "--r-min", "--r-max", "--max-k", "--N", "--tol", "--verify")),
    ("slowdecrease", cmd_slowdecrease, ("--profile", "--r-min", "--r-max", "--format", "--tol")),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finhankel",
        description="finite Hankel transforms: quadrature, asymptotics, invertibility",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        for flag in flags:
            spec = _FLAGS[flag]
            if name == "classify" and flag in _VERIFY_FLAGS:
                spec = dict(spec, default=argparse.SUPPRESS)
            sp.add_argument(flag, **spec)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ProfileFormatError, DomainError) as exc:
        # a DomainError here is an argument value the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FinHankelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
