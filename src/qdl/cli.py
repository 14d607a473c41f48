"""Command-line interface: every verification and experiment as a subcommand.

Exit codes: 0 success, 1 usage/precondition error, 2 verification failure.
JSON output has sorted keys and floats rounded to 12 significant digits so
reports are byte-stable for fixed flags and seed; TSV output has a single
header row.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import InvariantError
from . import constants as C

# the acceptance suite, found from the package location so that verify-all
# works from any directory of a source checkout
ACCEPTANCE_TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "tests", "test_acceptance.py")


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": _round_floats(obj.real), "im": _round_floats(obj.imag)}
    return obj


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def emit_json(obj, out_path: str | None):
    _write(json.dumps(_round_floats(obj), sort_keys=True, indent=1), out_path)


def emit_tsv(header: list[str], rows: list[tuple], out_path: str | None):
    lines = ["\t".join(header)]
    for r in rows:
        lines.append("\t".join(
            f"{x:.12g}" if isinstance(x, float) else str(x) for x in r))
    _write("\n".join(lines), out_path)


def _delta_weights():
    """omega_1 and omega_2 of the delta expansions, on their default supports."""
    from .weights import make_bump

    return (make_bump(*C.OMEGA1_SUPPORT, "radial-normalized"),
            make_bump(*C.OMEGA2_SUPPORT, "even-halfline-normalized"))


def _cong_from_args(args):
    from .cyclotomic import CycRes
    from .expsums import CongruenceData

    M = getattr(args, "M", 1)
    b1 = tuple(getattr(args, "beta1", None) or (0, 0, 0, 0))
    b2 = tuple(getattr(args, "beta2", None) or (0, 0, 0, 0))
    return CongruenceData(M, CycRes(b1, M), CycRes(b2, M))


def _add_congruence_args(p):
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--beta1", type=int, nargs=4)
    p.add_argument("--beta2", type=int, nargs=4)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qdl", description=__doc__)
    ap.add_argument("--out", help="write the report to this path instead of stdout")
    ap.add_argument("--format", choices=["json", "tsv"],
                    help="report format; a subcommand that cannot print it exits 1")
    ap.add_argument("--seed", type=int, default=1)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rho", help="congruence count rho(q)")
    p.add_argument("--q", type=int, required=True)

    for name in ("s1", "s2"):
        p = sub.add_parser(name, help=f"evaluate {name.upper()} (brute and fast)")
        p.add_argument("--q", type=int, required=True)
        if name == "s2":
            p.add_argument("--d", type=int, default=1)
            p.add_argument("--c", type=int, nargs=2, default=(1, 0))
        _add_congruence_args(p)
        p.add_argument("--a1", type=int, nargs=4, default=(1, 0, 0, 0))
        p.add_argument("--a2", type=int, nargs=4, default=(0, 1, 0, 0))

    p = sub.add_parser("delta1d-check")
    p.add_argument("--Q", type=float, default=200.0)
    p.add_argument("--nmax", type=int, default=400)

    p = sub.add_parser("delta2d-check")
    p.add_argument("--X", type=float, default=100.0)
    p.add_argument("--D", type=float, default=10.0)
    p.add_argument("--grid", type=int, default=200)

    sub.add_parser("poisson-check")

    p = sub.add_parser("sigma-p")
    p.add_argument("--p", type=int, required=True)
    _add_congruence_args(p)

    p = sub.add_parser("tau-p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--v", type=int, nargs=2, required=True)
    _add_congruence_args(p)

    p = sub.add_parser("singular-series")
    p.add_argument("--prime-cutoff", type=int, default=200_000,
                   help="prime cutoff of the euler-product constants")
    p.add_argument("--method", choices=["euler-product", "partial-sum-fit", "both"],
                   default="both")

    p = sub.add_parser("lambda", help="good-prime coefficients of a cubic")
    p.add_argument("--f", type=int, nargs=4, required=True,
                   help="a0 a1 a2 a3 of f = a3 x^3 + ... + a0")
    p.add_argument("--pmax", type=int, default=100)

    p = sub.add_parser("rankin")
    p.add_argument("--f1", type=int, nargs=4, default=(-1, -1, 0, 1))
    p.add_argument("--f2", type=int, nargs=4, default=(-1, 1, 0, 1))
    p.add_argument("--Q", type=float, nargs="+", default=[1e3, 10**3.5, 1e4, 10**4.5, 1e5])
    p.add_argument("--B", type=int, default=1)

    p = sub.add_parser("galois-sweep")
    p.add_argument("--Y", type=float, nargs="+", default=[10.0, 20.0, 40.0])

    p = sub.add_parser("divisor-sum")
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("thm1-report")
    p.add_argument("--N-grid", type=int, nargs="+",
                   default=[10**4, 10**5, 10**6, 10**7, 10**8])

    p = sub.add_parser("thm2-check")
    p.add_argument("--X1", type=float, default=12.0)
    p.add_argument("--X2", type=float, default=12.0)
    _add_congruence_args(p)
    p.add_argument("--pairs", type=int, default=12)
    p.add_argument("--mc-samples", type=int, default=60_000,
                   help="sigma_inf Monte Carlo samples for the whole family, split evenly "
                        "over the pairs; each pair gets at least 2000")

    p = sub.add_parser("level-dist")
    p.add_argument("--Q", type=int, default=500)
    p.add_argument("--X", type=float, default=500.0)
    p.add_argument("--q0", type=int, default=1)
    p.add_argument("--a0", type=int, default=0)
    p.add_argument("--region", type=float, nargs=4, default=(0.1, 0.9, 0.1, 0.9))

    p = sub.add_parser("prop5-check")
    p.add_argument("--X1", type=float, default=6.0)
    p.add_argument("--X2", type=float, default=6.0)
    p.add_argument("--D", type=float, default=3.0)
    p.add_argument("--M", type=int, default=1)

    p = sub.add_parser("verify-all")
    p.add_argument("--budget", choices=["quick", "full"], default="quick")
    return ap


# the formats --format may name per subcommand; the others print json only
FORMATS = {"rho": ("json", "tsv"), "delta2d-check": ("json", "tsv"),
           "divisor-sum": ("json", "tsv"), "lambda": ("tsv",), "rankin": ("tsv",),
           "verify-all": ()}


def dispatch(args) -> int:
    out = args.out
    cmd = args.cmd
    if args.format and args.format not in FORMATS.get(cmd, ("json",)):
        print(f"{cmd} cannot print {args.format}", file=sys.stderr)
        return 1
    if cmd == "rho":
        from .residues import rho

        if args.q < 1:
            print("q must be >= 1", file=sys.stderr)
            return 1
        if args.format == "tsv":
            emit_tsv(["q", "rho"], [(args.q, rho(args.q))], out)
        else:
            emit_json({"q": args.q, "rho": rho(args.q)}, out)
        return 0

    if cmd in ("s1", "s2"):
        from .cyclotomic import CycInt, Vec2Int
        from . import expsums

        cong = _cong_from_args(args)
        a1, a2 = CycInt(*args.a1), CycInt(*args.a2)
        if cmd == "s1":
            fast = expsums.s1_fast(a1, a2, args.q, cong)
            rep = {"q": args.q, "M": args.M, "fast": fast.value}
            if args.q <= expsums.S1_BRUTE_QMAX:
                brute = expsums.s1_brute(a1, a2, args.q, cong)
                rep["brute"] = brute.value
                rep["diff_unnormalized"] = abs(brute.value - fast.value) * args.q ** 3
        else:
            c = Vec2Int(*args.c)
            fast = expsums.s2_fast(a1, a2, c, args.d, args.q, cong)
            rep = {"q": args.q, "d": args.d, "c": list(args.c), "M": args.M,
                   "fast": fast.value}
            if args.d * args.q <= expsums.S2_BRUTE_DQMAX:
                brute = expsums.s2_brute(a1, a2, c, args.d, args.q, cong)
                rep["brute"] = brute.value
                rep["diff_unnormalized"] = abs(brute.value - fast.value) * (args.d * args.q) ** 3
        emit_json(rep, out)
        return 0

    if cmd == "delta1d-check":
        from .delta import delta1d

        if args.nmax < 0:
            raise ValueError(f"nmax must be >= 0, got {args.nmax}")
        _, w2 = _delta_weights()
        worst = 0.0
        rows = []
        for n in range(-args.nmax, args.nmax + 1):
            v = delta1d(n, args.Q, w2)
            err = abs(v - (1.0 if n == 0 else 0.0))
            worst = max(worst, err)
            if n in (-args.nmax, -1, 0, 1, args.nmax):
                rows.append((n, v, err))
        emit_json({"Q": args.Q, "max_error": worst, "samples": rows}, out)
        return 0 if worst <= 1e-6 else 2

    if cmd == "delta2d-check":
        import numpy as np

        from .delta import delta2d

        w1, w2 = _delta_weights()
        rng = np.random.default_rng(args.seed)
        pts = [(0, 0)] + [(int(rng.integers(-args.X + 1, args.X)),
                           int(rng.integers(-args.X + 1, args.X))) for _ in range(args.grid - 1)]
        rows = []
        worst = 0.0
        for n in pts:
            v = delta2d(n, args.D, args.X, w1, w2)
            err = abs(v - (1.0 if n == (0, 0) else 0.0))
            worst = max(worst, err)
            rows.append((n[0], n[1], v, err))
        if args.format == "tsv":
            emit_tsv(["n1", "n2", "value", "abs_error"], rows, out)
        else:
            emit_json({"X": args.X, "D": args.D, "max_error": worst,
                       "term_count": len(rows)}, out)
        return 0 if worst <= 1e-3 else 2

    if cmd == "poisson-check":
        import itertools

        from .delta import poisson_check

        checks = []
        lhs, rhs = poisson_check(1.0, 1, {(0, 0, 0, 0): 1.0})
        checks.append(("gamma=1 constant", abs(lhs - rhs)))
        g2 = {t: (1.0 if t == (1, 0, 1, 1) else 0.0)
              for t in itertools.product(range(2), repeat=4)}
        lhs, rhs = poisson_check(1.3, 2, g2)
        checks.append(("gamma=2 indicator", abs(lhs - rhs)))
        import cmath

        g3 = {t: cmath.exp(2j * cmath.pi * ((t[0] + 2 * t[3]) % 3) / 3)
              for t in itertools.product(range(3), repeat=4)}
        lhs, rhs = poisson_check(0.8, 3, g3)
        checks.append(("gamma=3 character", abs(lhs - rhs)))
        worst = max(c[1] for c in checks)
        emit_json({"checks": [{"name": n, "two_sided_gap": g} for n, g in checks],
                   "max_gap": worst}, out)
        return 0 if worst <= 1e-8 else 2

    if cmd == "sigma-p":
        from .singular import sigma_p

        est = sigma_p(args.p, _cong_from_args(args))
        emit_json({"p": est.prime, "value": est.value, "truncation_k": est.truncation_k,
                   "tail_bound": est.tail_bound, "kind": est.kind}, out)
        return 0

    if cmd == "tau-p":
        from .cyclotomic import Vec2Int
        from .singular import tau_p

        est = tau_p(Vec2Int(*args.v), args.p, _cong_from_args(args))
        emit_json({"p": est.prime, "v": list(args.v), "value": est.value,
                   "truncation_k": est.truncation_k, "tail_bound": est.tail_bound}, out)
        return 0

    if cmd == "singular-series":
        from .singular import c_constants, kappa, sigma_p, sigma_p_product
        from .expsums import CongruenceData
        from .residues import sieve_primes

        cong = CongruenceData.trivial()
        rep = {"kappa": kappa()}
        if args.method in ("euler-product", "both"):
            rep["euler_product"] = c_constants("euler-product", args.prime_cutoff)
        if args.method in ("partial-sum-fit", "both"):
            rep["partial_sum_fit"] = c_constants("partial-sum-fit")
        rep["sigma_p_product"], rep["sigma_p_product_error"] = sigma_p_product(cong)
        rep["per_prime"] = [{"p": p, "sigma_p": sigma_p(p, cong).value}
                            for p in sieve_primes(30)]
        emit_json(rep, out)
        return 0

    if cmd == "lambda":
        from .dedekind import classify
        from .residues import IntPoly, root_counts, sieve_primes

        desc = classify(IntPoly(*args.f))
        if desc.galois_type != "S3":
            print(f"cubic is {desc.galois_type}, not S3", file=sys.stderr)
            return 1
        primes = [p for p in sieve_primes(args.pmax) if p not in desc.bad_primes]
        rows = [(p, n, n - 1) for p, n in zip(primes, root_counts([desc.f], primes)[0].tolist())]
        emit_tsv(["p", "num_roots", "lambda"], rows, out)
        return 0

    if cmd == "rankin":
        from .dedekind import classify, rankin_partial
        from .residues import IntPoly
        from .weights import make_bump

        d1 = classify(IntPoly(*args.f1))
        d2 = classify(IntPoly(*args.f2))
        if d1.galois_type != "S3" or d2.galois_type != "S3":
            print("both cubics must be S3", file=sys.stderr)
            return 1
        phi = make_bump(1.0, 2.0, "plain")
        rows = [(Q, rankin_partial(d1, d2, Q, args.B, phi)) for Q in args.Q]
        emit_tsv(["Q", "partial_sum"], rows, out)
        return 0

    if cmd == "galois-sweep":
        from .dedekind import galois_count_sweep
        from .experiments import fit_loglog

        rows = [(Y, galois_count_sweep(Y)) for Y in args.Y]
        slope, ci = fit_loglog([r[0] for r in rows], [max(r[1], 1) for r in rows])
        emit_json({"counts": [{"Y": y, "non_S3": c} for y, c in rows],
                   "fitted_exponent": slope, "ci": list(ci)}, out)
        return 0

    if cmd == "divisor-sum":
        from .experiments import divisor_sum

        if args.N < 1:
            print("N must be >= 1", file=sys.stderr)
            return 1
        val = divisor_sum(args.N)
        if args.format == "tsv":
            emit_tsv(["N", "sum"], [(args.N, val)], out)
        else:
            emit_json({"N": args.N, "sum": val}, out)
        return 0

    if cmd == "thm1-report":
        from .experiments import theorem1_report
        from .singular import c_constants, kappa

        ep, k = c_constants("euler-product", 100_000), kappa()
        rep = theorem1_report(args.N_grid, k, ep["c_minus1"], ep["c_0"])
        emit_json({"grid": [{"N": r[0], "lhs": r[1], "main": r[2], "residual": r[3]}
                            for r in rep.grid],
                   "slope": rep.slope, "slope_ci": list(rep.slope_ci),
                   "constants": {"kappa": k, "euler": ep}}, out)
        return 0 if rep.slope < 0.5 else 2

    if cmd == "thm2-check":
        from .experiments import ExperimentConfig, thm2_check

        cfg = ExperimentConfig(X1=args.X1, X2=args.X2, M=args.M,
                               beta1p=tuple(args.beta1 or (0,) * 4),
                               beta2p=tuple(args.beta2 or (0,) * 4),
                               mc_samples=args.mc_samples, seed=args.seed)
        rep = thm2_check(cfg, args.pairs)
        emit_json(rep, out)
        return 0 if rep["pass"] else 2

    if cmd == "level-dist":
        from .experiments import level_of_distribution

        rep = level_of_distribution(args.Q, args.X, args.q0, args.a0,
                                    tuple(args.region))
        emit_json(rep, out)
        return 0

    if cmd == "prop5-check":
        from .experiments import ArchWeight, ExperimentConfig, prop5_decomposition_check

        cfg = ExperimentConfig(X1=args.X1, X2=args.X2, D=args.D, M=args.M)
        w1, w2 = _delta_weights()
        phi = ArchWeight.centered(0.35)
        rep = prop5_decomposition_check(cfg, phi, phi, w1, w2)
        emit_json(rep, out)
        return 0 if rep["diff"] <= 1e-2 * abs(rep["direct"]) else 2

    if cmd == "verify-all":
        import subprocess

        path = os.path.normpath(ACCEPTANCE_TESTS)
        if not os.path.isfile(path):
            print(f"no acceptance suite at {path}: verify-all needs a source checkout",
                  file=sys.stderr)
            return 1
        extra = [] if args.budget == "full" else ["-m", "not slow"]
        r = subprocess.run([sys.executable, "-m", "pytest", path, "-v", *extra])
        return 0 if r.returncode == 0 else 2

    print(f"unknown subcommand {cmd}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return dispatch(args)
    except (ValueError, OSError) as e:  # OSError: an --out path that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantError as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
