"""Command-line front end: single evaluations, sweeps, and validation.

Exit codes: 0 all good, 2 domain error (bad inputs or unsupported geometry),
3 precision failure (a check above tolerance or an internal precision guard).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import mpmath
from mpmath import mpf

from . import brute_force, cylinder, pfaffian, thermo, validate
from .lattice import OPEN, PERIODIC, CouplingGrid, HomogeneousCouplings, LatticeSpec
from .numerics import DomainError, PrecisionError, nstr, working_dps
from .qseries import free_energy_pieces

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PRECISION = 3

EVAL_COLUMNS = thermo.CSV_COLUMNS
SWEEP_COLUMNS = thermo.CSV_COLUMNS + ["q", "f_b", "f_s", "f_c"]


def _parse_args(argv):
    top = argparse.ArgumentParser(prog="isingrect", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one lattice by a chosen path")
    ev.add_argument("--path", choices=["oracle", "pfaffian", "tm", "spectral"],
                    default="spectral")
    ev.add_argument("-L", type=int)
    ev.add_argument("-M", type=int)
    ev.add_argument("--Kh", type=str)
    ev.add_argument("--Kv", type=str)
    ev.add_argument("--grid", type=str, help="coupling grid CSV (ell,m,Kh,Kv)")
    ev.add_argument("--bc", choices=["open", "periodic"], default="open",
                    help="vertical boundary condition")
    ev.add_argument("--digits", type=int, default=40)
    ev.add_argument("--out", type=str)
    ev.add_argument("--json", action="store_true")

    va = sub.add_parser("validate", help="run the cross-validation battery")
    va.add_argument("--digits", type=int, default=40)
    va.add_argument("--only", type=str, help="run only checks matching this substring")
    va.add_argument("--out", type=str)
    va.add_argument("--json", action="store_true")

    sw = sub.add_parser("sweep", help="sweep isotropic couplings over square sizes")
    sw.add_argument("--sweep-K", type=str, required=True, metavar="a:b:n",
                    help="n couplings spaced evenly on [a, b]")
    sw.add_argument("--sizes", type=str, required=True,
                    help="comma list of square sizes L = M")
    sw.add_argument("--digits", type=int, default=40)
    sw.add_argument("--out", type=str)
    sw.add_argument("--json", action="store_true")
    return top.parse_args(argv)


def _grid_from_args(args):
    if args.grid and (args.Kh or args.Kv or args.L or args.M):
        raise DomainError("pass either --grid or the scalar -L/-M/--Kh/--Kv, not both")
    if args.grid:
        return CouplingGrid.from_csv(args.grid, bc_vertical=args.bc, digits=args.digits)
    if not (args.L and args.M and args.Kh and args.Kv):
        raise DomainError("scalar evaluation needs -L, -M, --Kh and --Kv")
    spec = LatticeSpec(args.L, args.M, args.bc)
    # the decimal strings are parsed at the working precision, not in binary64
    return CouplingGrid.from_scalars(spec, args.Kh, args.Kv, digits=args.digits)


def _scalar_couplings(grid):
    """(Kh, Kv) of a grid with one coupling per bond direction, else (None, None).

    Absent bonds (L = 1, or M = 1 with open ends) read as zero.
    """
    L, M = grid.spec.L, grid.spec.M
    rows_v = M if grid.spec.bc_vertical == PERIODIC else M - 1
    khs = {grid.Kh[l][m] for l in range(L - 1) for m in range(M)} or {mpf(0)}
    kvs = {grid.Kv[l][m] for l in range(L) for m in range(rows_v)} or {mpf(0)}
    if len(khs) == 1 and len(kvs) == 1:
        return khs.pop(), kvs.pop()
    return None, None   # per-bond grid; scalar columns stay blank


def homogeneous_from_grid(grid, digits=40):
    """HomogeneousCouplings if the grid is open, homogeneous, and ferromagnetic."""
    Kh, Kv = _scalar_couplings(grid)
    if grid.spec.bc_vertical != OPEN or Kh is None or Kh <= 0 or Kv <= 0:
        return None
    return HomogeneousCouplings.from_K(Kh, Kv, digits)


def _eval_row(grid, path, digits):
    L, M = grid.spec.L, grid.spec.M
    blank = [""] * 3
    with working_dps(digits):
        Kh, Kv = _scalar_couplings(grid)
        if path == "spectral":
            # the other paths take any ferromagnetic grid, strong couplings too
            if homogeneous_from_grid(grid, digits) is None:
                raise DomainError(
                    "the spectral path needs an open homogeneous rectangle "
                    "with ferromagnetic couplings"
                )
            rep = thermo.report(L, M, Kh, Kv, digits)
            return rep.csv_row()
        if path == "oracle":
            logZ = brute_force.brute_force_logZ(grid, digits).logZ
        elif path == "pfaffian":
            logZ = pfaffian.logZ_pfaffian(grid, digits)
        else:
            logZ = cylinder.logZ_cylinder(grid, digits)
        head = ["" if v is None else nstr(v, digits)
                for v in (Kh, Kv, mpf(L), mpf(M), logZ, -logZ)]
        return head + blank


def _emit(rows, columns, out, as_json):
    if as_json:
        payload = [dict(zip(columns, r)) for r in rows]
        text = json.dumps(payload, indent=1) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args):
    grid = _grid_from_args(args)
    row = _eval_row(grid, args.path, args.digits)
    _emit([row], EVAL_COLUMNS, args.out, args.json)
    return EXIT_OK


def cmd_validate(args):
    results = validate.run_checks(digits=args.digits, only=args.only)
    columns = ["check", "defect", "tolerance", "status"]
    rows = []
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        rows.append([r.name, nstr(r.defect, 6), nstr(r.tolerance, 3), status])
    _emit(rows, columns, args.out, args.json)
    summary = f"{len(results) - failed}/{len(results)} checks passed at {args.digits} digits\n"
    sys.stderr.write(summary)
    return EXIT_OK if failed == 0 else EXIT_PRECISION


def _sweep_point(K_str, size, digits):
    with working_dps(digits):
        K = mpf(K_str)
        rep = thermo.report(size, size, K, K, digits)
        row = rep.csv_row()
        try:
            pieces = free_energy_pieces(K, digits)
            row += [nstr(pieces.q, digits), nstr(pieces.f_b, digits),
                    nstr(pieces.f_s, digits), nstr(pieces.f_c, digits)]
        except (DomainError, PrecisionError):
            row += ["", "", "", ""]  # too close to critical for the products
        return row


def cmd_sweep(args):
    with working_dps(args.digits):
        try:
            a, b, n = args.sweep_K.split(":")
            a, b, n = mpf(a), mpf(b), int(n)
        except ValueError as exc:
            raise DomainError(f"--sweep-K expects a:b:n, got {args.sweep_K!r}") from exc
        if n < 1:
            raise DomainError("--sweep-K needs n >= 1")
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError as exc:
            raise DomainError(f"--sizes expects integers, got {args.sizes!r}") from exc
        if not sizes:
            raise DomainError("--sizes must list at least one size")
        # each row is computed from the coupling's (digits + 5)-digit decimal
        Ks = [mpmath.nstr(a + (b - a) * k / max(n - 1, 1), args.digits + 5)
              for k in range(n)]
    rows = [_sweep_point(K, s, args.digits) for K in Ks for s in sizes]
    _emit(rows, SWEEP_COLUMNS, args.out, args.json)
    return EXIT_OK


def main(argv=None):
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    handler = {"eval": cmd_eval, "validate": cmd_validate, "sweep": cmd_sweep}[args.command]
    try:
        return handler(args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN
    except PrecisionError as exc:
        sys.stderr.write(f"precision failure: {exc}\n")
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
