"""Command-line front end: dispatches to the library and emits CSV plus a
JSON run summary.

`mfunc`, `fullline` and `upsilon` evaluate their z or lambda list as one
stacked library call per block of at most 256 points; a block that fails
is retried point by point, so a failed point is recorded alone in the
summary and the other rows are the same bytes a clean block writes.
`bands` and `borg` evaluate their lambda grid in stacked blocks as well.
Every CSV's columns are fixed by the potential's block size m, so a sweep
whose points all fail still writes its full header.

The argparse tree is built once, when this module is imported; `main` only
parses, so a process that runs many commands pays for the tree once.

Determinism: rows are written in input order with 17-significant-digit
formatting, so identical configurations produce byte-identical outputs
(only wall_time_s in the summary differs).  A float table passed as an
array (bands.csv) takes the array writer of the arraytext module, which
forms the bytes of fmt % row for whole blocks of rows; it writes exactly
what the per-row loop would.  That module is imported only where it is
used, by an array table or by save_potential (the gauge command's
normal_form.json), so the commands that write neither never compile it.
"""

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, gauge
from .asymptotics import (
    check_order,
    derivative_samples,
    expansion_coefficients,
)
from .errors import DegenerateArguments, DiracWeylError
from .foundation import (
    MAX_POINTS,
    alpha_dirichlet,
    load_potential,
    matnorm,
    need,
    save_potential,
    validate_boundary_data,
)
from .fullline import GreensEvaluator, fullline_m, upsilon
from .gauge import gauge_with_omega, normal_form
from .spectral import (
    TRACE_ZMAGS,
    band_spectrum,
    borg_diagnostic,
    reflectionless_check,
    trace_check,
    uniqueness_decay,
)
from .weyldisk import disk_membership, halfline_m


def _parse_complex(text):
    """A complex number with an i or j suffix: 2+1e3i, 1i, inf, nan."""
    text = text.strip()
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def _parse_list(text, conv):
    return [conv(tok) for tok in text.split(",") if tok.strip()]


def _parse_grid(text):
    lo, hi, n = text.split(":")
    need(0 <= int(n) <= MAX_POINTS, "lo:hi:n", f"0 <= n <= {MAX_POINTS}", n)
    # ends near the float limit give NaN points, refused by _check_finite
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(float(lo), float(hi), int(n))


def _parse_matrix(text, shape, name):
    rows = [r for r in text.split(";") if r.strip()]
    mat = np.array([[_parse_complex(v) for v in r.split(",")] for r in rows])
    if mat.shape != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]}")
    return mat


def _parse_alpha(text, m):
    if text is None:
        return alpha_dirichlet(m)
    mat = _parse_matrix(text, (m, 2 * m), "alpha")
    return validate_boundary_data(mat[:, :m], mat[:, m:])


def _cols(prefix, n):
    """Column names of an n x n complex matrix in _flat's order."""
    return [f"{prefix}{i}{j}_{part}" for i in range(1, n + 1)
            for j in range(1, n + 1) for part in ("re", "im")]


def _flat(mat):
    """Row-major (re, im) pairs of a complex matrix."""
    return np.asarray(mat, complex).ravel().view(float)


# points per stacked library call of a sweep (mfunc, fullline, upsilon): a
# failing block is retried point by point, so it also bounds that retry;
# band_spectrum's lambda blocks are spectral._LAMBDA_BLOCK
_SWEEP_BLOCK = 256


class _Run:
    """One invocation: its tolerances, outputs, failed points and summary."""

    def __init__(self, args):
        self.args = args
        self.outdir = args.out
        os.makedirs(self.outdir, exist_ok=True)
        self.t0 = time.time()
        self.tols = {}
        self.files = []
        self.failures = []
        self.info = {}

    def sweep(self, points, label, f):
        """Rows in input order, f(block) giving the rows of one stacked
        block of at most _SWEEP_BLOCK points.  A block that raises
        DiracWeylError is retried point by point: a failing point gives no
        row and one failure record keyed by label(p)."""
        rows = []
        for i in range(0, len(points), _SWEEP_BLOCK):
            block = points[i:i + _SWEEP_BLOCK]
            try:
                rows += f(block)
            except DiracWeylError:
                for j, p in enumerate(block):
                    try:
                        rows += f(block[j:j + 1])
                    except DiracWeylError as err:
                        self.failures.append({**label(p),
                                              "category": err.category,
                                              "message": str(err)})
        return rows

    def table(self, name, header, rows, fmt=None):
        """Write one CSV: the tolerance line, the header, then fmt % row per
        row (default %.17g in every column).  rows is a sequence of rows or
        a 2-D array; on a little-endian host a float array whose columns
        are all %.17g or %d goes through the array writer
        (arraytext.write_table, imported here only), which writes the same
        bytes without formatting row by row, and everything else through
        the per-row loop."""
        fmt = fmt or ",".join(["%.17g"] * len(header))
        cols = fmt.split(",")
        array = (isinstance(rows, np.ndarray) and rows.dtype == float
                 and rows.ndim == 2 and rows.shape[1] == len(cols)
                 and sys.byteorder == "little"
                 and set(cols) <= {"%.17g", "%d"})
        with open(os.path.join(self.outdir, name), "wb") as fh:
            fh.write(("# " + json.dumps({"tolerances": self.tols}) + "\n"
                      + ",".join(header) + "\n").encode())
            if array:
                from .arraytext import write_table
                write_table(fh, rows, np.array(cols) == "%d")
            else:
                line = fmt + "\n"
                for row in (rows.tolist() if isinstance(rows, np.ndarray)
                            else rows):
                    fh.write((line % tuple(row)).encode())
        self.files.append(name)

    def finish(self):
        summary = {
            "command": self.args.command,
            "version": __version__,
            "inputs": {k: v for k, v in sorted(vars(self.args).items())
                       if k != "func" and v is not None},
            "tolerances": self.tols,
            "outputs": self.files,
            "wall_time_s": round(time.time() - self.t0, 6),
            "partial": bool(self.failures),
        }
        if self.failures:
            summary["failures"] = self.failures
        summary["info"] = self.info
        # strict JSON: a NaN or inf raises here instead of being written
        text = json.dumps(summary, indent=1, default=str, allow_nan=False)
        with open(os.path.join(self.outdir, "summary.json"), "w") as fh:
            fh.write(text + "\n")
        return 1 if self.failures else 0


# ---------------------------------------------------------------------------
# subcommands: cmd_x(args, spec, run) with spec the --potential
# ---------------------------------------------------------------------------

def cmd_mfunc(args, spec, run):
    alpha = _parse_alpha(args.alpha, spec.m)
    zs = _parse_list(args.z, _parse_complex)
    sign = 1 if args.sign == "+" else -1
    run.tols = {"halfline_tol": args.tol}

    def block(zs):
        h = halfline_m(zs, args.x0, alpha, spec, sign=sign, tol=args.tol)
        return [[z.real, z.imag, t, *_flat(mat)]
                for z, t, mat in zip(zs, h.tail_bound, h.M)]
    run.table("mfunc.csv", ["z_re", "z_im", "tail_bound"] + _cols("M", spec.m),
              run.sweep(zs, lambda z: {"z": str(z)}, block))


def cmd_disk(args, spec, run):
    m = spec.m
    alpha = _parse_alpha(args.alpha, m)
    z = _parse_complex(args.z)
    mat = _parse_matrix(args.m_value, (m, m), "m-value")
    run.tols = {"membership_tol": args.tol}
    point = disk_membership(mat, z, args.c, args.x0, alpha, spec, tol=args.tol)
    run.table("disk.csv", ["classification"] + _cols("E", m),
              [[point.classification, *_flat(point.e_c_value)]],
              "%s" + ",%.17g" * (2 * m * m))
    run.info["classification"] = point.classification


def cmd_expand(args, spec, run):
    xs = _parse_grid(args.grid)
    sign = 1 if args.sign == "+" else -1
    check_order(args.order, len(xs))
    derivs = derivative_samples(spec, xs, max(args.order - 1, 0))
    coeffs = expansion_coefficients(derivs, args.x, args.order, sign=sign)
    run.tols = {"derivative_order": derivs.order}
    rows = [[k, i + 1, j + 1, v.real, v.imag]
            for k, c in enumerate(coeffs.coeffs)
            for (i, j), v in np.ndenumerate(c)]
    run.table("expand.csv", ["k", "row", "col", "re", "im"], rows,
              "%d,%d,%d,%.17g,%.17g")


def cmd_fullline(args, spec, run):
    alpha = _parse_alpha(args.alpha, spec.m)
    zs = _parse_list(args.z, _parse_complex)
    run.tols = {"halfline_tol": args.tol}

    def block(zs):
        f = fullline_m(zs, args.x0, alpha, spec, tol=args.tol)
        return [[z.real, z.imag, d, *_flat(mat)]
                for z, d, mat in zip(zs, f.m22_defect, f.matrix)]
    run.table("fullline.csv",
              ["z_re", "z_im", "m22_defect"] + _cols("M", 2 * spec.m),
              run.sweep(zs, lambda z: {"z": str(z)}, block))


def cmd_greens(args, spec, run):
    z = _parse_complex(args.z)
    ev = GreensEvaluator(z, args.x0, spec, tol=args.tol)
    xps = _parse_list(args.xp, float)
    run.tols = {"halfline_tol": args.tol}
    g = ev.value(args.x, xps, side=args.side)
    rows = [[args.x, xp, *_flat(val)] for xp, val in zip(xps, g.value)]
    run.table("greens.csv", ["x", "xp"] + _cols("G", 2 * spec.m), rows)


def cmd_trace(args, spec, run):
    mags = _parse_list(args.zmags, float)
    run.tols = {"halfline_tol": args.tol}
    tc = trace_check(args.x, spec, ray_angle=args.ray_angle, zmags=mags,
                     tol=args.tol)
    n = 2 * spec.m
    run.table("trace.csv", ["z_re", "z_im", "residual"] + _cols("T", n),
              [[z.real, z.imag, res, *_flat(rhs)]
               for z, rhs, res in zip(tc.zs, tc.rhs, tc.residuals)])
    run.table("trace_limit.csv", _cols("L", n), [_flat(tc.lhs)])
    run.info["residuals"] = list(tc.residuals)
    run.info["limit_residual"] = matnorm(tc.limit - tc.lhs)


def cmd_bands(args, spec, run):
    lams = _parse_grid(getattr(args, "lambda"))
    run.tols = {"multiplier_tol": args.band_tol}
    bs = band_spectrum(spec, lams, tol=args.band_tol)
    n = 2 * spec.m
    rows = np.column_stack([bs.lams, bs.in_band, bs.multipliers.view(float)])
    run.table("bands.csv", ["lambda", "in_band"] + [
        f"mu{k}_{part}" for k in range(1, n + 1) for part in ("re", "im")],
        rows, "%.17g,%d" + ",%.17g" * (2 * n))
    run.info["bands"] = [list(b) for b in bs.bands]
    run.info["gaps"] = [list(g) for g in bs.gaps]


def cmd_reflectionless(args, spec, run):
    xs = _parse_list(args.x_list, float)
    lams = _parse_list(args.lambda_list, float)
    run.tols = {"tol": args.tol, "eps": args.eps}
    rep = reflectionless_check(spec, xs, lams, eps=args.eps, tol=args.tol)
    run.table("reflectionless.csv", ["x", "lambda", "deviation"], rep.samples)
    run.info["reflectionless"] = rep.ok
    run.info["worst_deviation"] = rep.worst


def cmd_borg(args, spec, run):
    run.tols = {"comb_tol": args.tol, "band_tol": args.band_tol,
                "grid_step": args.grid_step}
    rep = borg_diagnostic(spec, lam_max=args.lam_max,
                          grid_step=args.grid_step, comb_tol=args.tol,
                          band_tol=args.band_tol)
    run.info.update({
        "full_spectrum": rep.full_spectrum,
        "lam_max": rep.lam_max,
        "bands": [list(b) for b in rep.bands],
        "gaps": [list(g) for g in rep.gaps],
        "comb_diag_max": rep.comb_diag_max,
        "comb_off_max": rep.comb_off_max,
        "consistent": rep.consistent,
    })
    run.table("borg.csv", ["comb_diag_max", "comb_off_max", "full_spectrum",
                           "consistent"],
              [[rep.comb_diag_max, rep.comb_off_max, rep.full_spectrum,
                rep.consistent]], "%.17g,%.17g,%d,%d")


def cmd_uniqueness(args, spec, run):
    spec2 = load_potential(args.potential2)
    mags = _parse_list(args.zmags, float)
    run.tols = {"halfline_tol": args.tol}
    fit = uniqueness_decay(spec, spec2, args.x0, args.a,
                           ray_angle=args.ray_angle, zmags=mags,
                           tol=args.tol)
    run.table("uniqueness.csv", ["zmag", "norm_diff"],
              zip(fit.zmags, fit.norms))
    run.info.update({"slope": fit.slope, "prefactor_exp": fit.prefactor_exp,
                     "intercept": fit.intercept, "r2": fit.r2,
                     "target": 2.0 * args.a, "used": list(fit.used)})


def cmd_gauge(args, spec, run):
    if args.omega is not None:
        omega = _parse_matrix(args.omega, (spec.m, spec.m), "omega")
        out = gauge_with_omega(spec, omega, args.x0, args.x1)
    else:
        out = normal_form(spec, args.x0, args.x1)
    # the unitarity defect above which the gauge factors are re-projected
    run.tols = {"unitarity_tol": gauge._REUNIT_TOL}
    save_potential(out, os.path.join(run.outdir, "normal_form.json"))
    run.files.append("normal_form.json")


def cmd_upsilon(args, spec, run):
    alpha = _parse_alpha(args.alpha, spec.m)
    lams = _parse_grid(getattr(args, "lambda"))
    run.tols = {"halfline_tol": args.tol, "eps": args.eps}

    def block(lams):
        u = upsilon(lams, args.x0, alpha, spec, args.eps, tol=args.tol)
        return [[lam, args.eps, *_flat(val)] for lam, val in zip(lams, u.value)]
    run.table("upsilon.csv", ["lambda", "eps"] + _cols("Y", 2 * spec.m),
              run.sweep(lams, lambda lam: {"lambda": float(lam)}, block))


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="diracweyl",
        description="Weyl-Titchmarsh M-functions and spectral diagnostics "
                    "for Dirac-type operators J d/dx - B(x).")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--potential", required=True,
                        help="potential JSON file")
        sp.add_argument("--out", default="diracweyl-out",
                        help="output directory")

    sp = sub.add_parser("mfunc", help="half-line M-function on a z list")
    common(sp)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--z", required=True, help="comma list, e.g. 0+1e3i,2i")
    sp.add_argument("--sign", choices=["+", "-"], default="+")
    sp.add_argument("--alpha", default=None,
                    help="m x 2m matrix 'a,b;c,d' (default (I 0))")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_mfunc)

    sp = sub.add_parser("disk", help="classify M against the Weyl disk")
    common(sp)
    sp.add_argument("--z", required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--m-value", required=True, help="m x m matrix 'a,b;c,d'")
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_disk)

    sp = sub.add_parser("expand", help="high-energy expansion coefficients")
    common(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--sign", choices=["+", "-"], default="+")
    sp.add_argument("--grid", required=True, help="lo:hi:n sample grid")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("fullline", help="whole-line M matrix on a z list")
    common(sp)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--z", required=True)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_fullline)

    sp = sub.add_parser("greens", help="Green's matrix values")
    common(sp)
    sp.add_argument("--z", required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--xp", required=True, help="comma list of x'")
    sp.add_argument("--side", type=int, choices=[1, -1], default=1)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_greens)

    sp = sub.add_parser("trace", help="trace-formula residuals")
    common(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--ray-angle", type=float, default=math.pi / 2)
    sp.add_argument("--zmags", default=",".join(map(str, TRACE_ZMAGS)))
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("bands", help="Floquet band structure")
    common(sp)
    sp.add_argument("--lambda", required=True, help="lo:hi:n real grid")
    sp.add_argument("--band-tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_bands)

    sp = sub.add_parser("upsilon", help="boundary density samples")
    common(sp)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--lambda", required=True, help="lo:hi:n real grid")
    sp.add_argument("--eps", type=float, default=1e-4)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=cmd_upsilon)

    sp = sub.add_parser("reflectionless", help="Upsilon = I/2 check")
    common(sp)
    sp.add_argument("--x-list", default="0.0")
    sp.add_argument("--lambda-list", required=True)
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.set_defaults(func=cmd_reflectionless)

    sp = sub.add_parser("borg", help="Borg rigidity diagnostic")
    common(sp)
    sp.add_argument("--lam-max", type=float, default=None)
    sp.add_argument("--grid-step", type=float, default=0.01)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--band-tol", type=float, default=1e-6)
    sp.set_defaults(func=cmd_borg)

    sp = sub.add_parser("uniqueness", help="exponential closeness decay fit")
    common(sp)
    sp.add_argument("--potential2", required=True)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--a", type=float, required=True,
                    help="agreement window length")
    sp.add_argument("--ray-angle", type=float, default=math.pi / 2)
    sp.add_argument("--zmags", default="3,4,5,6,7,8")
    sp.add_argument("--tol", type=float, default=1e-11)
    sp.set_defaults(func=cmd_uniqueness)

    sp = sub.add_parser("gauge", help="reduce to the normal form")
    common(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--x1", type=float, required=True)
    sp.add_argument("--omega", default=None,
                    help="Hermitian twist matrix 'a,b;c,d'")
    sp.set_defaults(func=cmd_gauge)

    return p


# parse_args leaves the parser as it was, also when it exits through
# SystemExit, so every main call can share the one built at import
_PARSER = build_parser()


# glibc mallopt's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and their values:
# above a sweep kernel's largest block and freed heap top (up to about
# 3.5 MB a call)
_MALLOPT = ((-3, 16 << 20), (-1, 64 << 20))


@functools.cache
def _keep_heap():
    """Set _MALLOPT once per process (mallopt also empties glibc's fast
    bins, which costs the next command up to 0.15 ms); setting either
    threshold switches off both dynamic ones.  Without glibc's mallopt
    (other C libraries, Windows) nothing is set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
    for param, value in _MALLOPT:
        mallopt(param, value)


# options given as text: comma lists (matrices 'a,b;c,d') and lo:hi:n grids
_LISTS = {"z", "zmags", "xp", "x_list", "lambda_list", "alpha", "m_value",
          "omega"}
_GRIDS = {"lambda", "grid"}


def _check_finite(args):
    """DegenerateArguments for a non-finite float option, or a non-finite
    number in a list or matrix option or a lo:hi:n grid (whose size
    _parse_grid bounds), before the output directory or the potential."""
    for name, value in sorted(vars(args).items()):
        if name in _GRIDS:
            nums = _parse_grid(value)
        elif name in _LISTS and value is not None:
            nums = _parse_list(value.replace(";", ","), _parse_complex)
        else:
            nums = [value] if isinstance(value, float) else []
        if not np.isfinite(nums).all():
            raise DegenerateArguments(
                f"--{name.replace('_', '-')} must be finite, got {value}")


# the tolerances mfunc, fullline and upsilon pass to every point of their
# sweep: a bad one fails the run once, not once per point
_SWEEP_TOLERANCES = {"mfunc": ("tol",), "fullline": ("tol",),
                     "upsilon": ("tol", "eps")}


def _check_sweep_tolerances(args):
    """DegenerateArguments for a sweep command's negative tolerance, before
    the output directory or the potential (_check_finite refuses NaN)."""
    for name in _SWEEP_TOLERANCES.get(args.command, ()):
        value = getattr(args, name)
        need(value >= 0, f"--{name}", f"{name} >= 0", value)


def main(argv=None):
    """Run one command (argv as for the command line) and return its exit
    status; _keep_heap first keeps freed memory resident for the kernels."""
    _keep_heap()
    args = _PARSER.parse_args(argv)
    try:
        _check_finite(args)
        _check_sweep_tolerances(args)
        run = _Run(args)
        args.func(args, load_potential(args.potential), run)
        return run.finish()
    except (DiracWeylError, ValueError, OSError) as exc:
        category = getattr(exc, "category", type(exc).__name__)
        print(json.dumps({"error": category, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
