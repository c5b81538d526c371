"""Command-line front end: dispatches to the library, sweeps z/lambda grids
point by point, and emits CSV plus a JSON run summary.

Determinism: grid points are written in input order with
17-significant-digit formatting, so identical configurations produce
byte-identical outputs (only wall_time_s in the summary differs).
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import derivative_samples, expansion_coefficients
from .errors import DiracWeylError
from .foundation import (
    alpha_dirichlet,
    load_potential,
    save_potential,
    validate_boundary_data,
)
from .fullline import GreensEvaluator, fullline_m, upsilon
from .gauge import gauge_with_omega, normal_form
from .spectral import (
    band_spectrum,
    borg_diagnostic,
    reflectionless_check,
    trace_check,
    uniqueness_decay,
)
from .weyldisk import disk_membership, halfline_m


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_complex(text):
    return complex(text.strip().replace("i", "j"))


def _parse_complex_list(text):
    return [_parse_complex(tok) for tok in text.split(",") if tok.strip()]


def _parse_float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_grid(text):
    lo, hi, n = text.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def _parse_matrix(text):
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[_parse_complex(v) for v in r.split(",")] for r in rows])


def _parse_alpha(text, m):
    if text is None:
        return alpha_dirichlet(m)
    mat = _parse_matrix(text)
    if mat.shape != (m, 2 * m):
        raise ValueError(f"alpha must be {m}x{2 * m}")
    return validate_boundary_data(mat[:, :m], mat[:, m:])


def _complex_cols(prefix, mat):
    cols = []
    vals = []
    mat = np.atleast_2d(mat)
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            cols += [f"{prefix}{i + 1}{j + 1}_re", f"{prefix}{i + 1}{j + 1}_im"]
            vals += [_fmt(mat[i, j].real), _fmt(mat[i, j].imag)]
    return cols, vals


class _Run:
    """Collects outputs and writes the summary."""

    def __init__(self, args):
        self.args = args
        self.outdir = args.out
        os.makedirs(self.outdir, exist_ok=True)
        self.t0 = time.time()
        self.files = []
        self.failures = []
        self.info = {}

    def write_csv(self, name, header, rows, tolerances):
        path = os.path.join(self.outdir, name)
        with open(path, "w") as fh:
            fh.write("# " + json.dumps({"tolerances": tolerances}) + "\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        self.files.append(name)
        return path

    def finish(self, tolerances):
        summary = {
            "command": self.args.command,
            "version": __version__,
            "inputs": {k: v for k, v in sorted(vars(self.args).items())
                       if k != "func" and v is not None},
            "tolerances": tolerances,
            "outputs": self.files,
            "wall_time_s": round(time.time() - self.t0, 6),
            "partial": bool(self.failures),
        }
        if self.failures:
            summary["failures"] = self.failures
        summary["info"] = self.info
        path = os.path.join(self.outdir, "summary.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1, default=str)
            fh.write("\n")
        return 1 if self.failures else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_mfunc(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    alpha = _parse_alpha(args.alpha, spec.m)
    zs = _parse_complex_list(args.z)
    sign = 1 if args.sign == "+" else -1
    tols = {"halfline_tol": args.tol}

    rows = []
    header = None
    for z in zs:
        try:
            h = halfline_m(z, args.x0, alpha, spec, sign=sign, tol=args.tol)
        except DiracWeylError as err:
            run.failures.append({"z": str(z), "category": err.category,
                                 "message": str(err)})
            continue
        cols, vals = _complex_cols("M", h.M)
        if header is None:
            header = ["z_re", "z_im", "tail_bound"] + cols
        rows.append([_fmt(z.real), _fmt(z.imag), _fmt(h.tail_bound)] + vals)
    if header is None:
        header = ["z_re", "z_im", "tail_bound"]
    run.write_csv("mfunc.csv", header, rows, tols)
    return run.finish(tols)


def cmd_disk(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    alpha = _parse_alpha(args.alpha, spec.m)
    z = _parse_complex(args.z)
    mat = _parse_matrix(args.m_value)
    tols = {"membership_tol": args.tol}
    point = disk_membership(mat, z, args.c, args.x0, alpha, spec, tol=args.tol)
    cols, vals = _complex_cols("E", point.e_c_value)
    run.write_csv("disk.csv", ["classification"] + cols,
                  [[point.classification] + vals], tols)
    run.info["classification"] = point.classification
    return run.finish(tols)


def cmd_expand(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    xs = _parse_grid(args.grid)
    sign = 1 if args.sign == "+" else -1
    derivs = derivative_samples(spec, xs, max(args.order - 1, 0))
    coeffs = expansion_coefficients(derivs, args.x, args.order, sign=sign)
    rows = []
    for k, c in enumerate(coeffs.coeffs):
        for i in range(c.shape[0]):
            for j in range(c.shape[1]):
                rows.append([str(k), str(i + 1), str(j + 1),
                             _fmt(c[i, j].real), _fmt(c[i, j].imag)])
    tols = {"derivative_order": derivs.order}
    run.write_csv("expand.csv", ["k", "row", "col", "re", "im"], rows, tols)
    return run.finish(tols)


def cmd_fullline(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    alpha = _parse_alpha(args.alpha, spec.m)
    zs = _parse_complex_list(args.z)
    tols = {"halfline_tol": args.tol}

    rows, header = [], None
    for z in zs:
        try:
            f = fullline_m(z, args.x0, alpha, spec, tol=args.tol)
        except DiracWeylError as err:
            run.failures.append({"z": str(z), "category": err.category,
                                 "message": str(err)})
            continue
        cols, vals = _complex_cols("M", f.matrix)
        if header is None:
            header = ["z_re", "z_im", "m22_defect"] + cols
        rows.append([_fmt(z.real), _fmt(z.imag), _fmt(f.m22_defect)] + vals)
    if header is None:
        header = ["z_re", "z_im", "m22_defect"]
    run.write_csv("fullline.csv", header, rows, tols)
    return run.finish(tols)


def cmd_greens(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    z = _parse_complex(args.z)
    ev = GreensEvaluator(z, args.x0, spec, tol=args.tol)
    xps = _parse_float_list(args.xp)
    tols = {"halfline_tol": args.tol}
    rows, header = [], None
    for xp in xps:
        side = args.side if args.x == xp else None
        g = ev.value(args.x, xp, side=side)
        cols, vals = _complex_cols("G", g.value)
        if header is None:
            header = ["x", "xp"] + cols
        rows.append([_fmt(args.x), _fmt(xp)] + vals)
    run.write_csv("greens.csv", header, rows, tols)
    return run.finish(tols)


def cmd_trace(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    mags = _parse_float_list(args.zmags)
    tols = {"halfline_tol": args.tol, "rel_step": args.rel_step}
    tc = trace_check(args.x, spec, ray_angle=args.ray_angle, zmags=mags,
                     rel_step=args.rel_step, tol=args.tol)
    rows, header = [], None
    for z, rhs, res in zip(tc.zs, tc.rhs, tc.residuals):
        cols, vals = _complex_cols("T", rhs)
        if header is None:
            header = ["z_re", "z_im", "residual"] + cols
        rows.append([_fmt(z.real), _fmt(z.imag), _fmt(res)] + vals)
    run.write_csv("trace.csv", header, rows, tols)
    lhs_cols, lhs_vals = _complex_cols("L", tc.lhs)
    run.write_csv("trace_limit.csv", lhs_cols, [lhs_vals], tols)
    run.info["residuals"] = [float(r) for r in tc.residuals]
    return run.finish(tols)


def cmd_bands(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    lams = _parse_grid(getattr(args, "lambda"))
    tols = {"multiplier_tol": args.band_tol}
    bs = band_spectrum(spec, lams, tol=args.band_tol)
    rows = []
    for lam, flag, mults in zip(bs.lams, bs.in_band, bs.multipliers):
        row = [_fmt(lam), "1" if flag else "0"]
        for mu in mults:
            row += [_fmt(mu.real), _fmt(mu.imag)]
        rows.append(row)
    header = ["lambda", "in_band"]
    for k in range(bs.multipliers.shape[1]):
        header += [f"mu{k + 1}_re", f"mu{k + 1}_im"]
    run.write_csv("bands.csv", header, rows, tols)
    run.info["bands"] = [list(b) for b in bs.bands]
    run.info["gaps"] = [list(g) for g in bs.gaps]
    return run.finish(tols)


def cmd_reflectionless(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    xs = _parse_float_list(args.x_list)
    lams = _parse_float_list(args.lambda_list)
    tols = {"tol": args.tol, "eps": args.eps}
    rep = reflectionless_check(spec, xs, lams, eps=args.eps, tol=args.tol)
    rows = [[_fmt(x), _fmt(lam), _fmt(dev)] for x, lam, dev in rep.samples]
    run.write_csv("reflectionless.csv", ["x", "lambda", "deviation"], rows, tols)
    run.info["reflectionless"] = rep.ok
    run.info["worst_deviation"] = rep.worst
    return run.finish(tols)


def cmd_borg(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    tols = {"comb_tol": args.tol, "band_tol": args.band_tol,
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
    rows = [[_fmt(rep.comb_diag_max), _fmt(rep.comb_off_max),
             "1" if rep.full_spectrum else "0",
             "1" if rep.consistent else "0"]]
    run.write_csv("borg.csv",
                  ["comb_diag_max", "comb_off_max", "full_spectrum",
                   "consistent"], rows, tols)
    return run.finish(tols)


def cmd_uniqueness(args):
    run = _Run(args)
    spec1 = load_potential(args.potential)
    spec2 = load_potential(args.potential2)
    mags = _parse_float_list(args.zmags)
    tols = {"halfline_tol": args.tol}
    fit = uniqueness_decay(spec1, spec2, args.x0, args.a,
                           ray_angle=args.ray_angle, zmags=mags,
                           tol=args.tol)
    rows = [[_fmt(m), _fmt(n) if math.isfinite(n) else "nan"]
            for m, n in zip(fit.zmags, fit.norms)]
    run.write_csv("uniqueness.csv", ["zmag", "norm_diff"], rows, tols)
    run.info.update({"slope": fit.slope, "prefactor_exp": fit.prefactor_exp,
                     "intercept": fit.intercept, "r2": fit.r2,
                     "target": 2.0 * args.a})
    return run.finish(tols)


def cmd_gauge(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    if args.omega is not None:
        omega = _parse_matrix(args.omega)
        out = gauge_with_omega(spec, omega, args.x0, args.x1)
    else:
        out = normal_form(spec, args.x0, args.x1)
    path = os.path.join(run.outdir, "normal_form.json")
    save_potential(out, path)
    run.files.append("normal_form.json")
    return run.finish({"unitarity_tol": 1e-8})


def cmd_upsilon(args):
    run = _Run(args)
    spec = load_potential(args.potential)
    alpha = _parse_alpha(args.alpha, spec.m)
    lams = _parse_grid(getattr(args, "lambda"))
    tols = {"halfline_tol": args.tol, "eps": args.eps}

    rows, header = [], None
    for lam in lams:
        try:
            u = upsilon(lam, args.x0, alpha, spec, args.eps, tol=args.tol)
        except DiracWeylError as err:
            run.failures.append({"lambda": float(lam),
                                 "category": err.category,
                                 "message": str(err)})
            continue
        cols, vals = _complex_cols("Y", u.value)
        if header is None:
            header = ["lambda", "eps"] + cols
        rows.append([_fmt(lam), _fmt(args.eps)] + vals)
    if header is None:
        header = ["lambda", "eps"]
    run.write_csv("upsilon.csv", header, rows, tols)
    return run.finish(tols)


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="diracweyl",
        description="Weyl-Titchmarsh M-functions and spectral diagnostics "
                    "for Dirac-type operators J d/dx - B(x).")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, potential=True):
        if potential:
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
    sp.add_argument("--zmags", default="100,300,1000")
    sp.add_argument("--rel-step", type=float, default=1e-3)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DiracWeylError as exc:
        print(json.dumps({"error": exc.category, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
