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
array (bands.csv) takes an array writer that forms the bytes of fmt % row
for whole blocks of rows; it writes exactly what the per-row loop would.
"""

import argparse
import json
import math
import os
import sys
import time
from functools import lru_cache

import numpy as np

from . import __version__
from .asymptotics import derivative_samples, expansion_coefficients
from .errors import DegenerateArguments, DiracWeylError
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


def _parse_complex(text):
    return complex(text.strip().replace("i", "j"))


def _parse_list(text, conv):
    return [conv(tok) for tok in text.split(",") if tok.strip()]


def _parse_grid(text):
    lo, hi, n = text.split(":")
    # an infinite end gives NaN grid points without a RuntimeWarning; the
    # command decides what they mean (bands and upsilon raise
    # DegenerateArguments)
    with np.errstate(invalid="ignore"):
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


# ---------------------------------------------------------------------------
# array CSV writer: the bytes of fmt % tuple(row), row by row, for a float
# table whose columns are %.17g or %d, formed over whole blocks of rows
# ---------------------------------------------------------------------------

# rows per block: a block of 512 rows of 10 values peaks at 0.64 MB
# traced, against 1.26 MB for 1024, for about the same time per row
_ARRAY_BLOCK = 512

# one value is laid out in _SLOTS bytes, 8 uint32 words: its sign and the
# "0.000" prefix of a fixed-point value below 1 (bytes 0-5), the 17
# digits at bytes 7-23 up to the point and at bytes 8-24 after it, the
# point between them, four exponent bytes and the separator (bytes 25-29).
# The bytes of a value's text are its nonzero bytes, in order.  The words
# are native uint32 and the layout assumes little-endian byte order, so
# _Run.table takes the array writer on little-endian hosts only.
_SLOTS = 32
# layout classes: %.17g by (k, sign, last nonzero digit) for k in
# [-11, 17], then %.17g zero by sign, %d by (digit count, sign) and the
# fallback
_ZERO_G = 29 * 2 * 17
_INT_D = _ZERO_G + 2
_FALLBACK = _INT_D + 17 * 2
# a fallback value leaves this byte, which no formatted value contains
_MARK = b"\x01"

_POW5 = np.array([5 ** j for j in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** j for j in range(1, 17)], dtype=np.uint64)
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)


@lru_cache(maxsize=None)
def _layout():
    """(template, before, after, quads) as uint32 words: per layout class
    its constant bytes, and masks of 0xff on the digit bytes it shows up
    to the point and after it; the four ASCII digits of each of 0..9999,
    and a zero word at index 10000."""
    tables = np.zeros((3, _FALLBACK + 1, _SLOTS), np.uint8)
    template, before, after = tables
    template[:, 29] = ord(",")

    def put(c, neg, last, point=16, prefix=b"", suffix=b""):
        """Class c: digits up to last, the point after digit point."""
        template[c, 0] = ord("-") if neg else 0
        template[c, 1:1 + len(prefix)] = list(prefix)
        before[c, 7:8 + min(point, last)] = 0xff
        if last > point:
            template[c, 8 + point] = ord(".")
            after[c, 9 + point:9 + last] = 0xff
        template[c, 25:25 + len(suffix)] = list(suffix)

    for c in range(_ZERO_G):
        k, neg, last = c // 34 - 11, c // 17 % 2, c % 17
        if -4 <= k < 0:
            put(c, neg, last, prefix=b"0." + b"0" * (-k - 1))
        elif 0 <= k < 17:
            put(c, neg, max(last, k), k)
        else:
            put(c, neg, last, 0, suffix=b"e%+03d" % k)
    for neg in (0, 1):
        put(_ZERO_G + neg, neg, 16)
        before[_ZERO_G + neg, :23] = 0
        for count in range(1, 18):
            c = _INT_D + 2 * (count - 1) + neg
            put(c, neg, 16)
            before[c, :24 - count] = 0
    put(_FALLBACK, 0, -1, prefix=_MARK)
    tables.flags.writeable = False      # shared by every call
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000))
                          + bytes(4), dtype=np.uint32)
    return (*tables.view(np.uint32), quads)


def _round17(f, e, k):
    """round-half-even(f 2^e 10^(16 - k)) and its truncation, as uint64,
    for 53-bit f and 0 <= 16 - k <= 27: the product f 5^(16 - k) takes
    two 64-bit limbs (at most 116 bits), shifted by e + 16 - k."""
    j = 16 - k
    p = _POW5.take(j)
    s = -(e + j)
    lo, hi = f & 0xFFFFFFFF, f >> 32
    ph = p >> 32
    p &= 0xFFFFFFFF
    mid = lo * ph
    mid += hi * p
    lo *= p
    hi *= ph
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid
    # (hi, lo) >> s, and the bits shifted out moved to the top, to compare
    # with one half; s is in [1, 63] below 2^51, and from there the
    # quotient is an integer that fits one limb
    sr = s.astype(np.uint64)
    up = 64 - sr
    trunc = hi << up
    trunc |= lo >> sr
    rest = lo << up
    half = np.uint64(1 << 63)
    n = trunc + ((rest > half) | ((rest == half) & (trunc & 1 == 1)))
    left = s <= 0       # exact: the product fits one limb
    if left.any():
        n[left] = trunc[left] = lo[left] << (-s[left]).astype(np.uint64)
    return n, trunc


def _decimal17(a):
    """The 17 significant digits n (uint64) and decimal exponent k (int32)
    of each float a in (1e-11, 1e17), as %.17g rounds them: a = n 10^(k -
    16) rounded half to even.  k starts at floor(log10 a), which is off by
    one near powers of ten, and is corrected where the unrounded quotient
    is below 10^16 or at least 10^17.  No n rounds up to 10^17, which
    would take a double within 5e-18 (relative) under a power of ten: for
    each of 10^-11..10^17 the largest double below it lies at least
    2e-17 under it (checked exactly; the tests' edge values hold them).
    """
    k = np.clip(np.floor(np.log10(a)).astype(np.int32), -11, 16)
    bits = a.view(np.uint64)
    f = bits & ((1 << 52) - 1)
    f |= 1 << 52
    e = (bits >> 52).astype(np.int32) - 1075
    n, trunc = _round17(f, e, k)
    low = trunc < _E16
    off = low | (trunc >= _E17)
    if off.any():
        k[off] += np.where(low[off], -1, 1).astype(np.int32)
        n[off] = _round17(f[off], e[off], k[off])[0]
    return n, k


def _format_block(x, ints):
    """Bytes of the rows of the float block x with %.17g columns, %d where
    ints is True, ',' between values and a newline after each row.
    Values out of the digit-exact range (nonzero below 1e-11 or from 1e17
    in magnitude, subnormal or not finite) are formatted one by one."""
    template, before, after, quads = _layout()
    rows, cols = x.shape
    flat = x.ravel()
    mag = np.abs(flat)
    fast = (mag > 1e-11) & (mag < 1e17)
    n, k = _decimal17(np.where(fast, mag, 1.0))
    neg = np.signbit(flat)
    zero = mag == 0
    n[zero] = 0
    if ints.any():
        y = x[:, ints]
        ok = np.abs(y) < 1e17
        n.reshape(rows, cols)[:, ints] = np.where(ok, np.abs(y), 0)
        count = np.searchsorted(_POW10, n.reshape(rows, cols)[:, ints],
                                side="right")
    # words 1-5 of the digits: the 4-digit groups of n, the first holding
    # its leading digit only (numpy's // by a constant is far faster than
    # its %); words 0, 6 and 7 stay zero.  Temporaries are dropped once
    # used, to keep the block's traced peak low
    words = np.zeros((len(n), 8), np.uint32)
    head = n // _E16
    words[:, 1] = quads.take(head)
    n -= head * _E16
    high = n // 10 ** 8
    for col, part in ((2, high), (4, n - high * np.uint64(10 ** 8))):
        high = part // 10000
        words[:, col] = quads.take(high)
        part -= high * 10000
        words[:, col + 1] = quads.take(part)
    del n, head, high
    # the layout class: (k, sign, last nonzero digit) for a %.17g value
    cls = k
    cls += 11
    cls *= 34
    cls += neg * np.int32(17) + np.int32(16)
    # n ends in a zero where its last group (part) does; only those values
    # look for their last nonzero digit
    tens = np.flatnonzero(part == part // 10 * 10)
    cls[tens] -= np.argmax(words.view(np.uint8)[tens, 23:6:-1] != ord("0"),
                           axis=1).astype(np.int32)
    del part
    cls[zero] = _ZERO_G + neg[zero]
    cls[~fast & ~zero] = _FALLBACK
    if ints.any():
        cls.reshape(rows, cols)[:, ints] = np.where(
            ok, _INT_D + 2 * count + (y <= -1), _FALLBACK)
    # the digits after the point go one byte on: the whole block shifts
    # as one run of bytes, the zero word 7 keeping values apart
    late = words.ravel() << 8
    late[1:] |= words.ravel()[:-1] >> 24
    words &= before.take(cls, axis=0)
    late &= after.take(cls, axis=0).ravel()
    words |= template.take(cls, axis=0)
    words |= late.reshape(words.shape)
    del late
    words.view(np.uint8).reshape(rows, cols, _SLOTS)[:, -1, 29] = ord("\n")
    text = words.tobytes()
    del words
    text = text.translate(None, b"\0")
    slow = np.flatnonzero(cls == _FALLBACK)
    if not len(slow):
        return text
    fmts = np.where(np.tile(ints, rows)[slow], "%d", "%.17g")
    parts = text.split(_MARK)
    return b"".join(p + (f % v).encode() for p, f, v in zip(
        parts, fmts.tolist(), flat[slow].tolist())) + parts[-1]


def _write_array(fh, rows, ints):
    """Write the float table rows to the binary file fh as _format_block
    formats it, one block of _ARRAY_BLOCK rows at a time.  Little-endian
    hosts only: the slots are built and shifted as native uint32 words."""
    for i in range(0, len(rows), _ARRAY_BLOCK):
        fh.write(_format_block(rows[i:i + _ARRAY_BLOCK], ints))


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
        are all %.17g or %d goes through the array writer (_write_array),
        which writes the same bytes without formatting row by row, and
        everything else through the per-row loop."""
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
                _write_array(fh, rows, np.array(cols) == "%d")
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
        with open(os.path.join(self.outdir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=1, default=str)
            fh.write("\n")
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
    run.tols = {"halfline_tol": args.tol, "rel_step": args.rel_step}
    tc = trace_check(args.x, spec, ray_angle=args.ray_angle, zmags=mags,
                     rel_step=args.rel_step, tol=args.tol)
    n = 2 * spec.m
    run.table("trace.csv", ["z_re", "z_im", "residual"] + _cols("T", n),
              [[z.real, z.imag, res, *_flat(rhs)]
               for z, rhs, res in zip(tc.zs, tc.rhs, tc.residuals)])
    run.table("trace_limit.csv", _cols("L", n), [_flat(tc.lhs)])
    run.info["residuals"] = [float(r) for r in tc.residuals]


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
                     "target": 2.0 * args.a})


def cmd_gauge(args, spec, run):
    if args.omega is not None:
        omega = _parse_matrix(args.omega, (spec.m, spec.m), "omega")
        out = gauge_with_omega(spec, omega, args.x0, args.x1)
    else:
        out = normal_form(spec, args.x0, args.x1)
    run.tols = {"unitarity_tol": 1e-8}
    save_potential(out, os.path.join(run.outdir, "normal_form.json"))
    run.files.append("normal_form.json")


def cmd_upsilon(args, spec, run):
    alpha = _parse_alpha(args.alpha, spec.m)
    lams = _parse_grid(getattr(args, "lambda"))
    # checked before the sweep, which would record each non-finite lambda
    # as a failure and write it into summary.json, where strict JSON has
    # no NaN or Infinity
    if not np.isfinite(lams).all():
        raise DegenerateArguments("upsilon needs finite lambda")
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


# parse_args leaves the parser as it was, also when it exits through
# SystemExit, so every main call can share the one built at import
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
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
