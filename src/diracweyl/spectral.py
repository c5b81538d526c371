"""Trace-formula verification, Floquet band structure, reflectionless and
Borg-type diagnostics, and the local-uniqueness decay experiment.

The Floquet multipliers of a real monodromy with 2m <= 4 (a real-typed
lambda on a real potential) come in closed form from its symplectic
structure, through the per-channel discriminants w_k = mu_k + 1/mu_k
(Yakubovich & Starzhinskii, Linear Differential Equations with Periodic
Coefficients, 1975); a complex monodromy and m >= 3 take np.linalg.eigvals.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import averaged_combination, inverse_power_fit
from .errors import DifferenceBelowNoise, IntegrationFailure, NotPeriodic
from .foundation import MAX_POINTS, alpha_dirichlet, matnorm, need
from .fullline import fullline_m, principal_logm, upsilon
from .propagator import Propagator
from .weyldisk import halfline_m

_BORG_SAMPLES = 201     # borg_diagnostic's samples per period


@dataclass(frozen=True, eq=False)
class TraceCheck:
    x: float
    lhs: np.ndarray           # averaged one-sided combination matrix of B(x)
    zs: tuple
    rhs: tuple                # 2 z^2 d/dz of the fitted log M per sample
    residuals: tuple
    limit: np.ndarray         # -2 c_1, the fitted limit of the rhs


# trace_check's default |z|: six geometric magnitudes from 100 to 1450
TRACE_ZMAGS = tuple(np.geomspace(100.0, 1450.0, 6).tolist())


def trace_check(x, spec, ray_angle=math.pi / 2, zmags=TRACE_ZMAGS,
                tol=1e-12):
    """Check the trace identity: 2 z^2 (d/dz) log M(z, x) converges to the
    one-sided combination matrix of B at x along a ray in the upper half
    plane, for Dirichlet data at x.

    log M at the len(zmags) ray points takes one stacked fullline_m and one
    stacked principal_logm.  The model sum_{k<=K} c_k z^{-k},
    K = min(distinct |z| - 1, 4), is fitted through them
    (inverse_power_fit); each rhs is 2 z^2 times its derivative,
    -2 sum_k k c_k z^{1-k}, and the limit is -2 c_1 (up to five distinct
    |z| the model interpolates the samples).  Where B jumps the lhs is the
    average of the one-sided combinations, which is not that limit.
    """
    need(math.isfinite(x), "trace", "a finite x", x)
    need([0 < r < math.inf for r in zmags], "trace", "0 < |z| < inf", zmags)
    order = min(len(set(zmags)) - 1, 4)
    need(order >= 1, "trace", "2 distinct |z|", zmags)
    need(tol >= 0, "trace", "tol >= 0", tol)
    lhs = averaged_combination(spec, x)
    zs = np.asarray(zmags, float) * cmath.exp(1j * ray_angle)
    logs = principal_logm(fullline_m(zs, x, alpha_dirichlet(spec.m), spec,
                                     tol=tol).matrix)
    c = inverse_power_fit(zs, logs, order)
    k = np.arange(1, order + 1)
    rhs = -2.0 * np.einsum("k,nk,kij->nij", k, zs[:, None] ** (1 - k), c[1:])
    return TraceCheck(x=float(x), lhs=lhs, zs=tuple(zs.tolist()),
                      rhs=tuple(rhs),
                      residuals=tuple(matnorm(rhs - lhs).tolist()),
                      limit=-2.0 * c[1])


# ---------------------------------------------------------------------------
# Floquet theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Monodromy:
    z: complex                # or an array of z, leading the axes below;
                              # float for real z on a real spec (Propagator)
    x0: float
    period: float
    matrix: np.ndarray
    multipliers: np.ndarray   # Floquet multipliers (eigenvalues of matrix),
                              # complex128, sorted by modulus


def _symplectic_multipliers(t):
    """Eigenvalues of a real symplectic (n, 2m, 2m) stack, m = 1 or 2, as
    complex (n, 2m) rows, without an eigen-solver.

    T^-1 = J^T T^T J = [[T22^T, -T12^T], [-T21^T, T11^T]], so
    W = T + T^-1 = [[A, B], [C, A^T]] with A = T11 + T22^T and B, C
    antisymmetric, and W has each w_k = mu_k + 1/mu_k as a double
    eigenvalue.  For m = 1, w = tr T.  For m = 2,
    w = tr(W)/4 +- sqrt(tr(W0^2))/2 with W0 the traceless part of W, which
    is tr(A)/2 +- sqrt(p^2 + A01 A10 - b c) for p = (A00 - A11)/2 and the
    upper entries b, c of B, C; it is formed from these differences, never
    from the coefficients of the quadratic in w, which cancel where two
    channels share w.  Each w gives mu and 1/mu: the root of larger modulus
    is (w + s)/2 with s = sqrt(w - 2) sqrt(w + 2) on the side of w, and the
    other is its reciprocal, so a multiplier deep in a gap keeps its
    relative accuracy.  Near a band edge (w near +-2) the map w -> mu
    amplifies the rounding of w by about 1/|mu - 1/mu|: on kp2 with
    |mu - 1/mu| = 9e-4 the multipliers are 2.1e-13 from those of the exact
    monodromy, where eigvals stays within 1e-15.  As with eigvals, a channel
    whose w is below eps times the other's is not resolved; its row is a gap
    anyway.  A single matrix runs as a stack of one, so it rounds exactly
    as a stack row."""
    if t.ndim == 2:
        return _symplectic_multipliers(t[None])[0]
    m = t.shape[-1] // 2
    w = np.trace(t, axis1=1, axis2=2)[:, None] / m
    if m == 2:
        a = t[:, :2, :2] + t[:, 2:, 2:].swapaxes(1, 2)
        # entries go by a power of two near max |T| (exact), so the products
        # stay finite for any finite T
        k = np.ldexp(1.0, np.frexp(np.abs(t).max(axis=(1, 2)))[1] - 1)
        p = (0.5 * (a[:, 0, 0] - a[:, 1, 1])) / k
        b, c = (t[:, 0, 3] - t[:, 1, 2]) / k, (t[:, 2, 1] - t[:, 3, 0]) / k
        half = k[:, None] * np.sqrt(
            (p * p + (a[:, 0, 1] / k) * (a[:, 1, 0] / k) - b * c)
            .astype(complex))[:, None]
        w = np.concatenate([w - half, w + half], axis=-1)
    w = w.astype(complex, copy=False)
    s = np.sqrt(w - 2.0) * np.sqrt(w + 2.0)
    s = np.where(np.abs(w - s) > np.abs(w + s), -s, s)
    big = 0.5 * w + 0.5 * s
    return np.concatenate([1.0 / big, big], axis=-1)


def monodromy(z, spec):
    """One-period transfer matrix Psi(z, x0 + omega, x0), Psi(x0) = I, from
    the left edge x0 of the first piece.  For a 1-D array of z, one stacked
    Propagator gives the matrices as an (n, 2m, 2m) stack and the
    multipliers as (n, 2m) rows.  The matrices are real for a real-typed z
    on a real spec (see Propagator); the multipliers are always complex128.
    A real matrix with m <= 2 takes its multipliers from the symplectic
    closed form (_symplectic_multipliers); a complex one, or m >= 3, from
    np.linalg.eigvals.  IntegrationFailure is raised when a matrix is not
    finite."""
    if not spec.is_periodic:
        raise NotPeriodic("monodromy needs a periodic potential")
    x0 = spec.pieces[0].x_lo
    prop = Propagator(z, spec)
    t = prop.transfer(x0, x0 + spec.period, scale=0)
    if not np.isfinite(t).all():
        raise IntegrationFailure(
            f"monodromy not finite over the period {spec.period:g}")
    if not np.iscomplexobj(t) and spec.m <= 2:
        mult = _symplectic_multipliers(t)
    else:
        # a real t with only real eigenvalues gives float64 eigvals
        mult = np.linalg.eigvals(t).astype(complex, copy=False)
    mult = np.take_along_axis(mult, np.argsort(np.abs(mult), axis=-1), axis=-1)
    return Monodromy(z=prop.z, x0=float(x0), period=spec.period,
                     matrix=t, multipliers=mult)


@dataclass(frozen=True, eq=False)
class BandStructure:
    lams: np.ndarray
    in_band: np.ndarray       # bool per grid point
    multipliers: np.ndarray   # (n, 2m)
    bands: tuple              # maximal in-band runs as (lo, hi) pairs
    gaps: tuple               # interior out-of-band runs


# lambda per stacked monodromy in band_spectrum; it bounds memory, traced on
# kp2 over 4001 lambda: one stack peaks at 9.07 MB, blocks of 1024 at
# 2.57 MB, of 512 at 1.45 MB and of 256 at 0.89 MB.  Each block pays a
# fixed cost (the Propagator and _expm_ham's lambda-free products), which
# blocks of 512 pay 8 times on the 4001-lambda grid; bands-kp2's sweep_s
# read 0.0160 s with them against 0.0157 s for blocks of 1024 that
# _expm_ham split into 512-lambda chunks (medians of 10 pairs), too close
# to pay for a second constant.  The CLI's sweeps keep their own block,
# cli._SWEEP_BLOCK
_LAMBDA_BLOCK = 512


def _runs(lams, flags, interior=False):
    """(min, max) lambda of each maximal run of True in flags, in increasing
    order; with interior, only runs that touch neither end of the grid."""
    edge = np.diff(np.concatenate(([False], flags, [False])).astype(np.int8))
    lo, hi = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1) - 1
    keep = ((lo > 0) & (hi < len(flags) - 1)) | (not interior)
    a, b = np.sort([lams[lo[keep]], lams[hi[keep]]], axis=0).tolist()
    return tuple(sorted(zip(a, b)))


def band_spectrum(spec, lams, tol=1e-6):
    """Flag each real lambda in-band iff every Floquet multiplier is
    unimodular within tol * max(1, omega).  The multipliers come from one
    stacked monodromy per block of _LAMBDA_BLOCK lambda."""
    if not spec.is_periodic:
        raise NotPeriodic("band structure needs a periodic potential")
    lams = np.asarray(lams)
    need((np.imag(lams) == 0) & np.isfinite(lams), "band structure",
         "real, finite lambda", lams)
    need(0 <= tol < math.inf, "band structure", "0 <= tol < inf", tol)
    lams = np.asarray(np.real(lams), float)
    eff = tol * max(1.0, spec.period)
    mults = np.empty((len(lams), 2 * spec.m), dtype=complex)
    for i in range(0, len(lams), _LAMBDA_BLOCK):
        block = slice(i, i + _LAMBDA_BLOCK)
        mults[block] = monodromy(lams[block], spec).multipliers
    flags = np.all(np.abs(np.abs(mults) - 1.0) <= eff, axis=1)
    return BandStructure(lams=lams, in_band=flags, multipliers=mults,
                         bands=_runs(lams, flags),
                         gaps=_runs(lams, ~flags, interior=True))


# ---------------------------------------------------------------------------
# Reflectionless / Borg diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReflectionlessReport:
    ok: bool
    worst: float
    samples: tuple            # (x, lam, deviation)


# half-line tolerance of the Upsilon samples of reflectionless_check
_UPSILON_TOL = 1e-7


def reflectionless_check(spec, xs, lams, eps=1e-6, tol=1e-3):
    """True iff ||Upsilon(lam, x) - I/2|| <= tol over all samples, with one
    stacked upsilon over lams per x.

    lams should lie inside the essential spectrum (use band_spectrum for
    periodic potentials to pick them).
    """
    need(np.isfinite(xs), "reflectionless check", "finite x", xs)
    need(tol >= 0, "reflectionless check", "tol >= 0", tol)
    m = spec.m
    half = 0.5 * np.eye(2 * m)
    worst = 0.0
    samples = []
    alpha = alpha_dirichlet(m)
    lams = np.asarray(lams, dtype=float)
    for x in xs:
        devs = matnorm(upsilon(lams, x, alpha, spec, eps,
                               tol=_UPSILON_TOL).value - half)
        for lam, dev in zip(lams, devs):
            samples.append((float(x), float(lam), float(dev)))
            worst = max(worst, float(dev))
    return ReflectionlessReport(ok=worst <= tol, worst=worst,
                                samples=tuple(samples))


@dataclass(frozen=True, eq=False)
class BorgReport:
    full_spectrum: bool
    lam_max: float
    grid_step: float
    bands: tuple
    gaps: tuple
    comb_diag_max: float      # sup ||B11 - B22|| over a period
    comb_off_max: float       # sup ||B12 + B21|| over a period
    consistent: bool


def borg_diagnostic(spec, lam_max=None, grid_step=0.01, comb_tol=1e-8,
                    band_tol=1e-6):
    """Rigidity check for periodic potentials: if the spectrum fills the
    sampled window (with multiplier-unimodularity as the multiplicity
    evidence), the combinations B11 - B22 and B12 + B21 must vanish.

    The verdict is the implication, so a gap plus nonzero combinations is
    consistent (contrapositive direction).
    """
    if not spec.is_periodic:
        raise NotPeriodic("Borg diagnostic needs a periodic potential")
    if lam_max is None:
        lam_max = 10.0 * spec.bound() + 10.0
    need(grid_step > 0 and 0 < 2 * lam_max < MAX_POINTS * grid_step, "Borg",
         f"grid_step > 0 and lam_max > 0, {MAX_POINTS} lambda at most",
         [grid_step, lam_max])
    need(comb_tol >= 0, "Borg", "comb_tol >= 0", comb_tol)
    n = max(3, int(round(2 * lam_max / grid_step)) + 1)
    lams = np.linspace(-lam_max, lam_max, n)
    bands = band_spectrum(spec, lams, tol=band_tol)
    full = bool(np.all(bands.in_band))

    m = spec.m
    lo = spec.pieces[0].x_lo
    b = spec.eval(np.linspace(lo, lo + spec.period, _BORG_SAMPLES), side=+1)
    cd = float(matnorm(b[:, :m, :m] - b[:, m:, m:]).max())
    co = float(matnorm(b[:, :m, m:] + b[:, m:, :m]).max())
    consistent = (not full) or (cd <= comb_tol and co <= comb_tol)
    return BorgReport(full_spectrum=full, lam_max=float(lam_max),
                      grid_step=float(grid_step), bands=bands.bands,
                      gaps=bands.gaps, comb_diag_max=cd, comb_off_max=co,
                      consistent=consistent)


# ---------------------------------------------------------------------------
# Local uniqueness: exponential closeness of half-line M-functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecayFit:
    ray_angle: float
    zmags: tuple
    norms: tuple              # ||M1 - M2|| per sample, discarded or not
    slope: float              # s in ||dM|| ~ C |z|^-p e^{-s Im z}
    intercept: float
    prefactor_exp: float      # fitted p
    r2: float
    used: tuple               # sample indices that entered the fit


# uniqueness_decay discards differences within this factor of the noise
_NOISE_FACTOR = 10.0


def uniqueness_decay(spec1, spec2, x0, a, ray_angle=math.pi / 2,
                     zmags=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0), tol=1e-11):
    """Fit the exponential decay rate of ||M_{1,+} - M_{2,+}|| (Dirichlet
    data at x0) along a ray.

    For potentials in the reduced (normal) form that agree a.e. on
    (x0, x0 + a) the difference decays like e^{-2 a Im z} up to a power of
    |z|; the fit therefore solves
    log||dM|| = c - p log|z| - s Im z and reports s (target 2a) together
    with the prefactor exponent p.  Samples whose difference is within
    _NOISE_FACTOR times their error estimates plus the half-line solver
    tolerance are discarded; if fewer than three survive the two
    potentials are indistinguishable and DifferenceBelowNoise is raised.
    Each potential takes one stacked half-line call over the ray.
    """
    need(0 < a < math.inf, "uniqueness decay", "0 < a < inf", a)
    alpha = alpha_dirichlet(spec1.m)
    direction = cmath.exp(1j * ray_angle)
    zs = np.asarray(zmags, dtype=float) * direction
    m1 = halfline_m(zs, x0, alpha, spec1, sign=+1, tol=tol)
    m2 = halfline_m(zs, x0, alpha, spec2, sign=+1, tol=tol)
    norms = matnorm(m1.M - m2.M)
    noise = m1.tail_bound + m2.tail_bound + tol
    used = [i for i, (d, n) in enumerate(zip(norms, noise))
            if d > _NOISE_FACTOR * n]
    if len(used) < 3:
        raise DifferenceBelowNoise(
            "M-function differences sit at the solver noise floor "
            f"(max {norms.max():.3e}); the potentials are indistinguishable "
            "at this tolerance")
    zs = zs[used]
    y = np.log(norms[used])
    design = np.column_stack([np.ones(len(zs)),
                              -np.log(np.abs(zs)),
                              -zs.imag])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(ray_angle=float(ray_angle), zmags=tuple(zmags),
                    norms=tuple(norms.tolist()), slope=float(coef[2]),
                    intercept=float(coef[0]), prefactor_exp=float(coef[1]),
                    r2=r2, used=tuple(used))
