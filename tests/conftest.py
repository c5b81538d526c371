"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's propagation code paths:
free-system values are closed-form trigonometry, constant-coefficient
transfers come from a hand-rolled eigendecomposition, and the constant
off-diagonal M-functions come from the exponential ansatz.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from diracweyl import (
    ConstantPiece,
    GridPiece,
    PotentialSpec,
    Propagator,
    normal_form_matrix,
    validate_boundary_data,
)


# ---------------------------------------------------------------------------
# call counts
# ---------------------------------------------------------------------------

def count_eig(monkeypatch):
    """Record the shape of every np.linalg.eig argument: (under, outside)
    lists for calls made under Propagator.transfer and for all others."""
    under, outside = [], []
    depth = [0]
    eig, transfer = np.linalg.eig, Propagator.transfer

    def counted_eig(a):
        (under if depth[0] else outside).append(np.shape(a))
        return eig(a)

    def counted_transfer(*args, **kwargs):
        depth[0] += 1
        try:
            return transfer(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    monkeypatch.setattr(Propagator, "transfer", counted_transfer)
    return under, outside


def count_calls(monkeypatch, owner, attr):
    """Record the shape of the first argument of every call of
    owner.attr."""
    shapes = []
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        shapes.append(np.shape(args[0]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return shapes


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def free_psi(z, x, x0, alpha):
    """Fundamental system for B = 0: cos/sin blocks against alpha*."""
    a1s = alpha.alpha1.conj().T
    a2s = alpha.alpha2.conj().T
    c = np.cos(z * (x - x0))
    s = np.sin(z * (x - x0))
    theta = np.vstack([a1s * c + a2s * s, a2s * c - a1s * s])
    phi = np.vstack([-a2s * c + a1s * s, a1s * c + a2s * s])
    return theta, phi


def const_transfer_eig(z, b, dx):
    """e^{A dx} for A = -J(zI + B) via plain eigendecomposition."""
    b = np.asarray(b, complex)
    d = b.shape[0]
    m = d // 2
    j = np.zeros((d, d), complex)
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    a = -j @ (z * np.eye(d) + b)
    w, v = np.linalg.eig(a)
    return v @ np.diag(np.exp(w * dx)) @ np.linalg.inv(v)


def floquet_mplus(z, pieces):
    """Dirichlet half-line M_+ at x0 = 0 of the periodic constant-piece
    potential (x_lo, x_hi, B) tiling [0, period): the decaying solutions
    are spanned by the eigenvectors U of the one-period monodromy with
    |mu| < 1, and M = U2 U1^{-1}, since the Dirichlet fundamental system
    starts at the identity."""
    d = pieces[0][2].shape[0]
    m = d // 2
    j = np.zeros((d, d), complex)
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    mono = np.eye(d)
    for lo, hi, b in pieces:
        mono = expm(-j @ (z * np.eye(d) + b) * (hi - lo)) @ mono
    mu, v = np.linalg.eig(mono)
    u = v[:, np.abs(mu) < 1]
    assert u.shape[1] == m
    return u[m:] @ np.linalg.inv(u[:m])


def mplus_const_q(z, q):
    """Half-line M for constant off-diagonal coupling q (decaying branch)."""
    s = np.sqrt(q * q - z * z)
    return -(q + s) / z


def mminus_const_q(z, q):
    s = np.sqrt(q * q - z * z)
    return (s - q) / z


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def random_hermitian(rng, m, scale=1.0):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (a + a.conj().T)


def random_boundary(rng, m):
    """Random valid boundary data (C W, S W) rotated by a random unitary."""
    def unitary(k):
        q, r = np.linalg.qr(rng.normal(size=(k, k))
                            + 1j * rng.normal(size=(k, k)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    w = unitary(m)
    left = unitary(m)
    phi = rng.uniform(0, np.pi / 2, size=m)
    a1 = left @ (np.diag(np.cos(phi)) @ w)
    a2 = left @ (np.diag(np.sin(phi)) @ w)
    return validate_boundary_data(a1, a2)


def random_normal_form_spec(rng, m, max_pieces=3, amp=0.35):
    """Piecewise-constant potential in the normal form, compact support."""
    pieces = []
    x = 0.0
    for _ in range(int(rng.integers(1, max_pieces + 1))):
        length = rng.uniform(0.3, 1.2)
        b = normal_form_matrix(random_hermitian(rng, m, amp),
                               random_hermitian(rng, m, amp))
        pieces.append(ConstantPiece(x, x + length, b))
        x += length
    return PotentialSpec(m=m, pieces=tuple(pieces), name="random-nf")


def random_hermitian_spec(rng, m, grid, periodic, real):
    """Two pieces on [0, 1), the second a 9-node grid on [0.9, 1] if grid
    (short cells: a cell's Magnus steps grow like (|z| h)^0.8), with random
    Hermitian values, real symmetric if real (any Hermitian B, not only the
    normal form); period 1 if periodic."""
    def sample():
        b = random_hermitian(rng, 2 * m, 0.6)
        return b.real if real else b
    xs = np.linspace(0.9, 1.0, 9)
    second = (GridPiece(xs, np.array([sample() for _ in xs])) if grid
              else ConstantPiece(0.9, 1.0, sample()))
    return PotentialSpec(m=m, pieces=(ConstantPiece(0.0, 0.9, sample()),
                                      second),
                         period=1.0 if periodic else None)


# Two-piece m = 2 Kronig-Penney-type potential of period 1: two channels
# with gaps of different widths, shifted by 0.3 and coupled off the
# diagonal, so lambda = -1 lies in a band of one channel and a gap of the
# other (the mixed-channel point where the half-line sweep bisects).
KP2_PIECES = (
    (0.0, 0.5, np.array([
        [0.39694068751964123, 0.0, 0.9242851877968796, 0.09929020047043097],
        [0.0, 0.24788311141070285, 0.09929020047043097, 0.6994295347448869],
        [0.9242851877968796, 0.09929020047043097, 0.19847941270351172, 0.0],
        [0.09929020047043097, 0.6994295347448869, 0.0, 0.3475369888124501],
    ], dtype=complex)),
    (0.5, 1.0, np.array([
        [0.19847941270351172, 0.0, 0.5234748741469775, 0.09929020047043097],
        [0.0, 0.3475369888124501, 0.09929020047043097, 0.2986192210949848],
        [0.5234748741469775, 0.09929020047043097, 0.39694068751964123, 0.0],
        [0.09929020047043097, 0.2986192210949848, 0.0, 0.24788311141070285],
    ], dtype=complex)),
)


def kp2_spec():
    return PotentialSpec(m=2, period=1.0, name="kp2", pieces=tuple(
        ConstantPiece(lo, hi, b) for lo, hi, b in KP2_PIECES))


def smooth_bump_spec(amp=0.8, n=1601, tail_q=None, name="bump"):
    """Normal-form bump amp*sin(pi x)^2 on [0, 1] sampled densely, with an
    optional constant-coupling tail on [1, 2]."""
    xs = np.linspace(0.0, 1.0, n)
    vals = np.array([normal_form_matrix([[0.0]],
                                        [[amp * np.sin(np.pi * x) ** 2]])
                     for x in xs])
    pieces = [GridPiece(xs, vals)]
    if tail_q is not None:
        pieces.append(ConstantPiece(1.0, 2.0,
                                    normal_form_matrix([[0.0]], [[tail_q]])))
    return PotentialSpec(m=1, pieces=tuple(pieces), name=name)


def edge_floats():
    """10^k and its neighbours one ulp either side for k = -15..19, the
    ends of the digit-exact range, zeros, the smallest subnormal, infinities,
    NaN, and short mantissas j 2^-i whose exact decimal has 18 significant
    digits ending in 5: the ties of %.17g's round-half-even."""
    vals = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
            1e-11, 1e17]
    for k in range(-15, 20):
        p = 10.0 ** k
        vals += [p, math.nextafter(p, 0), math.nextafter(p, math.inf)]
    ties = [j * 2.0 ** -i for i in range(1, 80) for j in range(1, 400, 2)
            if len(str(j * 5 ** i).rstrip("0")) == 18]
    assert len(ties) > 100
    vals = np.array(vals + ties)
    return np.concatenate([vals, -vals])


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def zero1():
    return PotentialSpec.zero(1)


@pytest.fixture
def zero2():
    return PotentialSpec.zero(2)


@pytest.fixture
def const_q1():
    """Constant off-diagonal coupling q = 1 on the whole line."""
    return PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]))


@pytest.fixture
def const_q1_periodic():
    return PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                  period=1.0)


@pytest.fixture
def const_q1_window():
    """q = 1 truncated to [0, 1]."""
    return PotentialSpec.constant(normal_form_matrix([[0.0]], [[1.0]]),
                                  x_lo=0.0, x_hi=1.0)
