"""Core types: the symplectic form, boundary data, sign factor, and the
potential model with file ingestion.

Complex matrices are plain numpy arrays throughout; the helpers here enforce
the algebraic invariants (Hermiticity, normalization, the Lagrangian
condition).  All value types are immutable after construction, so they can be
shared freely across concurrent evaluations.
"""

import json
import json.decoder
import json.scanner
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateArguments,
    EmptyWindow,
    NonHermitianPiece,
    NotLagrangian,
    NotNormalized,
)

# Default tolerance for algebraic identity checks (double precision products
# at block dimension m <= 8).
ALG_TOL = 1e-10

# inv_cond above which every singularity check counts a matrix as singular
COND_LIMIT = 1e12

# the most points of a grid that need lets be made (a million 4x4 complex
# matrices take 256 MB): gauge nodes, borg lambda, a flow's cells, lo:hi:n
MAX_POINTS = 10 ** 6


def need(ok, what, condition, value):
    """The one argument check: DegenerateArguments("{what} needs
    {condition}, got {value}") unless ok holds everywhere.  ok is a bool or
    a bool array over value, whose first failing entry the message names;
    write it so that NaN fails it (tol >= 0, not `not tol < 0`)."""
    if not np.all(ok):
        value = np.asarray(value)[~np.asarray(ok)][0] if np.ndim(ok) else value
        raise DegenerateArguments(f"{what} needs {condition}, got {value}")


def matnorm(x):
    """Spectral norm (largest singular value), the norm of every defect and
    convergence check; a vector gets its 2-norm, and a stack of matrices an
    array of norms from one batched SVD.  Equal bit for bit to
    np.linalg.norm(x, 2) on matrices, without its axis bookkeeping."""
    s = np.linalg.svd(np.atleast_2d(x), compute_uv=False)[..., 0]
    return float(s) if s.ndim == 0 else s


def inv_cond(mat, scale=1.0):
    """scale / sigma_min(mat) from one SVD, the condition of inverting mat
    inside a product whose inputs have the given scale (np.linalg.cond is
    scale-blind); inf for a non-finite or singular mat.  A stack of
    matrices (scale a scalar or one per matrix) gives an array of
    conditions from one batched SVD; a single matrix runs as a stack of
    one and gives a float."""
    mat = np.asarray(mat)
    if mat.ndim == 2:
        return float(inv_cond(mat[None], scale)[0])
    scale = np.broadcast_to(scale, mat.shape[:1])
    out = np.full(mat.shape[:1], math.inf)
    ok = np.all(np.isfinite(mat), axis=(-2, -1))
    try:
        smin = np.linalg.svd(mat[ok], compute_uv=False)[..., -1]
    except np.linalg.LinAlgError:
        if len(mat) > 1:         # one failing entry fails the whole stack
            return np.array([inv_cond(a, s) for a, s in zip(mat, scale)])
        return out
    with np.errstate(divide="ignore"):
        out[ok] = np.where(smin > 0, scale[ok] / smin, math.inf)
    return out


def jmat(m):
    """The canonical symplectic form J = [[0, -I_m], [I_m, 0]]."""
    j = np.zeros((2 * m, 2 * m), dtype=complex)
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def herm_defect(x):
    """Distance of x from its Hermitian part (an array of them for a stack)."""
    x = np.asarray(x)
    return matnorm(x - x.conj().mT)


def hermitize(x):
    """Hermitian part of a matrix or of each matrix of a stack."""
    x = np.asarray(x)
    return 0.5 * (x + x.conj().mT)


def mat_imag(x):
    """Matrix imaginary part (X - X*) / 2i (Hermitian), per matrix."""
    x = np.asarray(x)
    return (x - x.conj().mT) / 2j


def sigma(s, t, z):
    """Sign of (s - t) * Im(z), the orientation factor of the disk functional.

    Returns +1 or -1 for finite s != t and a finite, non-real z.
    """
    z = complex(z)
    need(np.isfinite([s, t, z]).all() and s != t and z.imag != 0, "sigma",
         "finite s != t and a finite, non-real z", (s, t, z))
    return 1 if (s - t) * z.imag > 0 else -1


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Row blocks (alpha1, alpha2) of a normalized Lagrangian boundary matrix.

    Satisfies alpha @ alpha* = I and alpha @ J @ alpha* = 0 within the
    tolerance it was validated at.  Construct through validate_boundary_data.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray

    @property
    def m(self):
        return self.alpha1.shape[0]

    @property
    def alpha(self):
        """The m x 2m boundary matrix (alpha1 alpha2)."""
        return np.hstack([self.alpha1, self.alpha2])

    def psi0(self):
        """Initial value (alpha* Jalpha*) of the normalized fundamental system.

        Exact by construction: entries are conjugates of the stored blocks.
        """
        a1s = self.alpha1.conj().T
        a2s = self.alpha2.conj().T
        top = np.hstack([a1s, -a2s])
        bot = np.hstack([a2s, a1s])
        return np.vstack([top, bot])

    def alpha_j(self):
        """alpha @ J, the complementary row block."""
        return np.hstack([self.alpha2, -self.alpha1])


def validate_boundary_data(alpha1, alpha2):
    """Check the normalization and Lagrangian conditions and build the value.

    Raises NotNormalized when ||alpha alpha* - I|| > ALG_TOL and
    NotLagrangian when ||alpha J alpha*|| > ALG_TOL.
    """
    a1 = np.atleast_2d(np.array(alpha1, dtype=complex))
    a2 = np.atleast_2d(np.array(alpha2, dtype=complex))
    if a1.shape != a2.shape or a1.shape[0] != a1.shape[1]:
        raise ValueError("alpha blocks must be square and of equal shape")
    m = a1.shape[0]
    norm_defect = matnorm(a1 @ a1.conj().T + a2 @ a2.conj().T - np.eye(m))
    if norm_defect > ALG_TOL:
        raise NotNormalized(
            f"||alpha alpha* - I|| = {norm_defect:.3e} exceeds {ALG_TOL:.1e}")
    lagr = a2 @ a1.conj().T - a1 @ a2.conj().T  # alpha J alpha* / ... = 2i Im
    lagr_defect = matnorm(lagr)
    if lagr_defect > ALG_TOL:
        raise NotLagrangian(
            f"||alpha J alpha*|| = {lagr_defect:.3e} exceeds {ALG_TOL:.1e}")
    a1.flags.writeable = False
    a2.flags.writeable = False
    return BoundaryData(a1, a2)


def alpha_dirichlet(m):
    """Boundary data (I_m  0): kills the first component block at x0."""
    return validate_boundary_data(np.eye(m), np.zeros((m, m)))


def alpha_neumann(m):
    """Boundary data (0  I_m): kills the second component block at x0."""
    return validate_boundary_data(np.zeros((m, m)), np.eye(m))


# ---------------------------------------------------------------------------
# Potential model
# ---------------------------------------------------------------------------

def _check_hermitian_samples(values, tol, what):
    # the Frobenius norm bounds the spectral one, so a stack whose largest
    # Frobenius defect is within tol passes without an SVD per sample
    skew = values - values.conj().mT
    if np.max(np.linalg.norm(skew, axis=(-2, -1))) <= tol:
        return
    defect = float(np.max(matnorm(skew)))
    if defect > tol:
        raise NonHermitianPiece(
            f"{what}: Hermiticity defect {defect:.3e} exceeds tol {tol:.1e}")


@dataclass(frozen=True, eq=False)
class ConstantPiece:
    x_lo: float
    x_hi: float
    value: np.ndarray

    kind = "constant"

    def __post_init__(self):
        v = np.array(self.value, dtype=complex)
        v.flags.writeable = False
        object.__setattr__(self, "value", v)
        if not (self.x_hi > self.x_lo):
            raise ValueError("piece needs x_hi > x_lo")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite entries in constant piece")
        _check_hermitian_samples(v, ALG_TOL, "constant piece")

    def eval(self, x):
        return np.broadcast_to(self.value, np.shape(x) + self.value.shape)

    def bound(self):
        return matnorm(self.value)


@dataclass(frozen=True, eq=False)
class GridPiece:
    """Sampled values with piecewise-linear interpolation between nodes."""

    xs: np.ndarray
    values: np.ndarray  # (n, 2m, 2m)

    kind = "grid"

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)
        vals = np.array(self.values, dtype=complex)
        # a NaN fails every comparison, so only "all > 0" refuses it
        if (xs.ndim != 1 or len(xs) < 2 or not np.all(np.isfinite(xs))
                or not np.all(np.diff(xs) > 0)):
            raise ValueError("grid nodes must be finite and strictly "
                             "increasing, n >= 2")
        if vals.ndim != 3 or vals.shape[0] != len(xs):
            raise ValueError("one sample matrix per grid node required")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite entries in grid piece")
        _check_hermitian_samples(vals, ALG_TOL, "grid piece")
        xs.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vals)

    @property
    def x_lo(self):
        return float(self.xs[0])

    @property
    def x_hi(self):
        return float(self.xs[-1])

    def eval(self, x):
        """B at a scalar x, or an (n, 2m, 2m) stack at a 1-D array of x;
        a scalar runs as a stack of one."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self.eval(x[None])[0]
        xs, vals, hi = self.xs, self.values, self.x_hi
        x = np.minimum(np.maximum(x, self.x_lo), hi)
        k = np.maximum(np.searchsorted(xs, x), 1)
        km = k - 1
        a, b = xs[km], xs[k]
        dx = x - a                    # a <= x <= b
        t = (dx / (b - a))[:, None, None]
        out = (1.0 - t) * vals.take(km, axis=0) + t * vals.take(k, axis=0)
        # snap to nodes so that period translates of aligned points evaluate
        # bit-identically despite float wrap error; the end clamps come
        # first, then the left node, then the right one
        snap = 1e-12 * (1.0 + np.abs(x))
        left = (dx <= snap) & (x < hi)
        node = left | (b - x <= snap)
        np.copyto(out, vals.take(np.where(left, km, k), axis=0),
                  where=node[:, None, None])
        return out

    def bound(self):
        return float(np.linalg.svd(self.values, compute_uv=False)[:, 0].max())


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Piecewise description of the Hermitian coefficient B(x).

    Outside its pieces the potential is zero (the locally integrable
    extension).  If ``period`` is set the
    pieces must tile exactly one period, each meeting the next within 1e-9
    (ValueError otherwise), and evaluation wraps.
    """

    m: int
    pieces: tuple = ()
    period: float = None
    name: str = ""

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        d = 2 * self.m
        for p in pieces:
            shape = p.value.shape if p.kind == "constant" else p.values.shape[1:]
            if shape != (d, d):
                raise ValueError(f"piece shape {shape} does not match 2m={d}")
        for a, b in zip(pieces, pieces[1:]):
            if b.x_lo < a.x_hi - 1e-12:
                raise ValueError("pieces must be ordered and non-overlapping")
        if self.period is not None:
            if not pieces:
                raise ValueError("periodic spec needs at least one piece")
            if self.period <= 0:
                raise ValueError("period must be positive")
            # a gap would be evaluated as a neighbouring piece, not as zero
            span = pieces[-1].x_hi - pieces[0].x_lo
            if (not math.isclose(span, self.period, rel_tol=0, abs_tol=1e-9)
                    or any(b.x_lo - a.x_hi > 1e-9
                           for a, b in zip(pieces, pieces[1:]))):
                raise ValueError("pieces must tile exactly one period")
            if not all(map(math.isfinite, (pieces[0].x_lo, pieces[-1].x_hi))):
                raise ValueError("periodic pieces must be finite")

    # -- geometry ------------------------------------------------------------

    @property
    def is_periodic(self):
        return self.period is not None

    def support(self):
        """(x_lo, x_hi) hull of the pieces; (0.0, 0.0) for the zero potential."""
        if not self.pieces:
            return (0.0, 0.0)
        return (self.pieces[0].x_lo, self.pieces[-1].x_hi)

    def is_compactly_supported(self):
        if self.is_periodic:
            return False
        lo, hi = self.support()
        return math.isfinite(lo) and math.isfinite(hi)

    def bound(self):
        """Upper estimate of sup_x ||B(x)||."""
        if not self.pieces:
            return 0.0
        return max(p.bound() for p in self.pieces)

    # -- evaluation ----------------------------------------------------------

    def locate(self, x, side=0):
        """(piece, offset) with B(x) = piece.eval(x - offset), or (None,
        offset) where B vanishes.  ``side`` = +1 / -1 shifts x by 1e-12 to
        pick the piece right / left of an edge; the last piece also owns
        its closing edge."""
        pieces = self.pieces
        off = 0.0
        if self.is_periodic:
            base, top, w = pieces[0].x_lo, pieces[-1].x_hi, self.period
            off = math.floor((x - base) / w) * w
            # the wrapped point carries the roundoff of x; snap it onto a
            # nearby edge before the side shift, which is far smaller
            snap = 1e-12 * (1.0 + abs(x))
            x = next((e for p in pieces for e in (p.x_lo, p.x_hi)
                      if abs(x - off - e) <= snap), x - off)
            if x == top:
                x, off = base, off + w
            if side < 0 and x == base:
                x, off = top, off - w
        xq = x + (math.copysign(1e-12, side) if side else 0.0)
        for p in pieces:
            if p.x_lo <= xq < p.x_hi:
                return p, off
        if self.is_periodic:
            # pieces tile the period only to within 1e-9
            return (pieces[0] if xq < base else pieces[-1]), off
        if pieces and pieces[-1].x_hi <= xq <= pieces[-1].x_hi + 1e-12:
            return pieces[-1], off
        return None, off

    @cached_property
    def is_real(self):
        """True iff every piece has identically zero imaginary part."""
        return not any(np.any((p.value if p.kind == "constant"
                               else p.values).imag) for p in self.pieces)

    @cached_property
    def _edges(self):
        """Finite piece edges in order; for a periodic spec, one period's
        edges as offsets from its start, the closing edge left out."""
        edges = sorted({e for p in self.pieces for e in (p.x_lo, p.x_hi)
                        if math.isfinite(e)})
        if self.is_periodic:
            edges = [e - edges[0] for e in edges[:-1]]
        return edges

    def segments(self, lo, hi):
        """Split [lo, hi] at the piece edges, unrolled across periods, into
        (a, b, piece, offset) with B(x) = piece.eval(x - offset) on (a, b)
        and piece None where B vanishes."""
        edges = self._edges
        if self.is_periodic:
            base, w = self.pieces[0].x_lo, self.period
            ks = range(math.floor((lo - base) / w) - 1,
                       math.floor((hi - base) / w) + 2)
            edges = [base + k * w + e for k in ks for e in edges]
        pts = [lo, *(e for e in edges if lo < e < hi), hi]
        return [(a, b, *self.locate(0.5 * (a + b)))
                for a, b in zip(pts, pts[1:])]

    def eval(self, x, side=0):
        """B(x) at a scalar x, or an (n, 2m, 2m) stack at a 1-D array of x
        whose row i equals B(x[i]) bit for bit; ``side`` = +1 / -1 selects
        the one-sided limit at piece edges."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self.eval(x[None], side)[0]
        out = np.zeros((len(x), 2 * self.m, 2 * self.m), dtype=complex)
        # locate resolves each point; each piece evaluates all it owns
        located = [self.locate(t, side) for t in x.tolist()]
        for piece in {id(p): p for p, _ in located if p is not None}.values():
            idx = [i for i, (p, _) in enumerate(located) if p is piece]
            out[idx] = piece.eval(x[idx] - [located[i][1] for i in idx])
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, m, name="zero"):
        return cls(m=m, pieces=(), name=name)

    @classmethod
    def constant(cls, value, x_lo=-math.inf, x_hi=math.inf, period=None, name=""):
        """Constant B on [x_lo, x_hi] (the whole line by default).

        With ``period`` set, the piece covers one period cell and the
        potential repeats.
        """
        value = np.asarray(value, dtype=complex)
        m = value.shape[0] // 2
        if period is not None:
            x_lo = 0.0 if not math.isfinite(x_lo) else x_lo
            x_hi = x_lo + period
        return cls(m=m, pieces=(ConstantPiece(x_lo, x_hi, value),),
                   period=period, name=name)

    @classmethod
    def from_samples(cls, xs, values, period=None, name=""):
        values = np.asarray(values, dtype=complex)
        m = values.shape[1] // 2
        return cls(m=m, pieces=(GridPiece(np.asarray(xs, float), values),),
                   period=period, name=name)


def normal_form_matrix(b11, b12):
    """Assemble [[B11, B12], [B12, -B11]] from Hermitian blocks."""
    b11 = np.atleast_2d(np.asarray(b11, dtype=complex))
    b12 = np.atleast_2d(np.asarray(b12, dtype=complex))
    top = np.hstack([b11, b12])
    bot = np.hstack([b12, -b11])
    return np.vstack([top, bot])


def truncate_potential(spec, x0, y0):
    """Restrict spec to the window [x0, y0], zero elsewhere.

    The result is non-periodic with compact support; inside (x0, y0) it
    agrees with the original exactly.
    """
    if not (y0 > x0):
        raise EmptyWindow(f"window [{x0}, {y0}] is empty")

    out = []
    for a, b, piece, off in spec.segments(x0, y0):
        if piece is None or b - a <= 1e-14:
            continue
        if piece.kind == "constant":
            out.append(ConstantPiece(a, b, piece.value))
        else:
            xs = piece.xs + off
            keep = (xs > a + 1e-13) & (xs < b - 1e-13)
            nodes = np.concatenate([[a], xs[keep], [b]])
            vals = piece.eval(nodes - off)
            out.append(GridPiece(nodes, vals))
    name = f"{spec.name}|[{x0},{y0}]" if spec.name else f"truncated[{x0},{y0}]"
    return PotentialSpec(m=spec.m, pieces=tuple(out), name=name)


def check_normal_form(spec, interval, tol=ALG_TOL):
    """True iff B22 = -B11 and B21 = B12 with Hermitian blocks on the interval.

    Sampled check at 101 equispaced points; piece edges are probed from both
    sides.
    """
    m = spec.m
    xs = np.linspace(*interval, 101)
    for side in (-1, 1):
        b = spec.eval(xs, side=side)
        b11, b12 = b[:, :m, :m], b[:, :m, m:]
        defects = (matnorm(b[:, m:, m:] + b11), matnorm(b[:, m:, :m] - b12),
                   herm_defect(b11), herm_defect(b12))
        if any(np.any(dd > tol) for dd in defects):
            return False
    return True


# ---------------------------------------------------------------------------
# File format: {"m": int, "period": float?, "pieces": [...]}, complex entries
# serialized as [re, im] pairs.  A grid's "x" and the pairs of a grid's
# "values" or of a constant's "data" are number arrays: potential_to_dict
# gives them as nested lists, load_potential decodes each one in one pass
# into a float ndarray (_number_array), and _complex_in takes either.
# ---------------------------------------------------------------------------

def _pairs(mat):
    """The float array of a complex array's [re, im] pairs; a bit-exact
    reinterpretation keeps the sign of a zero part."""
    mat = np.ascontiguousarray(mat, dtype=complex)
    return mat.view(float).reshape(mat.shape + (2,))


def _complex_in(data, ndim=3):
    """Complex array from [re, im] pairs, nested lists or a float array: a
    matrix for ndim 3, a stack of matrices for ndim 4."""
    try:
        arr = np.asarray(data)
    except (TypeError, ValueError):    # ragged lists
        arr = None
    # numbers only, every list of a level having one length
    if (arr is None or arr.ndim != ndim or arr.dtype.kind not in "biuf"
            or arr.shape[-1] != 2):
        raise ValueError("matrix entries must be [re, im] pairs")
    # a bit-exact reinterpretation keeps the sign of a zero imaginary part
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


# Character classes of a number array's text, four bits each: 0 any other
# character, 1 JSON whitespace, 2 "[", 3 ",", 4 "]", 8 "-", 9 "+", 10 ".",
# 11 "e" or "E", 12 "0", 13 "1" to "9".
_CLASSES = bytes(dict(zip(b" \t\n\r[,]-+.eE0123456789",
                          [1] * 4 + [2, 3, 4, 8, 9, 10, 11, 11, 12] + [13] * 9)
                      ).get(c, 0) for c in range(256))

# the classes that may follow each class of a number's characters
_NUMBER_NEXT = {8: {12, 13}, 9: {12, 13}, 10: {12, 13}, 11: {8, 9, 12, 13},
                12: {10, 11, 12, 13}, 13: {10, 11, 12, 13}}


def _pair_tables():
    """bytes.translate's tables over the codes x << 4 | y of the classes
    of two adjacent characters.

    The first table and delete set map the second character to its mark:
    "[", "," or "]" for itself, "n" for a "-" or digit that starts a number
    (after whitespace, "[" or ","), nothing for whitespace and a number's
    other characters, and "!" where JSON's number grammar refuses the pair
    or no number array has it.  The second maps a pair to the flags of the
    leading zeros JSON refuses, which lie two pairs apart: bit 0 for
    whitespace, "[" or "," before the start of a number, bit 1 for a "-"
    that starts one; after a "0", bits 4 and 5 for a digit and bit 5 for
    the end of the number.  A pair's bits 0 and 1 and the bits 4 and 5 of
    the pair two on, shifted down, overlap at a "0" that starts a number
    and goes on with a digit ("01", bit 0), or that follows a "-" which
    starts one and does not go on with "." or "e" ("-01", or the integer
    -0, which JSON reads as +0: bit 1)."""
    out, drop = bytearray(b"!" * 256), bytearray()
    flags = bytearray(256)
    # the first character, the one before the array, is ":" or whitespace
    out[2], flags[2] = ord("["), 1
    for x in (1, 2, 3, 4, *_NUMBER_NEXT):
        for y in (1, 2, 3, 4, *_NUMBER_NEXT):
            code = x << 4 | y
            if y < 8 and x in (1, 2, 3, 4, 12, 13):   # a number ends on a digit
                if y == 1:
                    drop.append(code)
                else:
                    out[code] = b" [,]"[y - 1]
            elif x in _NUMBER_NEXT and y in _NUMBER_NEXT[x]:
                drop.append(code)
            elif x in (1, 2, 3) and y in (8, 12, 13):
                out[code] = ord("n")
            starts = x in (1, 2, 3) and y == 8      # "-" starts a number
            digit = x == 12 and y >= 12             # "0" then a digit
            not_fraction = digit or x == 12 and y in (1, 3, 4)
            flags[code] = ((y in (1, 2, 3)) | starts << 1 | digit << 4
                           | not_fraction << 5)
    return bytes(out), bytes(drop), bytes(flags)


_PAIR_OUT, _PAIR_DROP, _ZERO_FLAGS = _pair_tables()


def _skeleton(shape):
    """The skeleton of a number array of this shape: its text with each
    number written n and no whitespace.  Only an element's skeleton is
    kept, not a whole grid's."""
    return b"[" + b",".join([_element_skeleton(shape[1:])] * shape[0]) + b"]"


@lru_cache(maxsize=64)
def _element_skeleton(shape):
    return _skeleton(shape) if shape else b"n"


def _first_path_shape(skeleton):
    """The shape of a number array with this skeleton, read off the first
    list of each inner level and the skeleton's length; None where it
    holds no number or nests deeper than 32 levels (json's recursion limit
    refuses far deeper ones)."""
    depth = skeleton.find(b"n")
    if not 0 < depth <= 32:
        return None
    shape, size = [], 1      # size: the skeleton length of the inner level
    for level in range(1, depth):
        close = skeleton.find(b"]" * level)
        n = skeleton.count(b"]" * (level - 1) + b",", 0, close) + 1
        shape.append(n)
        size = n * (size + 1) + 1
    shape.append((len(skeleton) - 1) // (size + 1))
    return tuple(reversed(shape))


def _numbers(raw):
    """The float ndarray of raw, the ASCII bytes of the character before
    an array (":" or whitespace) and the array, where the array holds
    numbers in JSON's grammar nested to any depth with one length per
    level; every number is read as json.loads reads it.  None for any
    other text.

    The characters are classed, and each pair of adjacent classes is
    marked (_pair_tables), so that one translation checks the nesting,
    the whitespace and the number grammar but for leading zeros against
    the skeleton of the shape read off the first path.  The zero flags of
    the pairs then find the leading zeros JSON refuses, and an integer -0,
    which is left to json.  All numbers are then converted in one
    correctly rounded call."""
    # each buffer as long as the text is dropped once used, and the pair
    # codes' buffer takes the flag overlap, to keep the peak low
    classes = np.frombuffer(raw.translate(_CLASSES), np.uint8)
    pairs = bytearray(len(raw) - 1)
    codes = np.frombuffer(pairs, np.uint8)
    np.left_shift(classes[:-1], 4, out=codes)
    codes |= classes[1:]
    del classes
    marks = pairs.translate(_PAIR_OUT, _PAIR_DROP)
    shape = _first_path_shape(marks)
    if shape is None or marks != _skeleton(shape):
        return None
    flags = np.frombuffer(pairs.translate(_ZERO_FLAGS), np.uint8)
    overlap = np.right_shift(flags[2:], 4, out=codes[2:])
    overlap &= flags[:-2]
    if np.count_nonzero(overlap):
        return None
    del codes, pairs, flags, overlap
    try:
        arr = np.fromstring(raw.translate(None, b"[] \t\n\r:"), sep=",")
    except ValueError:
        return None
    return arr.reshape(shape) if arr.size == math.prod(shape) else None


def _number_array(s_and_end, scan_once):
    """json's parse_array for load_potential: an array that is an object's
    value and holds only numbers comes back as one float ndarray; every
    other array, and every array inside one, goes to json.decoder.JSONArray.
    A number array ends before the next '"', "{" or "}"."""
    s, end = s_and_end
    before = end - 2
    while before > 0 and s[before] in " \t\n\r":
        before -= 1
    if before >= 0 and s[before] == ":":
        stop = s.find('"', end)
        stop = len(s) if stop < 0 else stop
        for brace in "{}":
            found = s.find(brace, end, stop)
            stop = stop if found < 0 else found
        close = s.rfind("]", end, stop) + 1
        # a character that is not ASCII becomes "?", which no array holds
        arr = (_numbers(s[end - 2:close].encode("ascii", "replace"))
               if close else None)
        if arr is not None:
            return arr, close
    return json.decoder.JSONArray(s_and_end, scan_once)


# json's own pure-Python scanner with _number_array in it, built once
_DECODER = json.JSONDecoder()
_DECODER.parse_array = _number_array
_DECODER.scan_once = json.scanner.py_make_scanner(_DECODER)


def _edge_out(v):
    # an infinite edge is written "inf" / "-inf", which float() reads back
    return str(float(v)) if math.isinf(v) else float(v)


def _potential_doc(spec, out):
    """potential_to_dict's document with out(a) in place of each of its
    number arrays a: a grid's x, and the [re, im] pairs of a grid's
    values or of a constant's value."""
    pieces = []
    for p in spec.pieces:
        entry = {"x_lo": _edge_out(p.x_lo), "x_hi": _edge_out(p.x_hi),
                 "kind": p.kind}
        if p.kind == "constant":
            entry["data"] = out(_pairs(p.value))
        else:
            entry["data"] = {"x": out(p.xs), "values": out(_pairs(p.values))}
        pieces.append(entry)
    doc = {"m": spec.m, "pieces": pieces}
    if spec.period is not None:
        doc["period"] = float(spec.period)
    if spec.name:
        doc["name"] = spec.name
    return doc


def potential_to_dict(spec):
    return _potential_doc(spec, np.ndarray.tolist)


def potential_from_dict(doc):
    m = int(doc["m"])
    pieces = []
    for entry in doc.get("pieces", []):
        x_lo = float(entry["x_lo"])
        x_hi = float(entry["x_hi"])
        kind = entry.get("kind", "constant")
        if kind == "constant":
            pieces.append(ConstantPiece(x_lo, x_hi, _complex_in(entry["data"])))
        elif kind == "grid":
            xs = np.asarray(entry["data"]["x"], dtype=float)
            vals = _complex_in(entry["data"]["values"], ndim=4)
            pieces.append(GridPiece(xs, vals))
        else:
            raise ValueError(f"unknown piece kind {kind!r}")
    return PotentialSpec(m=m, pieces=tuple(pieces),
                         period=doc.get("period"), name=doc.get("name", ""))


def load_potential(path):
    """The potential of a JSON file, decoded as json.load decodes it but
    with each number array read in one pass (_number_array)."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = _DECODER.decode(text)
    except RecursionError as exc:
        # json's pure-Python scanner takes a few frames per level of nesting
        raise ValueError(f"malformed potential file {path}: nested too "
                         "deep") from exc
    try:
        return potential_from_dict(doc)
    except NonHermitianPiece:
        raise
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed potential file {path}: {exc}") from exc


# the stand-in for a number array in save_potential's dumped document
_SLOT = "@"


def save_potential(spec, path):
    """Write spec as one line of JSON: potential_to_dict's document as
    json.dumps lays it out, with its number arrays spelled by
    arraytext.json_array (%.17g digits, -0.0 as -0.0), so every number
    reads back bit for bit.  Each array stands in the dumped document as
    the string _SLOT.  The arrays all come before "name", the one other
    value that can read _SLOT, so the text's first len(arrays) _SLOTs are
    theirs."""
    # imported here: only the commands that write a file compile it
    from .arraytext import json_array
    arrays = []

    def out(a):
        arrays.append(json_array(a))
        return _SLOT

    text = json.dumps(_potential_doc(spec, out))
    parts = text.split(json.dumps(_SLOT), len(arrays))
    with open(path, "w") as fh:
        fh.write(parts[0] + "".join(a + p for a, p in zip(arrays, parts[1:]))
                 + "\n")
