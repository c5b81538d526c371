"""Exception hierarchy.

Every error carries a machine-readable ``category`` (its class name), which
the CLI emits on failure.  Errors that abort mid-computation keep whatever
partial state is useful for diagnosis as attributes.
"""


class DiracWeylError(Exception):
    """Base class for all library errors."""

    @property
    def category(self):
        return type(self).__name__


# -- boundary data / scalar arguments ---------------------------------------

class NotNormalized(DiracWeylError):
    """alpha @ alpha* deviates from the identity beyond tolerance."""


class NotLagrangian(DiracWeylError):
    """alpha @ J @ alpha* deviates from zero beyond tolerance."""


class DegenerateArguments(DiracWeylError, ValueError):
    """A numeric argument outside its domain (a non-finite x, z, lambda or
    tol, a real z, too large a grid, ...), refused by foundation.need or
    the CLI's option check; a ValueError too, for callers that catch one."""


# -- potential model ---------------------------------------------------------

class NonHermitianPiece(DiracWeylError):
    """A potential piece evaluates to a non-Hermitian matrix."""


class EmptyWindow(DiracWeylError):
    """Truncation window [x0, y0] with y0 <= x0."""


# -- propagation -------------------------------------------------------------

class IntegrationFailure(DiracWeylError):
    """A propagation failed: a non-finite carry or an unresolvable step."""


class MismatchedEvaluation(DiracWeylError):
    """Symplectic check called on fundamental systems with incompatible data."""


class NoCompactSupport(DiracWeylError):
    """Volterra solver needs a potential with bounded support."""


class IterationDivergence(DiracWeylError):
    """Successive approximations stopped contracting within the budget."""


# -- Weyl disk / M-functions -------------------------------------------------

class EigenvalueHit(DiracWeylError):
    """beta @ Phi(z, c) is (numerically) singular: z is an eigenvalue of the
    regular boundary value problem on [x0, c]."""


class NoConvergence(DiracWeylError):
    """Half-line decaying subspace unresolved: best is M, tail its estimate."""

    def __init__(self, msg, best=None, tail=None):
        super().__init__(msg)
        self.best = best
        self.tail = tail


class SingularDenominator(DiracWeylError):
    """Linear fractional transform hit a singular denominator."""


# -- Riccati / Cayley --------------------------------------------------------

class PoleEncountered(DiracWeylError):
    """Riccati trajectory blew up (u1 near-singular)."""

    def __init__(self, msg, last_x=None):
        super().__init__(msg)
        self.last_x = last_x


class SingularCayley(DiracWeylError):
    """Cayley transform undefined: I -/+ i*sigma*M singular."""


class ContractivityLost(DiracWeylError):
    """Compactified trajectory left the closed unit ball: the initial matrix
    was outside the Weyl disk."""

    def __init__(self, msg, x=None, monitor=None):
        super().__init__(msg)
        self.x = x
        self.monitor = monitor


class NotContractive(DiracWeylError):
    """Initial Cayley state has norm beyond 1 + tol."""


# -- full line ---------------------------------------------------------------

class SingularDifference(DiracWeylError):
    """M_minus - M_plus is numerically singular (z at the spectrum within
    resolution)."""


class LogBranchFailure(DiracWeylError):
    """Principal matrix logarithm undefined (zero or non-finite eigenvalue)."""


# -- asymptotics -------------------------------------------------------------

class InsufficientDerivatives(DiracWeylError):
    """Expansion order exceeds the derivative data available, or a
    derivative or coefficient overflows on the sample grid."""


class IllConditionedFit(DiracWeylError):
    """Expansion fit rejected: sample magnitudes too clustered or too few."""


class SectorViolation(DiracWeylError):
    """Fit sample outside the declared upper half-plane sector."""


# -- spectral analysis -------------------------------------------------------

class NotPeriodic(DiracWeylError):
    """Operation requires a periodic potential."""


class DifferenceBelowNoise(DiracWeylError):
    """All decay-fit samples sit below the solver noise floor (the two
    potentials are indistinguishable at this resolution)."""


# -- gauge -------------------------------------------------------------------

class NotHermitianOmega(DiracWeylError):
    """Gauge twist parameter omega must be Hermitian."""
