"""Exception types shared across the package."""


class CharshockError(Exception):
    """Base class for all charshock errors."""


class OutOfDomain(CharshockError):
    """Enthalpy left the admissible interval of the equation of state."""


class EosDomain(OutOfDomain):
    """Field evolution drove h out of the EOS domain (vacuum/degenerate sound speed)."""


class InvalidParameter(CharshockError):
    pass


class DegenerateSoundSpeed(CharshockError):
    pass


class PastShock(CharshockError):
    """Characteristic evaluation requested after neighbouring characteristics crossed."""


class CflViolation(CharshockError):
    pass


class NonFiniteField(CharshockError):
    """NaN/Inf appeared in a field array; expected when running past blow-up."""


class NoBlowupTrend(CharshockError):
    pass


class InvalidWidth(CharshockError):
    pass


class GridTooCoarse(CharshockError):
    pass


class InterpolationOutOfRange(CharshockError):
    pass


class ShockDetected(CharshockError):
    """Ray spacing collapsed (crossing characteristics)."""


class SingularEndpoint(CharshockError):
    """The focusing integrand 1/(-t) is singular at t = 0."""


class NoRootBeforeSigma(CharshockError):
    """The shock-time equation has no root in (-2, sigma]."""


class ConfigInvalid(CharshockError):
    pass
