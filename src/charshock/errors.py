"""Exception types shared across the package, one per failure a caller can
meet (the ray trace stops by checks), and the caps on sizes and step counts."""

MAX_VALUES = 10**8      # values an array sized by a caller's count may hold (800 MB of doubles)


class CharshockError(Exception):
    """Base class for all charshock errors."""


class OutOfDomain(CharshockError):
    """Enthalpy left the admissible interval of the equation of state."""


class InvalidParameter(CharshockError):
    """An input outside its admissible range: a width, a time, a count, a step."""


class NonFiniteField(CharshockError):
    """NaN/Inf appeared in a field array; expected when running past blow-up."""


class NoBlowupTrend(CharshockError):
    pass


class GridTooCoarse(CharshockError):
    pass


class NoRootBeforeSigma(CharshockError):
    """The shock-time equation has no root in (-2, sigma]."""


class ConfigInvalid(CharshockError):
    pass


def check_size(what, n):
    """InvalidParameter unless what, an array about to be allocated, holds at most MAX_VALUES."""
    if not n <= MAX_VALUES:     # n may be an int beyond the float range: not formatted
        raise InvalidParameter(f"{what} would hold more than {MAX_VALUES:.0e} values")


def check_steps(t, step, t_end):
    """InvalidParameter unless at most MAX_VALUES steps of step reach t_end from
    t and half a step moves t.  A solver's step is at least half its CFL step,
    or its last one to t_end; a fast field's tiny step, or a NaN one, fails here."""
    if not (t_end - t <= MAX_VALUES * step and t + 0.5 * step > t):
        raise InvalidParameter(f"time steps of {step:.3g} from t = {t!r} would not "
                               f"reach t_end = {t_end!r} in {MAX_VALUES:.0e} steps")
