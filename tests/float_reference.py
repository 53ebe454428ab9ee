"""Plain-float reference of the coefficient and rate formulas: the scalar
code whose bits the emitted files were pinned with, one grid point at a
time through Python's `math` (libm). The library evaluates the same formulas
elementwise over arrays; the tests check it against this module bit for bit.
"""

import math

from mirroratoms import DomainError
from mirroratoms.correlations import INERTIAL_SWITCH


def coth(x: float) -> float:
    if x == 0.0:
        raise DomainError("coth(0) is singular")
    if x < 0.0:
        return -coth(-x)
    em = math.exp(-2.0 * x)
    return 1.0 + 2.0 * em / (-math.expm1(-2.0 * x))


def _check_kernel_args(omega, accel, d):
    if omega <= 0.0 or not math.isfinite(omega):
        raise DomainError(f"omega must be > 0, got {omega}")
    if d <= 0.0 or not math.isfinite(d):
        raise DomainError(f"d must be > 0, got {d}")
    if accel < 0.0 or not math.isfinite(accel):
        raise DomainError(f"accel must be >= 0, got {accel}")


def kernel_pair(omega: float, accel: float, d: float) -> tuple:
    """(kernel_f, kernel_h) at one distance."""
    _check_kernel_args(omega, accel, d)
    if accel * d < INERTIAL_SWITCH:
        x = 2.0 * omega * d
        return math.sin(x) / x, math.cos(x) / x
    phase = (2.0 * omega / accel) * math.asinh(accel * d)
    if phase == math.inf:
        return 0.0, 0.0
    denom = 2.0 * omega * d * math.sqrt(accel * accel * d * d + 1.0)
    return math.sin(phase) / denom, math.cos(phase) / denom


def coefficients(om: float, a: float, z: float, l: float) -> tuple:
    """(a1, a2, b1, b2, d) at one point; DomainError as the library raises it."""
    quarter = 0.25
    thermal = coth(math.pi * om / a) if a > 0.0 else 1.0
    diag = math.sqrt(l * l / 4.0 + z * z)
    f_half, h_half = kernel_pair(om, a, l / 2.0)
    f_diag, h_diag = kernel_pair(om, a, diag)
    bracket_self = 1.0 - kernel_pair(om, a, z)[0]
    bracket_cross = f_half - f_diag
    d_cross = h_half - h_diag
    values = (quarter * thermal * bracket_self, quarter * thermal * bracket_cross,
              quarter * bracket_self, quarter * bracket_cross, quarter * d_cross)
    for name, value in zip(("a1", "a2", "b1", "b2", "d"), values):
        if not math.isfinite(value):
            raise DomainError(f"coefficient {name} must be finite")
    return values


def generation_rate(a1: float, a2: float, b1: float, d: float) -> float:
    """4 hypot(a2, d) - 4 sqrt(a1^2 - b1^2) at one point."""
    try:
        a1_sq, b1_sq, scale = a1 ** 2, b1 ** 2, 1.0
    except OverflowError:
        scale = max(abs(a1), abs(b1))
        a1_sq, b1_sq = (a1 / scale) ** 2, (b1 / scale) ** 2
    disc = a1_sq - b1_sq
    if disc < -1e-12 * max(a1_sq, b1_sq, 1e-300):
        raise DomainError(f"a1^2 - b1^2 = {disc * scale * scale:.3e} < 0; "
                          "invalid coefficient set")
    return 4.0 * math.hypot(a2, d) - 4.0 * scale * math.sqrt(max(disc, 0.0))
