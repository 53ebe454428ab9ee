"""Boundary-modified field-correlation spectra and master-equation coefficients.

Two identical two-level atoms ride uniformly accelerated worldlines parallel
to a reflecting plane (distance z from it, separated by L along the plane).
The mirror adds an image contribution to the vacuum two-point function; on
the accelerated worldline its Fourier transform reduces to the interference
kernels ``kernel_f`` / ``kernel_h`` below, and the whole dissipative dynamics
collapses to five real rates (a1, a2, b1, b2, d).

Units: rates are multiples of gamma0 (the inertial spontaneous-emission
rate), times are multiples of 1/gamma0, and lengths enter only through the
dimensionless combinations omega*z, omega*L and accel/omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Below accel*d the accelerated kernels switch to their inertial closed
# forms. The branches differ by at most (accel*d)^2 (omega*d/3 + 1/2) in units
# of the kernel envelope 1/(2 omega d): 4e-12 at the switch for omega*d <= 10,
# 7e-11 at omega*d = 200 (see tests).
INERTIAL_SWITCH = 1e-6


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration of the two-atom system.

    omega:  transition frequency (the natural energy unit), > 0
    accel:  proper acceleration, >= 0 (0 selects the analytic inertial limit)
    z:      atom-boundary distance, > 0
    l:      interatomic separation, > 0
    """

    omega: float
    accel: float
    z: float
    l: float

    def __post_init__(self):
        for name in ("omega", "z", "l"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.accel) or self.accel < 0.0:
            raise DomainError(f"accel must be finite and >= 0, got {self.accel}")

    @classmethod
    def from_dimensionless(cls, z_omega, a_over_omega, l_omega) -> "SystemParams":
        """Build params from the dimensionless combinations omega*z, a/omega,
        omega*L, in units where omega = 1."""
        return cls(omega=1.0, accel=a_over_omega, z=z_omega, l=l_omega)


@dataclass(frozen=True)
class CoefficientSet:
    """The five reduced rates of the two-atom master equation, in units of gamma0.

    a1/b1 drive single-atom dissipation, a2/b2 the collective (cross) channel,
    and d is the field-mediated coherent coupling between the atoms.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    d: float

    def __post_init__(self):
        _check_finite((self.a1, self.a2, self.b1, self.b2, self.d))

    def without_d(self) -> "CoefficientSet":
        """Same dissipative rates with the coherent coupling d forced to 0."""
        return CoefficientSet(self.a1, self.a2, self.b1, self.b2, 0.0)


def _check_finite(values):
    """Raise DomainError naming the first non-finite one of (a1, a2, b1, b2, d)."""
    for name, value in zip(("a1", "a2", "b1", "b2", "d"), values):
        if not math.isfinite(value):
            raise DomainError(f"coefficient {name} must be finite")


@dataclass(frozen=True)
class SpectralPair:
    """Values of the same-atom (g11) and cross-atom (g12) correlation spectra."""

    g11: float
    g12: float


def coth(x: float) -> float:
    """Overflow-safe hyperbolic cotangent.

    For x > 0 uses coth(x) = 1 + 2*exp(-2x)/(1 - exp(-2x)), which saturates
    cleanly to 1.0 for large x instead of overflowing exp(2x).
    """
    if x == 0.0:
        raise DomainError("coth(0) is singular")
    if x < 0.0:
        return -coth(-x)
    em = math.exp(-2.0 * x)
    return 1.0 + 2.0 * em / (-math.expm1(-2.0 * x))


def kernel_f(omega: float, accel: float, d: float) -> float:
    """Oscillatory boundary-interference kernel, sin-type.

    Returns sin[(2*omega/accel)*asinh(accel*d)] / (2*omega*d*sqrt(accel^2 d^2 + 1)).
    For accel = 0 (or accel*d < INERTIAL_SWITCH) the inertial closed form
    sin(2*omega*d)/(2*omega*d) is used. Result lies in [-1, 1].
    """
    return _kernel_pair(omega, accel, d)[0]


def kernel_h(omega: float, accel: float, d: float) -> float:
    """Oscillatory boundary-interference kernel, cos-type.

    Returns cos[(2*omega/accel)*asinh(accel*d)] / (2*omega*d*sqrt(accel^2 d^2 + 1)),
    with the inertial form cos(2*omega*d)/(2*omega*d) below the switch.
    Diverges as 1/(2*omega*d) for d -> 0+; callers must keep d bounded away
    from zero (the contact divergence is physical and is not regularized).
    """
    return _kernel_pair(omega, accel, d)[1]


def _kernel_pair(omega: float, accel: float, d: float) -> tuple:
    """(kernel_f, kernel_h) at one distance, from one phase and one
    denominator; the one implementation of both kernels."""
    _check_kernel_args(omega, accel, d)
    if accel * d < INERTIAL_SWITCH:
        x = 2.0 * omega * d
        return math.sin(x) / x, math.cos(x) / x
    phase = (2.0 * omega / accel) * math.asinh(accel * d)
    if phase == math.inf:  # accel*d or omega/accel past 1e305: the denominator
        return 0.0, 0.0    # exceeds 1e299, and both kernels are 0 to double precision
    denom = 2.0 * omega * d * math.sqrt(accel * accel * d * d + 1.0)
    return math.sin(phase) / denom, math.cos(phase) / denom


def _check_kernel_args(omega, accel, d):
    if omega <= 0.0 or not math.isfinite(omega):
        raise DomainError(f"omega must be > 0, got {omega}")
    if d <= 0.0 or not math.isfinite(d):
        raise DomainError(f"d must be > 0, got {d}")
    if accel < 0.0 or not math.isfinite(accel):
        raise DomainError(f"accel must be >= 0, got {accel}")


def spectral_density(lam: float, params: SystemParams) -> SpectralPair:
    """Correlation spectra at frequency lam (may be negative, not zero).

    g11 = (lam/4pi)(coth(pi*lam/a) + 1)[1 - f(lam, z)]
    g12 = (lam/4pi)(coth(pi*lam/a) + 1)[f(lam, L/2) - f(lam, sqrt(L^2/4 + z^2))]

    Both kernels are even in lam, so the pair satisfies the detailed-balance
    (KMS) ratio g(-lam)/g(lam) = exp(-2*pi*lam/a).
    """
    if lam == 0.0 or not math.isfinite(lam):
        raise DomainError("spectral density is undefined at lam = 0")
    if params.accel == 0.0:
        thermal = 2.0 if lam > 0.0 else 0.0
    else:
        thermal = coth(math.pi * lam / params.accel) + 1.0
    alam = abs(lam)  # kernels are even in frequency
    pref = lam / (4.0 * math.pi) * thermal
    f_z = kernel_f(alam, params.accel, params.z)
    f_half = kernel_f(alam, params.accel, params.l / 2.0)
    f_diag = kernel_f(alam, params.accel,
                      math.sqrt(params.l * params.l / 4.0 + params.z * params.z))
    return SpectralPair(g11=pref * (1.0 - f_z), g12=pref * (f_half - f_diag))


def compute_coefficients(params: SystemParams) -> CoefficientSet:
    """Reduce the correlation spectra at the transition frequency to the five rates.

    a1 = (1/4) coth(pi*omega/a) [1 - f(omega, z)]
    a2 = (1/4) coth(pi*omega/a) [f(omega, L/2) - f(omega, sqrt(L^2/4 + z^2))]
    b1, b2: same brackets without the thermal coth factor
    d  = (1/4) [h(omega, L/2) - h(omega, sqrt(L^2/4 + z^2))]
    """
    return CoefficientSet(*_coefficients(params.omega, params.accel, params.z, params.l))


def _coefficients(om: float, a: float, z: float, l: float) -> tuple:
    """(a1, a2, b1, b2, d) of `compute_coefficients` from plain floats; the
    one implementation of the five rates. Raises DomainError as
    `_check_kernel_args` and `CoefficientSet` do."""
    quarter = 0.25
    thermal = coth(math.pi * om / a) if a > 0.0 else 1.0
    diag = math.sqrt(l * l / 4.0 + z * z)
    f_half, h_half = _kernel_pair(om, a, l / 2.0)
    f_diag, h_diag = _kernel_pair(om, a, diag)
    bracket_self = 1.0 - _kernel_pair(om, a, z)[0]
    bracket_cross = f_half - f_diag
    d_cross = h_half - h_diag
    values = (quarter * thermal * bracket_self, quarter * thermal * bracket_cross,
              quarter * bracket_self, quarter * bracket_cross, quarter * d_cross)
    _check_finite(values)
    return values
