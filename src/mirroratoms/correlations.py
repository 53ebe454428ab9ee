"""Boundary-modified field-correlation spectra and master-equation coefficients.

Two identical two-level atoms ride uniformly accelerated worldlines parallel
to a reflecting plane (distance z from it, separated by L along the plane).
The mirror adds an image contribution to the vacuum two-point function; on
the accelerated worldline its Fourier transform reduces to the interference
kernels f and h (``_kernels`` below), and the whole dissipative dynamics
collapses to five real rates (a1, a2, b1, b2, d).

Units: the engine is dimensionless. Rates are multiples of gamma0 (the
inertial spontaneous-emission rate) and times of 1/gamma0; the atomic
transition frequency omega is 1, so lengths (z, L, d) are in units of 1/omega
and the acceleration is accel = a/omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Below accel*d the accelerated kernels switch to their inertial closed
# forms. The branches differ by at most (accel*d)^2 (d/3 + 1/2) in units of
# the kernel envelope 1/(2d): 4e-12 at the switch for d <= 10, 7e-11 at
# d = 200 (see tests).
INERTIAL_SWITCH = 1e-6


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration of the two-atom system, in units of the
    transition frequency omega.

    accel:  proper acceleration a/omega, >= 0 (0: the analytic inertial limit)
    z:      atom-boundary distance omega*z, > 0
    l:      interatomic separation omega*L, > 0
    """

    accel: float
    z: float
    l: float

    def __post_init__(self):
        for name in ("z", "l"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.accel) or self.accel < 0.0:
            raise DomainError(f"accel must be finite and >= 0, got {self.accel}")

    @classmethod
    def from_dimensionless(cls, z_omega, a_over_omega, l_omega) -> "SystemParams":
        """Build params from the dimensionless combinations omega*z, a/omega,
        omega*L."""
        return cls(accel=a_over_omega, z=z_omega, l=l_omega)


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


def _elementwise(*args) -> tuple:
    """The arguments, floats or 1-D arrays of one size, as float arrays of
    that size, then whether every argument was a float (whose results are
    then floats too)."""
    arrays = [np.asarray(x, dtype=float) for x in args]
    size = max([x.size for x in arrays if x.ndim], default=1)
    return (*(np.full(size, x) if x.ndim == 0 else x for x in arrays),
            all(x.ndim == 0 for x in arrays))


def _libm(fn, *args: np.ndarray) -> np.ndarray:
    """fn of `math` at each element of the 1-D arrays args. numpy's arcsinh,
    exp, expm1 and hypot differ from libm's in the last bit of some values,
    and the emitted bytes were fixed with libm's; numpy's sin, cos and sqrt
    agree with it."""
    return np.fromiter(map(fn, *(x.tolist() for x in args)), dtype=float,
                       count=args[0].size)


def coth(x):
    """Overflow-safe hyperbolic cotangent, elementwise over an array or of
    one float.

    For x > 0 uses coth(x) = 1 + 2*exp(-2x)/(1 - exp(-2x)), which saturates
    cleanly to 1.0 for large x instead of overflowing exp(2x); coth(-x) is
    -coth(x).
    """
    t, scalar = _elementwise(x)
    if (t == 0.0).any():
        raise DomainError("coth(0) is singular")
    with np.errstate(all="ignore"):
        two_x = -2.0 * np.abs(t)
        value = 1.0 + 2.0 * _libm(math.exp, two_x) / -_libm(math.expm1, two_x)
    value = np.where(t < 0.0, -value, value)
    return float(value[0]) if scalar else value


def _kernels(accel: np.ndarray, d: np.ndarray) -> tuple:
    """The interference kernels (f, h) elementwise over 1-D arrays of one
    shape, accel = a/omega and the distance d in units of 1/omega, from one
    phase and one denominator per element:

        f = sin[(2/accel) asinh(accel d)] / (2 d sqrt(accel^2 d^2 + 1))

    and h the same with cos, or the inertial forms sin(2d)/(2d) and
    cos(2d)/(2d) where accel*d < INERTIAL_SWITCH. f lies in [-1, 1]; h
    diverges as 1/(2d) for d -> 0+ (the contact divergence is physical and
    is not regularized). DomainError names the first element out of the
    domain."""
    _check_kernel_args(accel, d)
    f, h = np.empty(d.size), np.empty(d.size)
    with np.errstate(all="ignore"):
        inertial = accel * d < INERTIAL_SWITCH
        x = 2.0 * d[inertial]
        f[inertial], h[inertial] = np.sin(x) / x, np.cos(x) / x
        fast = ~inertial
        a, dd = accel[fast], d[fast]
        phase = (2.0 / a) * _libm(math.asinh, a * dd)
        denom = 2.0 * dd * np.sqrt(a * a * dd * dd + 1.0)
        # accel*d or 1/accel past 1e305: the denominator exceeds 1e299, and
        # both kernels are 0 to double precision
        lost = phase == math.inf
        f[fast] = np.where(lost, 0.0, np.sin(phase) / denom)
        h[fast] = np.where(lost, 0.0, np.cos(phase) / denom)
    return f, h


def _check_kernel_args(accel, d):
    """DomainError for the first element whose d or accel (checked in that
    order) is out of the kernels' domain."""
    checks = (("d", "> 0", (d > 0.0) & np.isfinite(d), d),
              ("accel", ">= 0", (accel >= 0.0) & np.isfinite(accel), accel))
    good = checks[0][2] & checks[1][2]
    if not good.all():
        i = int(np.argmin(good))
        name, rule, _, x = next(check for check in checks if not check[2][i])
        raise DomainError(f"{name} must be {rule}, got {x[i].item()}")


def compute_coefficients(params: SystemParams) -> CoefficientSet:
    """Reduce the correlation spectra at the transition frequency to the five rates.

    a1 = (1/4) coth(pi/accel) [1 - f(z)]
    a2 = (1/4) coth(pi/accel) [f(L/2) - f(sqrt(L^2/4 + z^2))]
    b1, b2: same brackets without the thermal coth factor
    d  = (1/4) [h(L/2) - h(sqrt(L^2/4 + z^2))]

    with accel = a/omega and the distances in units of 1/omega. The
    one-element case of `_coefficients`.
    """
    return CoefficientSet(*_coefficients(params.accel, params.z, params.l))


def _coefficients(a, z, l) -> tuple:
    """(a1, a2, b1, b2, d) of `compute_coefficients`, elementwise: arrays over
    the broadcast of the arguments, or floats when all three are floats; the
    one implementation of the five rates. The kernels at the distances L/2,
    sqrt(L^2/4 + z^2) and z come from one `_kernels` call. Raises DomainError
    as `_check_kernel_args` and `CoefficientSet` do, for the first element
    that fails."""
    a, z, l, scalar = _elementwise(a, z, l)
    n = a.size
    quarter = 0.25
    thermal = np.ones(n)
    hot = a > 0.0
    with np.errstate(all="ignore"):
        thermal[hot] = coth(math.pi / a[hot])
        f, h = _kernels(np.concatenate([a] * 3),
                        np.concatenate([l / 2.0, np.sqrt(l * l / 4.0 + z * z), z]))
        bracket_self = 1.0 - f[2 * n:]
        bracket_cross = f[:n] - f[n:2 * n]
        d_cross = h[:n] - h[n:2 * n]
        values = (quarter * thermal * bracket_self, quarter * thermal * bracket_cross,
                  quarter * bracket_self, quarter * bracket_cross, quarter * d_cross)
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        _check_finite([v[i] for v in values])
    return tuple(float(v[0]) for v in values) if scalar else values
