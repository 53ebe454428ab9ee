"""Independent high-precision oracle (mpmath, 60 digits) for the closed-form
coefficient algebra, used to freeze and cross-check the anchor values below.

The frozen constants were produced by this module; the test suite asserts
both implementation-vs-frozen and frozen-vs-recomputed agreement so a stale
constant cannot go unnoticed.
"""

import mpmath as mp

mp.mp.dps = 60


def kernel_f_hp(om, a, d):
    om, a, d = mp.mpf(om), mp.mpf(a), mp.mpf(d)
    if a == 0:
        return mp.sin(2 * om * d) / (2 * om * d)
    return mp.sin((2 * om / a) * mp.asinh(a * d)) / (
        2 * om * d * mp.sqrt(a * a * d * d + 1))


def kernel_h_hp(om, a, d):
    om, a, d = mp.mpf(om), mp.mpf(a), mp.mpf(d)
    if a == 0:
        return mp.cos(2 * om * d) / (2 * om * d)
    return mp.cos((2 * om / a) * mp.asinh(a * d)) / (
        2 * om * d * mp.sqrt(a * a * d * d + 1))


def coefficients_hp(om, a, z, l, gamma0=1):
    om, a, z, l = mp.mpf(om), mp.mpf(a), mp.mpf(z), mp.mpf(l)
    thermal = mp.coth(mp.pi * om / a) if a != 0 else mp.mpf(1)
    diag = mp.sqrt(l * l / 4 + z * z)
    quarter = mp.mpf(gamma0) / 4
    a1 = quarter * thermal * (1 - kernel_f_hp(om, a, z))
    a2 = quarter * thermal * (kernel_f_hp(om, a, l / 2) - kernel_f_hp(om, a, diag))
    b1 = quarter * (1 - kernel_f_hp(om, a, z))
    b2 = quarter * (kernel_f_hp(om, a, l / 2) - kernel_f_hp(om, a, diag))
    d = quarter * (kernel_h_hp(om, a, l / 2) - kernel_h_hp(om, a, diag))
    return a1, a2, b1, b2, d


def rate_hp(om, a, z, l):
    a1, a2, b1, b2, d = coefficients_hp(om, a, z, l)
    return 4 * mp.sqrt(a2 ** 2 + d ** 2) - 4 * mp.sqrt(a1 ** 2 - b1 ** 2)


def gibbs_populations_hp(om, a):
    """Product Gibbs state populations (gg, ee, aa, ss) at the Unruh temperature."""
    x = mp.e ** (-2 * mp.pi * mp.mpf(om) / mp.mpf(a))
    norm = (1 + x) ** 2
    return 1 / norm, x * x / norm, x / norm, x / norm


def image_correction_hp(lam, a, z):
    lam, a = mp.mpf(lam), mp.mpf(a)
    return -lam / (4 * mp.pi) * (mp.coth(mp.pi * lam / a) + 1) * kernel_f_hp(abs(lam), a, z)


# Frozen anchors (omega=1, accel=1, z=0.4, l=0.3, gamma0=1 unless noted),
# generated by the functions above at 60 digits and rounded to float64.
FROZEN = {
    "f_1_1_04": 0.8162814663539005,
    "h_1_1_015": 3.1503063142722516,
    "h_1_1_04": 0.8250256519089668,
    "coth_pi": 1.0037418731973213,
    "a1": 0.046101496275750253,
    "a2": 0.044207234297030704,
    "b1": 0.045929633411524876,
    "b2": 0.044042433097079924,
    "d": 0.6060499950437477,
    "rate": 2.414732556901847,
    "rate_no_d": 0.16092083432400869,
    "gibbs_p_gg": 0.9962755505746759,
    "gibbs_p_aa": 0.0018604875356990534,
    "gibbs_p_ee": 3.4743539259745046e-06,
    "image_corr_lam1": -0.13015829348366149,
    "image_corr_lam_m1": -0.00024306315913757893,
}
