"""The numerical image-term Fourier transform against the closed-form spectra."""

import math

import pytest

import numpy as np

from mirroratoms import ConvergenceError, DomainError, SystemParams, coth
from mirroratoms.correlations import _kernels

from oracles import default_epsilon_schedule, image_wightman_ft_oracle
import reference as ref


def test_oracle_reproduces_closed_form(anchor_params):
    val = image_wightman_ft_oracle(1.0, anchor_params)
    f = float(_kernels(np.array([1.0]), np.array([1.0]), np.array([0.4]))[0][0])
    closed = -(1.0 / (4.0 * math.pi)) * (coth(math.pi) + 1.0) * f
    assert closed == pytest.approx(ref.FROZEN["image_corr_lam1"], rel=1e-13)
    assert val == pytest.approx(closed, rel=1e-2)


def test_oracle_vanishes_far_from_the_mirror():
    p = SystemParams(omega=1.0, accel=1.0, z=50.0, l=0.3)
    assert abs(image_wightman_ft_oracle(1.0, p)) < 1e-3


def test_oracle_respects_detailed_balance(anchor_params):
    plus = image_wightman_ft_oracle(1.0, anchor_params)
    minus = image_wightman_ft_oracle(-1.0, anchor_params)
    assert minus / plus == pytest.approx(math.exp(-2.0 * math.pi), rel=1e-2)
    assert minus == pytest.approx(ref.FROZEN["image_corr_lam_m1"], rel=1e-2)


def test_oracle_nonconvergence_is_reported(anchor_params):
    with pytest.raises(ConvergenceError):
        image_wightman_ft_oracle(1.0, anchor_params, tol=1e-8)


def test_oracle_schedule_and_window_validation(anchor_params):
    with pytest.raises(DomainError):
        image_wightman_ft_oracle(1.0, anchor_params, epsilon_schedule=[0.1, 0.2, 0.4])
    with pytest.raises(DomainError):
        image_wightman_ft_oracle(1.0, anchor_params, epsilon_schedule=[0.1, 0.05])
    with pytest.raises(DomainError):
        image_wightman_ft_oracle(1.0, anchor_params, epsilon_schedule=[0.1, 0.0, -0.1])
    with pytest.raises(DomainError):
        image_wightman_ft_oracle(0.0, anchor_params)
    inertial = SystemParams(omega=1.0, accel=0.0, z=0.4, l=0.3)
    with pytest.raises(DomainError):
        image_wightman_ft_oracle(1.0, inertial)


def test_default_schedule_scales_with_acceleration():
    assert default_epsilon_schedule(2.0) == [0.05, 0.025, 0.0125, 0.00625]
    with pytest.raises(DomainError):
        default_epsilon_schedule(0.0)


def test_oracle_accepts_custom_window(anchor_params):
    val = image_wightman_ft_oracle(1.0, anchor_params, window=40.0)
    assert val == pytest.approx(ref.FROZEN["image_corr_lam1"], rel=1e-2)
