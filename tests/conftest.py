import numpy as np
import pytest

from mirroratoms import SystemParams, XState
from mirroratoms.evolution import _null_populations, population_generators, rate_table


@pytest.fixture
def anchor_params():
    return SystemParams(accel=1.0, z=0.4, l=0.3)


def random_x_state(rng: np.random.Generator) -> XState:
    """Random valid X state: Dirichlet populations, coherences scaled inside
    the positivity bounds |c|^2 <= p_i p_j."""
    p_gg, p_ee, p_aa, p_ss = rng.dirichlet(np.ones(4))
    amp_as = rng.uniform() * np.sqrt(p_aa * p_ss)
    amp_ge = rng.uniform() * np.sqrt(p_gg * p_ee)
    c_as = amp_as * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    c_ge = amp_ge * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return XState(p_gg=p_gg, p_ee=p_ee, p_aa=p_aa, p_ss=p_ss,
                  c_as=c_as, c_ge=c_ge)


def random_params(rng: np.random.Generator) -> SystemParams:
    """Draw a/omega, omega*z and omega*L inside the ranges the survey figures
    cover. The first uniform draw, where an omega was once drawn, is
    discarded, so the points the randomized tests sample stay put."""
    rng.uniform(0.5, 2.0)
    a_over = rng.uniform(0.1, 2.7)
    z_omega = np.exp(rng.uniform(np.log(0.4), np.log(4000.0)))
    l_omega = np.exp(rng.uniform(np.log(0.3), np.log(30.0)))
    return SystemParams.from_dimensionless(z_omega, a_over, l_omega)


def steady_state(coeffs) -> XState:
    """The stationary state of a coefficient set: the null vector of its
    population generator that the default horizon relaxes towards, checked
    as an XState, coherences zero."""
    rates = rate_table([coeffs])
    p = _null_populations(rates, population_generators(rates))[0]
    return XState(p_gg=p[0], p_ee=p[1], p_aa=p[2], p_ss=p[3])
