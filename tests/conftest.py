import numpy as np
import pytest
from hypothesis import settings

from rqcx.states import BlochX, XStateParams, check_xstate

# every property test replays the same examples and has no time limit; a
# test's own @settings sets only its max_examples
settings.register_profile("rqcx", derandomize=True, deadline=None, database=None)
settings.load_profile("rqcx")


def random_xstate(rng: np.random.Generator, rank_deficient: bool = False) -> XStateParams:
    """Draw a valid X state: Dirichlet-like diagonal, coherences inside their bounds."""
    w = rng.random(4)
    if rank_deficient:
        w[rng.integers(1, 3)] = 0.0
    w = w / w.sum()
    a, b, c, d = (float(v) for v in w)
    r = float(rng.uniform(-1.0, 1.0)) * np.sqrt(a * d)
    s = float(rng.uniform(-1.0, 1.0)) * np.sqrt(b * c)
    return XStateParams(a, b, c, d, r, s)


def bloch(p: XStateParams) -> BlochX:
    """The Bloch vector of p, which check_xstate returns once p passes."""
    return BlochX(*check_xstate(p)[:5])


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Generic (non-X) random density matrix from a Ginibre draw."""
    g = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
