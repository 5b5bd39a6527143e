import importlib.util
from pathlib import Path

import pytest

from trapmodes import (
    FluidConfig,
    ProblemSetup,
    analytic_dipoles,
    make_circle,
    make_ellipse,
    make_fourier,
    spectral_context,
)

from goldens import EGG


@pytest.fixture(scope="session")
def parity():
    """scripts/parity.py, loaded as a module: scripts/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def cfg_half():
    return FluidConfig(beta=0.5, b=1.0, k=1.0)


@pytest.fixture(scope="session")
def ctx_half(cfg_half):
    return spectral_context(cfg_half)


@pytest.fixture(scope="session")
def dip_circle():
    return analytic_dipoles("circle", r=1.0)


@pytest.fixture(scope="session")
def unit_circle():
    return make_circle(1.0)


@pytest.fixture(scope="session")
def tilted_ellipse():
    return make_ellipse(1.5, 0.7, 0.4)


@pytest.fixture(scope="session")
def egg():
    return make_fourier(EGG["cos_x"], EGG["sin_x"], EGG["cos_y"], EGG["sin_y"])


@pytest.fixture()
def setup_std(ctx_half, dip_circle):
    return ProblemSetup(ctx=ctx_half, side="U", a=0.5, epsilon=0.01,
                        dip=dip_circle)


@pytest.fixture()
def setup_std_lower(ctx_half, dip_circle):
    return ProblemSetup(ctx=ctx_half, side="L", a=0.5, epsilon=0.01,
                        dip=dip_circle)
