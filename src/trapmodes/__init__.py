"""Trapped modes and resonances of thin horizontal cylinders in a two-layer fluid.

The package splits along the physics: `dispersion` (two-layer branch
functions and cut-offs), `contour` (cross-section geometry and dipole
coefficients), `potentialflow` (Nystrom boundary method for the exterior
flow), `spectra` (leading-order eigenvalue and resonance formulas),
`embedded` (the special submergence converting a resonance into an embedded
trapped mode), and `cli` (batch front end).

Each stage takes the previous stage's result: a contour from `make_circle`,
`make_ellipse` or `read_fourier_file`, its system `assemble(C, N)`, the
dipoles `dipoles_bem(system)`; the fluid's `spectral_context(cfg)`; then a
formula such as `trapped_upper(setup)` of a `ProblemSetup` that carries the
context and the dipoles.
"""

from .contour import (
    Contour,
    DipoleStrengths,
    analytic_dipoles,
    area,
    make_circle,
    make_ellipse,
    make_fourier,
    read_fourier_file,
)
from .dispersion import (
    FluidConfig,
    SpectralContext,
    g_profile,
    g_profile_scaled,
    lambda1,
    lambda1_prime,
    lambda2,
    mode_profiles,
    near_threshold_wavenumbers,
    spectral_context,
)
from .embedded import (
    EmbeddedResult,
    a_star,
    alpha_threshold,
    f_circle,
    small_alpha_asymptote,
    solve_w,
    sweep_f,
    tau0,
)
from .errors import ConsistencyError, ValidationError
from .potentialflow import (
    NystromSystem,
    apply_n0,
    assemble,
    boundary_potential,
    dipole_mu_flux,
    dipoles_bem,
)
from .spectra import (
    Coefficients,
    ModeResult,
    ProblemSetup,
    ResonanceResult,
    p0_factor,
    q_factor,
    rcal_jcal,
    resonance_lower,
    resonance_upper,
    trapped_lower,
    trapped_upper,
)

__version__ = "0.1.0"
