"""Spectral laboratory for the generalized-dispersion KP-II equation on T x R."""

__version__ = "0.1.0"

from .symbols import (  # noqa: F401
    DispersionParams,
    denom_A,
    phi0,
    phi1,
    phi2,
    phi3,
    resonance_bounds_audit,
)
from .fields import (  # noqa: F401
    BandSpec,
    GridSpec,
    NormSpec,
    SpaceTimeField,
    SpectralField,
    bourgain_norm,
    make_grid,
    random_field,
    sobolev_norm,
    to_physical,
    to_spectral,
)
from .evolution import (  # noqa: F401
    CutoffSpec,
    SolveConfig,
    evolve_nonlinear,
    free_evolve,
    picard_solve,
)
from .estimates import (  # noqa: F401
    CounterexampleConfig,
    ScalingFit,
    adversarial_pair,
    bilinear_ratio,
    counterexample_lhs,
    fit_exponent,
    strichartz2d_ratio,
    strichartz3d_ratio,
)
from .illposed import (  # noqa: F401
    IllposedConfig,
    build_wN,
    third_derivative_norm,
)
