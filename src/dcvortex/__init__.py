"""Numerical and exact-arithmetic laboratory for doubly-coupled vortex systems
on the flat torus, with slope stability and dimensional-reduction checks."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    FieldOnTorus,
    P1Chart,
    TorusGrid,
    dbar,
    del_,
    integrate,
    lambda_contract,
    p1_quadrature,
)
from .higgs import (  # noqa: F401
    MetricPair,
    QuadrupletSpec,
    bracket_theta,
    chern_curvature,
    higgs_adjoint,
    holomorphy_residuals,
    morphism_adjoint,
)
from .stability import (  # noqa: F401
    QuadInvariants,
    SubobjectCatalog,
    coordinate_subquadruplets,
    deg_sigma,
    direct_sum,
    equivalence_check,
    mu_sigma,
    polystable_check,
    theta_tau,
    verdict_sigma,
    verdict_tau,
)
from .vortex import (  # noqa: F401
    SolveOptions,
    VortexConstants,
    VortexResidual,
    constants_from_sigma,
    constants_from_tau,
    is_solution,
    residual,
    solve,
    trace_identity_check,
)
from .reduction import (  # noqa: F401
    assemble_F,
    calibrate_alpha_beta,
    deg_p1,
    fs_contraction_constant,
    he_residual_product,
    integrability_residual,
    iota_roundtrip,
    product_residual_blocks,
)
from .hyperkahler import (  # noqa: F401
    Configuration,
    GaugeDirection,
    TangentData,
    apply_I,
    apply_J,
    apply_K,
    metric_g,
    moment_map_property_check,
    moment_mu_I,
    omega_I,
)
