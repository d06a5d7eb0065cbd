"""Exact spin-coefficient engine for neutral-signature Walker metrics."""

from types import ModuleType as _ModuleType

from .congruence import (
    CoefficientTrace,
    ConnectingState,
    StateColumns,
    connecting_oracle,
    integrate_connecting,
    integrate_jacobi,
    riccati_residual,
    sigma_omega_forms,
    write_trace_csv,
)
from .curvature import (
    Analysis,
    CurvatureSpinors,
    bianchi_contracted_residual,
    classify_sd_weyl,
    commutator_residuals,
    commutator_vector_fields,
    field_equation_residuals,
    prime_curvature,
    ricci_tensor,
    scalar_curvature,
    tilde_curvature,
    walker_curvature_components,
)
from .errors import (
    DegenerateTetradError,
    EngineError,
    InputError,
    InternalInconsistencyError,
)
from .heavenly import (
    HeavenlyPotential,
    build_metric,
    einstein_check,
    invariants,
    master_identity_residual,
    psi_components,
    scalar_flat_case,
    validate_potential,
    wave_operator,
)
from .nullgeom import (
    classify_type_I,
    classify_type_III,
    distribution_report,
    frobenius_residual,
    multiple_spinor_differential_test,
    primed_spinor,
    recurrence_forms,
    relation_suite,
    ricci_conditions,
)
from .poly import (
    ExprSyntaxError,
    PoleError,
    Poly,
    RationalFunction,
    parse_poly,
)
from .spincoeff import (
    COEFF_NAMES,
    Frame,
    SpinCoefficientSet,
    first_form_residuals,
    prime,
    spin_coefficients_from_tetrad,
    tilde_relabel,
    transform_coefficients,
    walker_closed_form,
)
from .walker import (
    WalkerMetric,
    assemble_metric,
    christoffel,
    tetrad_covectors,
    validate_tetrad,
    walker_tetrad,
)

# the public names are those imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
