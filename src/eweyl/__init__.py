"""Orbit functions of even Weyl groups for semisimple rank <= 3 groups.

Exact root-system data, even Weyl subgroups, discrete grids on the even
fundamental domains, orbit-sum evaluation, and the forward/inverse
discrete transforms with their orthogonality coefficients.
"""

from .lie_data import (
    ConfigurationError,
    SemisimpleSystem,
    SimpleFactor,
    SUPPORTED_SELECTORS,
    UsageError,
    assemble_system,
    coweight_gram,
    domain_volume,
    domain_volume as volume,
    exp_phase,
    make_system,
    pairing,
    system_from_selector,
)
from .weyl import (
    FULL_EVEN,
    FULL_WEYL,
    PRODUCT_EVEN,
    GroupElement,
    WeylGroup,
    even_subgroup,
    generate_weyl,
    orbit,
    stab_order,
)
from .grids import (
    GridPoint,
    SpectralPoint,
    build_point_grid,
    build_weight_grid,
    enumerate_dominant,
    in_even_domain,
)
from .efunc import (
    TRUSTED_CLOSED_FORMS,
    UnsupportedFormulaError,
    orbit_sums,
    xi,
    xi_closed,
)
from .transform import (
    CoefficientSet,
    ContinuousCoefficients,
    SampleSet,
    continuous_coefficients,
    forward_discrete,
    gram_residual,
    interpolate,
    inverse_discrete,
    make_samples,
    product_to_sum,
)
from .verify import (
    KNOWN_ERRATA,
    REFERENCE_GROUP_ORDERS,
    REFERENCE_VOLUMES,
    TABLE_IDS,
    errata_report,
    regenerate_table,
)

__version__ = "0.1.0"
