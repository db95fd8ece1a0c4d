"""Brauer groups of mu_r-gerbes on tame stacky curves.

The pipeline reduces everything to finite group cohomology, with values
read off small free resolutions and classes off normalized bar
resolutions, in exact sparse integer linear algebra:

* abelian:    Smith normal form, abelian groups, subquotients of Z^n
* groups:     multiplication tables, 2-cocycles, central extensions
* cohomology: H^n(G, Z), H^n(G, Z/m), H^n(G, kx); inflation/restriction;
              Bockstein; integral homology off small free resolutions
* fibers:     per-stabilizer root-gerbe and exactness diagnostics
* curves:     the stacky-curve data model and the Brauer report
* oracle:     independent recomputation paths used by the test suite
* cli:        the stacky-brauer command
"""

from .abelian import (
    AbGroupMap,
    FinAbGroup,
    IntegerMatrix,
    Subquotient,
    cokernel,
    cokernel_of_map,
    homology_at,
    hom_to_cyclic,
    image_group,
    induced_map,
    is_injective,
    is_split_injection,
    is_surjective,
    kernel_basis,
    kernel_group,
    set_resource_cap,
    smith_normal_form,
)
from .cohomology import (
    INTEGERS,
    UNITS,
    CohomologyClass,
    CohomologyGroup,
    bar_differential,
    bockstein,
    bockstein_r,
    cohomology,
    cohomology_Z,
    cohomology_Zm,
    cohomology_units,
    enumerate_extension_classes,
    homology_Z,
    inflation_map,
    mod_coefficients,
    restriction_map,
)
from .curves import (
    BrauerReport,
    CurveSpec,
    StabilizerPoint,
    brauer_report,
    h1_coarse_zr,
    h1_stack_zr,
    left_kernel,
    local_gerbe_classification,
    nonvanishing_h2_examples,
    orbifold_abelianization,
    stacky_units_cohomology,
)
from .errors import (
    ChainCompositionError,
    InputFormatError,
    InvariantViolationError,
    MissingDataError,
    NotChainCompatibleError,
    ResourceCapError,
    StackyBrauerError,
    TamenessError,
    ValidationError,
)
from .fibers import (
    FiberDiagnostics,
    analyze_fiber,
    fiber_is_root_gerbe,
    fiber_is_root_gerbe_via_inflation,
    h2_section_exists,
    h3_inflation_injective,
)
from .groups import (
    CentralExtension,
    Cocycle2,
    FiniteGroup,
    GroupHom,
    are_isomorphic,
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
    split_extension,
    trivial_group,
)

__version__ = "0.1.0"
