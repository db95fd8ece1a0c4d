"""Brauer groups of mu_r-gerbes on tame stacky curves.

The pipeline reduces everything to finite group cohomology, with values
read off small free resolutions and classes off normalized bar
resolutions, in exact sparse integer linear algebra:

* abelian:    echelon and diagonal forms, abelian groups, subquotients of Z^n
* groups:     multiplication tables, 2-cocycles, central extensions
* cohomology: H^n(G, Z), H^n(G, Z/m), H^n(G, kx); inflation/restriction;
              Bockstein; integral homology off small free resolutions
* fibers:     per-stabilizer root-gerbe and exactness diagnostics
* curves:     the stacky-curve data model and the Brauer report
* oracle:     independent recomputation paths used by the test suite
* cli:        the stacky-brauer command
"""

from importlib import import_module as _import_module

from .abelian import (
    AbGroupMap,
    FinAbGroup,
    IntegerMatrix,
    Subquotient,
    cokernel,
    cokernel_of_map,
    homology_at,
    hom_to_cyclic,
    induced_map,
    is_injective,
    is_split_injection,
    is_surjective,
    kernel_basis,
    set_resource_cap,
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
    inflation_map,
    mod_coefficients,
    restriction_map,
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
from .groups import (
    CentralExtension,
    Cocycle2,
    FiniteGroup,
    GroupHom,
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
    split_extension,
    trivial_group,
)

__version__ = "0.1.0"

# curves and fibers are imported on first use of one of their names or of
# the module itself (PEP 562), so a process that only computes cohomology
# never loads them.
_LAZY = {
    "BrauerReport": "curves",
    "CurveSpec": "curves",
    "StabilizerPoint": "curves",
    "brauer_report": "curves",
    "h1_coarse_zr": "curves",
    "h1_stack_zr": "curves",
    "left_kernel": "curves",
    "local_gerbe_classification": "curves",
    "nonvanishing_h2_examples": "curves",
    "orbifold_abelianization": "curves",
    "stacky_units_cohomology": "curves",
    "FiberDiagnostics": "fibers",
    "analyze_fiber": "fibers",
    "fiber_is_root_gerbe": "fibers",
    "fiber_is_root_gerbe_via_inflation": "fibers",
    "h2_section_exists": "fibers",
    "h3_inflation_injective": "fibers",
}

# A star import reads every name through __getattr__, so it binds the lazy
# names as well as the ones imported above.
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | {"curves", "fibers"})


def __getattr__(name):
    module = name if name in ("curves", "fibers") else _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
