"""Brauer groups of mu_r-gerbes on tame stacky curves.

The pipeline reduces everything to finite group cohomology, with values
read off small free resolutions and classes off normalized bar
resolutions, in exact sparse integer linear algebra:

* abelian:    echelon and diagonal forms, abelian groups, subquotients of Z^n
* abelian_maps: cokernels, homology with a free part or a modulus, maps of
              abelian groups and the maps induced on subquotients
* groups:     multiplication tables and homomorphisms
* extensions: 2-cocycles, central extensions, sections of surjections
* cohomology: H^n(G, Z), H^n(G, Z/m), H^n(G, kx) and integral homology
              off small free resolutions
* cohomology_maps: bar-complex classes, inflation/restriction, comparison
              maps, Bocksteins, extension classes
* fibers:     per-stabilizer root-gerbe and exactness diagnostics
* curves:     the stacky-curve data model and the Brauer report
* oracle:     independent recomputation paths used by the test suite
* documents:  the brauer command's input documents and machine report
* cli:        the stacky-brauer command
"""

from importlib import import_module as _import_module

from .abelian import (
    FinAbGroup,
    IntegerMatrix,
    Subquotient,
    set_resource_cap,
)
# cohomology is imported here, before anything can import it lazily: the
# import of a submodule binds its name on the package, and the function
# bound below must be what stacky_brauer.cohomology names.
from .cohomology import (
    INTEGERS,
    UNITS,
    CohomologyClass,
    CohomologyGroup,
    cohomology,
    cohomology_Z,
    cohomology_Zm,
    cohomology_units,
    mod_coefficients,
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
    FiniteGroup,
    GroupHom,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
    trivial_group,
)

__version__ = "0.1.0"

# These modules are imported on first use of one of their names (PEP 562),
# curves and fibers also on first use of the module itself, so a process
# that only computes cohomology values never loads them.
_LAZY = {
    "AbGroupMap": "abelian_maps",
    "cokernel": "abelian_maps",
    "cokernel_of_map": "abelian_maps",
    "hom_to_cyclic": "abelian_maps",
    "homology_at": "abelian_maps",
    "induced_map": "abelian_maps",
    "is_injective": "abelian_maps",
    "is_split_injection": "abelian_maps",
    "is_surjective": "abelian_maps",
    "kernel_basis": "abelian_maps",
    "bar_differential": "cohomology_maps",
    "bockstein_r": "cohomology_maps",
    "enumerate_extension_classes": "cohomology_maps",
    "inflation_map": "cohomology_maps",
    "restriction_map": "cohomology_maps",
    "CentralExtension": "extensions",
    "Cocycle2": "extensions",
    "central_extension": "extensions",
    "split_extension": "extensions",
    "BrauerReport": "curves",
    "CurveSpec": "curves",
    "StabilizerPoint": "curves",
    "brauer_report": "curves",
    "h1_coarse_zr": "curves",
    "h1_stack_zr": "curves",
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
