"""cobarlab: exact homological invariants of conilpotent coalgebras.

Cobar-complex Ext tables, minimal cofree coresolutions, dual-algebra Ext and
mechanically checked comparison theorems, all in exact arithmetic over the
rationals or GF(p).

Every name in ``__all__`` is importable from the package, but importing the
package loads no submodule: each name is resolved on first access (PEP 562)
through the one table ``_EXPORTS``, so that each command line subcommand
compiles and runs only the modules of its own pipeline.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    "Coalgebra": "coalg",
    "Comodule": "coalg",
    "GradedCoalgebra": "coalg",
    "ValidationReport": "coalg",
    "cofree_comodule": "coalg",
    "extension_comodule": "coalg",
    "flatten": "coalg",
    "opposite": "coalg",
    "regular_comodule": "coalg",
    "symmetric_coalgebra": "coalg",
    "tensor_coalgebra": "coalg",
    "trivial_comodule": "coalg",
    "validate": "coalg",
    "validate_comodule": "coalg",
    "validate_graded": "coalg",
    "CobarClass": "cobar",
    "CobarComplex": "cobar",
    "build_cobar": "cobar",
    "class_coordinates": "cobar",
    "cobar_with_coefficients": "cobar",
    "cohomology_basis": "cobar",
    "ext_algebra_table": "cobar",
    "ext_product": "cobar",
    "ext_table": "cobar",
    "Algebra": "dualalg",
    "ComparisonReport": "dualalg",
    "GradedAlgebra": "dualalg",
    "ModulePresentation": "dualalg",
    "bar_ext_table": "dualalg",
    "compare_theorem1": "dualalg",
    "comodule_to_module": "dualalg",
    "dual_algebra": "dualalg",
    "ext_via_initially_projective": "dualalg",
    "graded_dual": "dualalg",
    "is_projective": "dualalg",
    "minimal_free_resolution": "dualalg",
    "module_ext": "dualalg",
    "module_to_comodule": "dualalg",
    "opposite_algebra": "dualalg",
    "quadratic_algebra": "dualalg",
    "validate_algebra": "dualalg",
    "verify_module_axioms": "dualalg",
    "GF": "exactlin",
    "QQ": "exactlin",
    "Field": "exactlin",
    "Matrix": "exactlin",
    "ExtTable": "exttable",
    "SchemaError": "presentation",
    "dumps_presentation": "presentation",
    "loads_presentation": "presentation",
    "parse_presentation": "presentation",
    "presentation_of": "presentation",
    "MinimalCoresolution": "resolve",
    "betti_dims": "resolve",
    "dualize_to_contramodule_resolution": "resolve",
    "minimal_coresolution": "resolve",
    "verify_contramodule_resolution": "resolve",
    "verify_coresolution": "resolve",
    "build_contra_witness": "witness",
    "build_nonrational_module": "witness",
    "contra_report": "witness",
    "eventual_value": "witness",
    "from_vector": "witness",
    "is_rational": "witness",
    "max_rational_submodule": "witness",
    "nonrational_report": "witness",
    "verify_contra_witness": "witness",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("cobarlab." + module), name)
    globals()[name] = value  # later lookups skip this hook
    return value
