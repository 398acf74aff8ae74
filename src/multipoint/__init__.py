"""Exact multiple-point invariants of even-codimension immersions.

Given a finite cohomological model of a generic immersion (source and
target rings, pullback, Gysin pushforward, normal Euler class and total
Pontrjagin classes), this package computes signatures and characteristic
numbers of the k-tuple point manifolds by exact partition-sum formulas,
cross-checked against a brute-force enumeration oracle.

The names below are imported from their submodule on first use, so that
``import multipoint`` (and every CLI command) loads only what it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "formulas": """MultipointResult PreconditionError chern_number genus pontrjagin_number
        transfer_of_unit transfer_to_source transfer_to_target""",
    "graded": """GradedAlgebraError GradedClass GradedRing NonUnitalClassError RingComponent
        TensorClass cross genus_class power_sums signature_class""",
    "model": "ImmersionModel LinearMap ModelError ValidationReport embedding_consistent validate",
    "modelfile": "ModelFormatError load_model model_from_dict model_to_dict save_model",
    "models": "BUNDLED bundled_model truncated_polynomial_ring",
    "oracle": "diagonal_pullback recursion_identity_holds",
    "partitions": "SetPartition all_partitions count_by_type refines type_vectors",
    "random_models": "random_truncated_model",
    "series": """SpecialSeries compose identity_series invert scaled_exp_series
        scaled_log_series""",
    "signatures": """RouteDisagreement multiple_point_dimension signature signature_collected
        signature_via_source signature_via_target virtual_signature_class""",
    "union": "disjoint_union",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
