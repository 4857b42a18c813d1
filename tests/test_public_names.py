"""The public names of ``qudual``, pinned one row each.

A name added to or dropped from a module's ``__all__`` must add or drop its
row here, so the diff of a change lists every public name it touches.
"""

import qudual

PUBLIC_NAMES = [
    "ContractViolationError",
    "DensityMatrix",
    "EntangledState",
    "GAUGE",
    "IS_FAMILIES",
    "IntelligentState",
    "Observable",
    "ParameterError",
    "QudualError",
    "REFERENCE",
    "RobertsonReport",
    "SUITE_NAMES",
    "SampleReport",
    "SingularConfigurationError",
    "SuiteResult",
    "__version__",
    "assert_hermitian",
    "assert_unitary",
    "complementary_matrices",
    "complementary_observable",
    "density_params",
    "distinguishability",
    "duality_arrays",
    "entangled_arrays",
    "entangled_visibility",
    "estimate_a",
    "estimate_b",
    "family_arrays",
    "fringe_probability",
    "intelligent_state",
    "is_residual",
    "mean_var",
    "meter_projectors",
    "normalized_product_bounds",
    "optimal_entanglement",
    "predictability",
    "pure_state",
    "render_report",
    "robertson",
    "robertson_arrays",
    "run_suite",
    "run_suites",
    "sample_fringe",
    "sample_sharp",
    "sample_simultaneous",
    "simultaneous_product",
    "trace_norm",
    "validate_density",
    "visibility",
    "visibility_oracle",
]


def test_public_names_are_pinned():
    assert sorted(qudual.__all__) == PUBLIC_NAMES

