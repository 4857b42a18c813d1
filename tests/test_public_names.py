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
    "complementary_observable",
    "distinguishability",
    "entangled_visibility",
    "estimate_a",
    "estimate_b",
    "family_duality",
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
    "run_suite",
    "run_suites",
    "sample_fringe",
    "sample_sharp",
    "sample_simultaneous",
    "simultaneous_product",
    "trace_norm",
    "visibility",
    "visibility_oracle",
]


def test_public_names_are_pinned():
    assert sorted(qudual.__all__) == PUBLIC_NAMES



def stacked_twins(names) -> list[str]:
    """The names of ``names`` that end in ``_arrays`` or ``_matrices``: a second public path to a closed form.

    Every closed form takes one value or a stack through one public function, so a raw-parameter or raw-matrix twin
    of it has no place in the package namespace.
    """
    return sorted(name for name in names if name.endswith(("_arrays", "_matrices")))


def test_the_scan_sees_a_stacked_twin():
    names = ["robertson", "robertson_arrays", "complementary_matrices", "arrays_of", "matrices"]
    assert stacked_twins(names) == ["complementary_matrices", "robertson_arrays"]


def test_no_public_name_is_a_stacked_twin():
    assert stacked_twins(qudual.__all__) == []
