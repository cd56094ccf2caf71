"""The package's public surface: the same names, each declared once.

Each module lists its public names in its own ``__all__`` and the package
re-exports exactly those, so the package's ``__all__`` is frozen here and
every module's list must lie inside it.
"""

import importlib

import coapprox as ca

PUBLIC = [
    "AntiResult", "BasisMismatch", "BudgetExceeded", "Classification", "CoapproxError",
    "CoapproxResult", "ComponentTable", "DegenerateInput", "DegenerateQuery", "DependentBasis",
    "DimensionOutOfRange", "Discrepancy", "FaceDescriptor", "Feasibility", "InducedBall",
    "JYSet", "L1AntiResult", "LinearSolution", "LinfClassification", "LpProblem", "LpResult",
    "NonEmptyZeroSet", "NormingSet", "PointInSubspace", "PolyhedralSpace", "SpaceTooLarge",
    "StarResult", "StrongResult", "Subspace", "SupportSet", "UnboundedInput", "ZeroVector",
    "bj_orthogonal", "bj_orthogonal_lambda_oracle", "classify", "component_table", "conv_facets",
    "coordinates", "embed", "enumerate_faces", "eps_bj_orthogonal", "eps_coapprox_defect",
    "epsilon_value", "face_census", "fr", "h_to_v", "induced_ball",
    "is_anti_coproximinal", "is_best_coapprox", "is_smooth", "is_strongly_anti_coproximinal",
    "jy_set", "jy_set_via_faces", "l1_best_coapprox", "l1_is_anti_coproximinal", "linf_classify",
    "lp", "lp_solve", "make_custom", "make_l1", "make_linf", "mat", "minimal_norming_set",
    "necessary_condition_check", "norm", "point_in_subspace", "rank", "restrict",
    "smooth_dense_in", "solve_best_coapprox", "solve_linear", "star_property",
    "strict_feasibility", "subspace", "sufficient_condition_strong", "support_set",
    "v_to_h", "vec", "zero_set",
]

MODULES = (
    "classification", "coapproximation", "errors", "l1", "linalg", "linf", "polytope",
    "spaces", "subspaces",
)


def test_the_package_exports_the_frozen_names():
    assert len(PUBLIC) == 79
    assert sorted(ca.__all__) == PUBLIC
    assert len(set(ca.__all__)) == len(ca.__all__)
    for name in PUBLIC:
        assert getattr(ca, name) is not None


def test_each_module_exports_a_part_of_the_package():
    exported = set(ca.__all__)
    for name in MODULES:
        module = importlib.import_module(f"coapprox.{name}")
        assert set(module.__all__) <= exported, name
        for attr in module.__all__:
            assert getattr(ca, attr) is getattr(module, attr)
