"""Weierstrass semigroups, Feng-Rao distances and one-point AG code
parameters from singular plane models with one branch at infinity."""

from .branch import (BranchParam, Valuation, parametrize, valuation,
                     valuation_by_resultant)
from .codes import (CodeSpec, EvaluationSet, bidim_syndrome, build_code,
                    distance_bound_table, enumerate_points, in_code,
                    known_syndromes, min_distance_exact)
from .curves import (AMSequence, CriterionVerdict, PlaneModel, am_sequence,
                     analyze, approximate_root, normalize_degree,
                     one_branch_criterion, semigroup_at_infinity)
from .errors import (HypothesisError, InconsistencyError, InputError,
                     PreconditionError, WeiersemError)
from .fields import FieldElement, FiniteField, default_modulus
from .parsing import parse_field, parse_generators, parse_poly, parse_rational
from .polynomials import NEG_INF, BiPoly, UniPoly, resultant_y
from .semigroups import NumericalSemigroup, Q0Result, TelescopicStructure
from .weierstrass import (FunctionTable, TriangulationReport, ValuedFunction,
                          l_basis, reduce_step, triangulate)

__version__ = "0.1.0"

__all__ = [
    "AMSequence", "BiPoly", "BranchParam", "CodeSpec", "CriterionVerdict",
    "EvaluationSet", "FieldElement", "FiniteField", "FunctionTable",
    "HypothesisError", "InconsistencyError", "InputError", "NEG_INF",
    "NumericalSemigroup", "PlaneModel", "PreconditionError", "Q0Result",
    "TelescopicStructure", "TriangulationReport",
    "UniPoly", "Valuation", "ValuedFunction", "WeiersemError",
    "am_sequence", "analyze", "approximate_root", "bidim_syndrome",
    "build_code", "default_modulus", "distance_bound_table",
    "enumerate_points", "in_code", "known_syndromes", "l_basis",
    "min_distance_exact", "normalize_degree",
    "one_branch_criterion", "parametrize", "parse_field", "parse_generators",
    "parse_poly", "parse_rational", "reduce_step", "resultant_y",
    "semigroup_at_infinity", "triangulate", "valuation",
    "valuation_by_resultant",
]
