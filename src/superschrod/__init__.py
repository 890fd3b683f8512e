"""Exact computer algebra for the N=1 and N=2 super Schroedinger algebras
of (1+1)-dimensional spacetime: structure tables and adjoint maps,
lowest-weight (Verma) modules with PBW normal ordering, singular vector
search, factor-module classification, the invariant bilinear form, and
vector-field realizations on polynomial superspace."""

from .scalars import GradedScalar, QI, ScalarRing, parse_rational
from .superalgebra import (AdjointMap, StructureTable, build_adjoint,
                           build_algebra, identity_adjoint,
                           triangular_decompose, verify_adjoint,
                           verify_structure)
from .verma import LowestWeight, ModuleVector, VermaModule
from .singular import (SingularVectorReport, check_recurrences,
                       closed_form_n1, closed_form_n2, closed_form_n2_extra,
                       expected_closed_forms, find_singular, in_span)
from .quotient import (ClassificationRecord, FactorModule, GramMatrix,
                       classify, gram, quotient_by_singular)
from .realization import (SuperDiffOp, SuperPoly, SuperSpace,
                          build_realization, chi_eta_ops, verify_chi_eta,
                          verify_relations)

__version__ = "0.1.0"

__all__ = [
    "AdjointMap", "ClassificationRecord", "FactorModule", "GradedScalar",
    "GramMatrix", "LowestWeight", "ModuleVector", "QI", "ScalarRing",
    "SingularVectorReport", "StructureTable", "SuperDiffOp", "SuperPoly",
    "SuperSpace", "VermaModule", "build_adjoint", "build_algebra",
    "build_realization", "check_recurrences", "chi_eta_ops", "classify",
    "closed_form_n1", "closed_form_n2", "closed_form_n2_extra",
    "expected_closed_forms", "find_singular", "gram", "identity_adjoint",
    "in_span", "parse_rational", "quotient_by_singular",
    "triangular_decompose",
    "verify_adjoint", "verify_chi_eta", "verify_relations",
    "verify_structure",
]
