"""Exact canonical bases of integrable highest weight modules attached to
symmetric Cartan data given by loop-free quivers."""

from .qarith import (LaurentPoly, sym_truncate, qint, qfact, qbinom,
                     ExactDivisionError)
from .cartan import (Quiver, HighestWeight, QuiverError, parse_quiver_dict,
                     load_quiver, coroot_pairing, height, weight_leq)
from .uminus import (UMinusElement, mono_mul, restriction_coproduct, rbar,
                     ibar, serre_element, word_str)
from .hwmodule import (WeightSpaceModel, HighestWeightModule, ResourceCapError,
                       InternalCheckError)
from .canonical import (CBElement, CanonicalBasis, verify_bar_invariant,
                        OrthogonalizationError, CompletionError)
from .crystalgraph import (LeftGraph, t_stat, pi_arrow, build_left_graph,
                           sbar, monomial_basis, GraphError)

__version__ = "0.1.0"
