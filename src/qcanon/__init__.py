"""Exact canonical bases of integrable highest weight modules attached to
symmetric Cartan data given by loop-free quivers.

The public names below are resolved on first use (PEP 562), so importing
the package, or one of its modules, loads only the layers it needs."""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("LaurentPoly", "sym_truncate", "qint", "qfact", "qbinom",
                     "ExactDivisionError"), "qarith"),
    **dict.fromkeys(("Quiver", "HighestWeight", "QuiverError", "parse_quiver_dict",
                     "load_quiver", "coroot_pairing", "height", "weight_leq"),
                    "cartan"),
    **dict.fromkeys(("UMinusElement", "mono_mul", "word_str"), "uminus"),
    **dict.fromkeys(("restriction_coproduct", "rbar", "ibar", "serre_element"),
                    "coproduct"),
    **dict.fromkeys(("WeightSpaceModel", "HighestWeightModule", "ResourceCapError",
                     "InternalCheckError"), "hwmodule"),
    **dict.fromkeys(("CBElement", "CanonicalBasis", "verify_bar_invariant",
                     "OrthogonalizationError", "CompletionError"), "canonical"),
    **dict.fromkeys(("LeftGraph", "pi_arrow", "build_left_graph", "sbar",
                     "monomial_basis", "GraphError"), "crystalgraph"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    modname = _EXPORTS.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{modname}", __name__), name)
