"""Two-prime generalized cyclotomic binary sequences of order two.

Construction of S(a, b, c) with period n = p*q, exact periodic
autocorrelation (empirical and closed form), symbolic verification of the
group-ring product identities behind the correlation theorem, and exact
2-adic complexity via folded p- and q-bit gcds.

The names below are the ones the demos and the README use; every other
public name is imported from its submodule.
"""

from .sequence import SequenceParams, bitstring, generate, to_json, unit_character
from .autocorr import distribution, nontrivial_bound, verify_theorem1
from .groupring import (dump, gamma_p, gamma_q, gauss_gp, gauss_gq, mul,
                        verify_correlation_identity, verify_lemma1)
from .adic import (best_value_predicate, bits_to_int, complexity_report, d_exact,
                   dp_closed, dq_closed, mersenne, s2)

__version__ = "0.1.0"

__all__ = [
    "SequenceParams", "bitstring", "generate", "to_json", "unit_character",
    "distribution", "nontrivial_bound", "verify_theorem1",
    "dump", "gamma_p", "gamma_q", "gauss_gp", "gauss_gq", "mul",
    "verify_correlation_identity", "verify_lemma1",
    "best_value_predicate", "bits_to_int", "complexity_report", "d_exact",
    "dp_closed", "dq_closed", "mersenne", "s2",
    "__version__",
]
