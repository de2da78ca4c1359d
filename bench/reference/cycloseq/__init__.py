"""Two-prime generalized cyclotomic binary sequences of order two.

Construction of S(a, b, c) with period n = p*q, exact periodic
autocorrelation (empirical and closed form), symbolic verification of the
group-ring product identities behind the correlation theorem, and exact
2-adic complexity via big-integer gcds.
"""

from .numtheory import OddPrimePair, gcd_big, is_odd_prime, is_prime, legendre
from .sequence import (BinarySequence, ResidueClass, SequenceParams, as_json_dict,
                       bitstring, classify, from_bitstring, from_json, generate,
                       sign_view, to_json, unit_character)
from .autocorr import (AutocorrelationFamily, AutocorrelationProfile, Theorem1Check,
                       autocorr_closed_form, autocorr_empirical, class_values,
                       closed_form_profile, distribution, empirical_profile,
                       nontrivial_bound, profile_as_json_dict, verify_theorem1)
from .groupring import (CorrelationIdentityCheck, Decomposition, GroupRingElement,
                        IdentityCheck, Lemma1Report, build_decomposition, dump,
                        element, expanded_product_form, gamma_p, gamma_q,
                        gamma_total, gauss_gp, gauss_gq, invert_support, monomial,
                        mul, one, verify_correlation_identity, verify_lemma1, zero)
from .adic import (AdicComplexityReport, Theorem2Check, best_value_predicate,
                   bits_to_int, complexity_report, d_exact, d_star, dp_closed,
                   dq_closed, mersenne, s2, t2, verify_theorem2)

__version__ = "0.1.0"

__all__ = [
    "OddPrimePair", "gcd_big", "is_odd_prime", "is_prime", "legendre",
    "BinarySequence", "ResidueClass", "SequenceParams", "as_json_dict",
    "bitstring", "classify", "from_bitstring", "from_json", "generate",
    "sign_view", "to_json", "unit_character",
    "AutocorrelationFamily", "AutocorrelationProfile", "Theorem1Check",
    "autocorr_closed_form", "autocorr_empirical", "class_values",
    "closed_form_profile", "distribution", "empirical_profile",
    "nontrivial_bound", "profile_as_json_dict", "verify_theorem1",
    "CorrelationIdentityCheck", "Decomposition", "GroupRingElement",
    "IdentityCheck", "Lemma1Report", "build_decomposition", "dump", "element",
    "expanded_product_form", "gamma_p", "gamma_q", "gamma_total", "gauss_gp",
    "gauss_gq", "invert_support", "monomial", "mul", "one",
    "verify_correlation_identity", "verify_lemma1", "zero",
    "AdicComplexityReport", "Theorem2Check", "best_value_predicate",
    "bits_to_int", "complexity_report", "d_exact", "d_star", "dp_closed",
    "dq_closed", "mersenne", "s2", "t2", "verify_theorem2",
    "__version__",
]
