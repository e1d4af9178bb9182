"""Exact computer algebra for bisymmetric Macdonald polynomials.

The package constructs non-symmetric Macdonald polynomials by the
Knop-Sahi recursion, checks each exactly as a joint eigenfunction of
the Cherednik operators, builds the bisymmetric polynomials by
interval (anti)symmetrization, evaluates them at the staircase
specialization points in closed form, and expands products with
elementary symmetric polynomials through vertical-strip Pieri rules
with explicit coefficients.  Everything is exact over Q(q,t).
"""

from .errors import ConsistencyError, DegenerateEvaluationError, DivisibilityError
from .qt import QTPoly, QTScalar, qt_monomial, t_bracket_factorial
from .xpoly import (XPolynomial, divided_difference, elementary_symmetric,
                    exact_div, permute_vars, specialize)
from .sparts import (StripCertificate, SuperPartition, enumerate_strips,
                     eval_point, eigenvalue, format_spart, hook_data,
                     lambda_naught, minimal_sorting_permutation, parse_spart,
                     row_of_circle, superpartitions)
from .hecke import (apply_T, apply_T_inv, apply_Y, apply_e_of_Y, apply_omega,
                    symmetrize)
from .macdonald import (EBasisElement, PBasisElement, bisym_P,
                        c_lambda_corrected, c_lambda_formula,
                        expand_in_P_basis, nonsym_E)
from .evalsym import eval_formula, evaluate, symmetry_check
from .pieri import (PieriTerm, SigmaSets, coeff_C, coeff_D, op_identity_check,
                    pieri_bruteforce, pieri_expand)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
