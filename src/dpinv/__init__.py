"""Divided-power algebras of free rings and invariants of generic matrices.

Exact, characteristic-free symbolic computation: the tau ring structure on
divided powers, the pairing with conjugation invariants of tuples of
generic matrices, degree-bounded verification of the structural theorems
(graded isomorphism, plethysm, Cayley-Hamilton, level-projection kernels),
and the universal matrix-embedding ring of a presented ring.
"""

from .backend import backend_name
from .exactla import ExactMatrix, in_span
from .freering import (Alphabet, FreePoly, ParseError, Word,
                       cyclic_normal_form, enumerate_lyndon_words,
                       enumerate_words, parse_freepoly, word_from_str)
from .gamma import (ContextError, DPMonomial, GammaElement, dp_expand,
                    enumerate_dp_monomials, format_gamma, parse_gamma, rho_n,
                    sigma_n, tau)
from .invariants import (CommPoly, MatrixInvariants, MatrixPoly, PolyRing,
                         charpoly_coeffs, det_cofactor)
from .symfunc import (Partition, SymPoly, m_to_e, partitions, plethysm_e_p,
                      rho_a_substitute)
from .theorems import (VerifyEntry, abelianized_piece, verify_cayley_hamilton,
                       verify_thm_2_2_2, verify_zubkov_kernel)
from .universal import (Presentation, build_An, ideal_membership,
                        ideal_piece, load_presentation)

__version__ = "0.1.0"
