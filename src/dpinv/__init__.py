"""Divided-power algebras of free rings and invariants of generic matrices.

Exact, characteristic-free symbolic computation: the tau ring structure on
divided powers, the pairing with conjugation invariants of tuples of
generic matrices, degree-bounded verification of the structural theorems
(graded isomorphism, plethysm, Cayley-Hamilton, level-projection kernels),
and the universal matrix-embedding ring of a presented ring.
"""

from .backend import backend_name
from .exactla import ExactMatrix, in_span
from .freering import (Alphabet, FreePoly, Necklace, ParseError, Word,
                       cyclic_normal_form, enumerate_necklaces,
                       enumerate_words, parse_freepoly, primitive_decompose,
                       word_from_str, words_of_multidegree)
from .gamma import (ContextError, DPMonomial, GammaElement, NormedTensor,
                    chi_formal, dp_expand, dp_mul, dp_product,
                    enumerate_dp_monomials, format_gamma, parse_gamma, rho_n,
                    sigma_n, tau, tau_n)
from .invariants import (CommPoly, MatrixInvariants, MatrixPoly, PolyRing,
                         charpoly_coeffs, det_cofactor)
from .symfunc import (Partition, SymPoly, c_alpha, m_to_e, partitions,
                      plethysm_e_p, rho_a_substitute)
from .theorems import (VerifyEntry, abelianized_piece,
                       reduce_to_single_generators, verify_cayley_hamilton,
                       verify_plethysm, verify_tau_axioms, verify_thm_2_2_2,
                       verify_zubkov_kernel)
from .universal import (Presentation, build_An, ideal_membership,
                        ideal_piece, jnr_image, load_presentation)

__version__ = "0.1.0"
