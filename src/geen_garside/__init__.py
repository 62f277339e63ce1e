"""
Interval Garside structures on the complex reflection groups G(e,e,n).

The package computes, entirely in exact integer arithmetic: minimal words
and the length function over the generating reflections, the divisibility
intervals below the powers of the diagonal element lambda together with
their lattice structure, the interval Garside monoids with greedy normal
forms (solving the word problem in their groups of fractions), monoid
presentations with the gcd(e,k) = 1 isomorphism criterion, and first and
second integral homology through the finite free resolution of the monoid.
"""

__version__ = "0.1.0"

from .core import (
    CapExceededError,
    Generator,
    GroupElement,
    GroupParams,
    ParameterMismatchError,
    atoms,
    enumerate_group,
    evaluate_word,
    format_word,
    generator_matrix,
    identity,
    inverse,
    lambda_power,
    left_quotient,
    multiply,
    parse_word,
    transpose,
)
from .words import (
    BlockDecomposition,
    all_reduced_expressions,
    cayley_length_table,
    length,
    length_decreases,
    maximal_length_elements,
    reduced_expression,
    reduced_expression_blockwise,
)
from .interval import (
    Interval,
    LatticeReport,
    LatticeViolation,
    LatticeViolationError,
    TheoremViolationError,
    atom_lcm_table,
    balanced_max_length,
    build_interval,
    bullet_rows,
    cached_interval,
    in_interval,
    is_balanced,
    left_divides,
    right_divides,
    verify_lattice,
)
from .garside import (
    GarsideStructure,
    NormalForm,
    Presentation,
    build_garside,
    cached_garside,
    embedding_lcm_check,
    emit_presentation,
    is_isomorphic_to_CP,
    matsumoto_check,
    t_cycle_components,
)
from .snf import AbelianGroup, smith_normal_form
from .homology import (
    chain_condition_holds,
    differential_closed_form,
    differential_generic,
    differentials,
    enumerate_cells,
    homology_group,
    predicted_h2,
)
