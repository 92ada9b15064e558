"""kvlie: an exact-arithmetic free Lie algebra engine for the first
Kashiwara-Vergne equation.

Noncommutative polynomials over the rationals, the Dynkin and Eulerian
idempotents, the Baker-Campbell-Hausdorff series (a power-word
construction and two oracles), the explicit particular solution of the first
Kashiwara-Vergne equation, and the parameterisation of all its solutions by
the kernel of the Dynkin idempotent -- every identity checkable degree by
degree in exact arithmetic.
"""

from .algebra import (
    XY,
    Alphabet,
    NCPoly,
    PolyParseError,
    TensorSquare,
    ad_pow,
    bracket,
    concat,
    coshuffle,
    default_alphabet,
    letter_part,
    parse_poly,
    permute_word,
    substitute,
    to_json_terms,
    to_latex,
    to_text,
)
from .idempotents import (
    dynkin,
    dynkin_kernel_basis,
    dynkin_via_descents,
    eulerian,
    eulerian_power_word,
    eulerian_via_convolution,
    kernel_generator,
    kernel_generator_explicit,
    patras_reutenauer_generator,
    psi,
)
from .kv import (
    BchSeries,
    KvSolutionPair,
    a_series,
    antisymmetric_kernel_element,
    bch_eulerian,
    bch_oracle,
    bch_permutation_oracle,
    f0,
    g0,
    general_solution,
    homogeneous_solution,
    multilinear_bch,
    multilinear_f0,
    multilinear_particular_solution,
    particular_solution,
    phi_split,
    solve_split_linear,
    symmetrize,
    verify_homogeneous,
    verify_kv1,
    verify_multilinear,
    verify_split,
)
from .lyndon import (
    LieCoordinates,
    LyndonWord,
    NotLieElementError,
    from_lie_coordinates,
    is_lie_element,
    is_lyndon,
    lyndon_words,
    standard_bracketing,
    to_lie_coordinates,
    witt_dimension,
)
from .permutations import (
    Permutation,
    compose,
    descent_count,
    descent_set,
    enumerate_descent_class,
    enumerate_sn,
    identity,
    inverse,
    reversal,
)
from .scalars import Rational, bernoulli, binomial, factorial, moebius
from .series import GradedSeries, series_exp, series_log

__version__ = "0.1.0"
