"""kvlie: an exact-arithmetic free Lie algebra engine for the first
Kashiwara-Vergne equation.

Noncommutative polynomials over the rationals, the Dynkin and Eulerian
idempotents, the Baker-Campbell-Hausdorff series, the explicit particular
solution of the first Kashiwara-Vergne equation, and the parameterisation of
all its solutions by the kernel of the Dynkin idempotent -- every identity
checkable degree by degree in exact arithmetic.

Each object has one production construction: the BCH series is the Eulerian
idempotent on power words (``bch_eulerian``), the Dynkin idempotent is the
right-nested bracketing r on whole components (``dynkin``), and Lie
membership is its fixed point r(p) = n p in degree n, which raises
``NotLieElementError`` when it fails.  A ``GradedSeries`` stores each
component as integers over all words of its letters, the form every kernel
computes in; ``NCPoly``, the word dict, is built where a component is read.
``bch_oracle`` (log of a product of exponentials) is exported because
``kvlie bch`` prints it.  The independent constructions that the tests play
against production live in :mod:`kvlie.oracles` and its support modules
(``permutations``, ``linalg``, ``lyndon``), which this package does not import.
"""

from .algebra import (
    XY,
    Alphabet,
    NCPoly,
    PolyParseError,
    bracket,
    concat,
    default_alphabet,
    letter_part,
    parse_poly,
    substitute,
    to_json_terms,
    to_latex,
    to_text,
)
from .idempotents import (
    NotLieElementError,
    bch_component,
    dynkin,
    kernel_generator,
    patras_reutenauer_generator,
    psi,
)
from .kv import (
    KvSolutionPair,
    antisymmetric_kernel_element,
    bch_eulerian,
    bch_oracle,
    f0,
    g0,
    general_solution,
    homogeneous_solution,
    multilinear_f0,
    multilinear_particular_solution,
    particular_solution,
    phi_split,
    symmetrize,
    verify_homogeneous,
    verify_kv1,
    verify_multilinear,
    verify_split,
)
from .scalars import bernoulli, moebius, witt_dimension
from .series import GradedSeries, series_exp, series_log

__version__ = "0.1.0"
