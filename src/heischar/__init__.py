"""Exact counting and classification of Heisenberg characters and
supercharacters of unitriangular groups over finite fields.

The package has three layers:

* exact arithmetic and linear algebra: ``gf`` (finite fields via lookup
  tables) and ``linalg`` (strictly upper triangular matrices, group
  elements, dual-space functionals and the three group actions);
* combinatorial models: ``combinat`` (labeled lattice paths and labeled
  set partitions), ``counting`` (the twelve polynomial families in
  x = q - 1) and ``bijections`` (the path/functional dictionary and the
  invariance predicates);
* verification: ``oracle`` (brute-force orbit and conjugacy censuses
  that recompute every count from group actions alone), ``checks``
  (named cross-checks pairing formulas with oracle values) and ``cli``.

Everything is exact; there is no floating point anywhere.
"""

from .errors import (
    DimensionMismatch,
    NonIntegralDivision,
    NotClassX,
    NotInFamily,
    NotPrimePower,
    SpaceTooLarge,
    TooLarge,
    UnknownFamily,
    ZeroInverse,
    space_limit,
)
from .gf import FieldSpec, field_make
from .linalg import (
    Functional,
    StrictUpperMatrix,
    UnitriangularElement,
    act,
    block_decomposition,
    e_star,
    functional_from_text,
    functional_to_text,
    gamma,
    group_inv,
    group_mul,
    sigma,
)
from .combinat import (
    LabeledLatticePath,
    LabeledSetPartition,
    enumerate_partitions,
    enumerate_paths,
    is_feasible,
    is_noncrossing,
    partition_from_text,
    partition_to_functional,
    partition_to_text,
    path_from_text,
    path_to_text,
    shift,
)
from .counting import (
    IntPolynomial,
    SEQUENCES,
    c_invariant_heis_count,
    closed_form,
    degree_count,
    poly,
    sequence_values,
    series_coeffs,
    tech_lem_count,
)
from .bijections import (
    classify_functional,
    functional_to_path,
    heis_degree_exponent,
    heis_degree_histogram,
    is_c_invariant_heis_path,
    is_c_invariant_partition,
    is_linear_invariant_heis_path,
    path_to_functional,
    pell_path_to_partition,
)
from .oracle import (
    conjugacy_classes,
    count_c_invariant,
    count_heisenberg_characters,
    count_supercharacter_families,
    ls_chain,
    orbit,
    tech_lem1_bruteforce,
    xi_stats,
)
from .checks import CHECKS, CheckCase, run_check

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "CheckCase",
    "DimensionMismatch",
    "FieldSpec",
    "Functional",
    "IntPolynomial",
    "LabeledLatticePath",
    "LabeledSetPartition",
    "NonIntegralDivision",
    "NotClassX",
    "NotInFamily",
    "NotPrimePower",
    "SEQUENCES",
    "SpaceTooLarge",
    "StrictUpperMatrix",
    "TooLarge",
    "UnitriangularElement",
    "UnknownFamily",
    "ZeroInverse",
    "act",
    "block_decomposition",
    "c_invariant_heis_count",
    "classify_functional",
    "closed_form",
    "conjugacy_classes",
    "count_c_invariant",
    "count_heisenberg_characters",
    "count_supercharacter_families",
    "degree_count",
    "e_star",
    "enumerate_partitions",
    "enumerate_paths",
    "field_make",
    "functional_from_text",
    "functional_to_path",
    "functional_to_text",
    "gamma",
    "group_inv",
    "group_mul",
    "heis_degree_exponent",
    "heis_degree_histogram",
    "is_c_invariant_heis_path",
    "is_c_invariant_partition",
    "is_linear_invariant_heis_path",
    "is_feasible",
    "is_noncrossing",
    "ls_chain",
    "orbit",
    "partition_from_text",
    "partition_to_functional",
    "partition_to_text",
    "path_from_text",
    "path_to_functional",
    "path_to_text",
    "pell_path_to_partition",
    "poly",
    "run_check",
    "sequence_values",
    "series_coeffs",
    "shift",
    "sigma",
    "space_limit",
    "tech_lem1_bruteforce",
    "tech_lem_count",
    "xi_stats",
]
