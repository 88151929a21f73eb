"""Named cross-checks: counting formulas against independent recomputation.

Each check takes one (n, q) pair — for tech-lem1 the first argument is
the half-length d — and returns CheckCase records comparing a formula
value with a value obtained by enumeration of paths or partitions, by a
brute-force orbit census, or by a second formula derived along a
different route.  A check passes when every case agrees exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bijections, combinat, counting, oracle
from .errors import UnknownFamily, guard_space
from .gf import field_make
from .linalg import Functional


@dataclass(frozen=True)
class CheckCase:
    check: str
    n: int
    q: int
    quantity: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


def _stream_count(kind: str, *args) -> int:
    if kind == "paths":
        return sum(1 for _ in combinat.enumerate_paths(*args))
    return sum(1 for _ in combinat.enumerate_partitions(*args))


def check_bell_thm(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """Supercharacters are counted by bell, irreducible ones by cat."""
    x = q - 1
    fam = oracle.count_supercharacter_families(n, q, limit=limit)
    bell = counting.poly("bell", n)(x)
    cat = counting.poly("cat", n)(x)
    return [
        CheckCase("bell-thm", n, q, "two-sided orbits", bell, fam.supercharacters),
        CheckCase("bell-thm", n, q, "labeled partitions", bell,
                  _stream_count("partitions", n, q, "all", limit)),
        CheckCase("bell-thm", n, q, "irreducible supercharacters", cat,
                  fam.irreducible_supercharacters),
        CheckCase("bell-thm", n, q, "labeled noncrossing partitions", cat,
                  _stream_count("partitions", n, q, "noncrossing", limit)),
    ]


def check_heis_thm(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """Heisenberg characters: quotient classes = xi census = he = paths."""
    he = counting.poly("he", n)(q - 1)
    quotient = oracle.count_heisenberg_characters(
        n, q, "quotient_classes", limit=limit).count
    xi = oracle.count_heisenberg_characters(n, q, "xi_census", limit=limit).count
    paths = _stream_count("paths", "heis_tilde", n, q, limit)
    return [
        CheckCase("heis-thm", n, q, "conjugacy classes of the quotient", he, quotient),
        CheckCase("heis-thm", n, q, "irreducible coadjoint orbits", he, xi),
        CheckCase("heis-thm", n, q, "labeled paths (no leading UU)", he, paths),
    ]


def check_del_thm(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """Heisenberg supercharacters: orbit census = del = Pell paths."""
    dl = counting.poly("del", n)(q - 1)
    fam = oracle.count_supercharacter_families(n, q, limit=limit)
    paths = _stream_count("paths", "pell", n, q, limit)
    nc_short = sum(1 for p in combinat.enumerate_partitions(n, q, "heis_support", limit)
                   if combinat.is_noncrossing(p))
    return [
        CheckCase("del-thm", n, q, "irreducible orbits killing 1+n^3", dl,
                  fam.heisenberg_supercharacters),
        CheckCase("del-thm", n, q, "labeled Pell paths", dl, paths),
        CheckCase("del-thm", n, q, "noncrossing short-arc partitions", dl, nc_short),
    ]


def check_deg_cor(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """Degree histogram: closed formula = path census = xi census."""
    formula = {}
    for e in range(n):
        v = counting.degree_count(n, e, q=q)
        if v:
            formula[e] = v
    paths = bijections.heis_degree_histogram(n, q, limit)
    xi = oracle.count_heisenberg_characters(n, q, "xi_census", limit=limit).histogram
    return [
        CheckCase("deg-cor", n, q, "path histogram", formula, paths),
        CheckCase("deg-cor", n, q, "xi-census histogram", formula, xi),
    ]


def check_fe_thm(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """C-invariant supercharacters of U_n: fe at n-1 = arc predicate = orbit test."""
    fe = counting.poly("fe", n - 1)(q - 1)
    predicate = sum(1 for p in combinat.enumerate_partitions(n, q, "all", limit)
                    if bijections.is_c_invariant_partition(p))
    orbit_test = oracle.count_c_invariant(n, q, "supercharacters", limit)
    feasible = _stream_count("partitions", n - 1, q, "feasible", limit)
    return [
        CheckCase("fe-thm", n, q, "arc predicate census", fe, predicate),
        CheckCase("fe-thm", n, q, "two-sided translation test", fe, orbit_test),
        CheckCase("fe-thm", n, q, "feasible partitions of [n-1]", fe, feasible),
    ]


def check_c_irr_thm(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """C-invariant irreducible and Heisenberg supercharacters of U_n."""
    x = q - 1
    m = n - 1
    irr_closed = x ** (m // 2) * counting.catalan(m // 2) if m % 2 == 0 else 0
    irr_signed = (1 - q) ** (m // 2) * counting.poly("cat", n)(-1)
    heis_closed = x ** (m // 2) if m % 2 == 0 else 0
    heis_signed = (1 - q) ** (m // 2) * counting.poly("del", n)(-1)
    return [
        CheckCase("c-irr-thm", n, q, "irreducible: signed evaluation",
                  irr_closed, irr_signed),
        CheckCase("c-irr-thm", n, q, "irreducible: orbit test", irr_closed,
                  oracle.count_c_invariant(n, q, "irreducible_supercharacters", limit)),
        CheckCase("c-irr-thm", n, q, "heisenberg: signed evaluation",
                  heis_closed, heis_signed),
        CheckCase("c-irr-thm", n, q, "heisenberg: orbit test", heis_closed,
                  oracle.count_c_invariant(n, q, "heisenberg_supercharacters", limit)),
    ]


def check_c_heis_thm(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """C-invariant Heisenberg characters of U_n, five ways."""
    expected = counting.poly("inv", n - 1)(q - 1)
    compositions = counting.c_invariant_heis_count(n - 1, q, "compositions")
    recurrence = counting.c_invariant_heis_count(n - 1, q, "recurrence")
    coadjoint = oracle.count_c_invariant(n, q, "heisenberg_characters", limit)
    predicate = sum(1 for p in combinat.enumerate_paths("heis_tilde", n, q, limit)
                    if bijections.is_c_invariant_heis_path(p))
    stream = _stream_count("paths", "inv_tilde", n - 1, q, limit)
    return [
        CheckCase("c-heis-thm", n, q, "composition sum", expected, compositions),
        CheckCase("c-heis-thm", n, q, "recurrence", expected, recurrence),
        CheckCase("c-heis-thm", n, q, "coadjoint translation test", expected, coadjoint),
        CheckCase("c-heis-thm", n, q, "block predicate on paths", expected, predicate),
        CheckCase("c-heis-thm", n, q, "labeled paths at index n-1", expected, stream),
    ]


def check_tech_lem1(d: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """Label tuples absorbing the superdiagonal translation: formula vs
    brute force, plus the orbit size q^{2d} on the all-ones tuple."""
    cases = [CheckCase("tech-lem1", d, q, "translation-absorbing tuples",
                       counting.tech_lem_count(d, q),
                       oracle.tech_lem1_bruteforce(d, q, limit))]
    n = 2 * d + 2
    field = field_make(q)
    guard_space(oracle.tech_lem1_orbit_space(d, q), limit)
    lam = Functional.from_dict(n, field,
                               {(i, i + 2): 1 for i in range(1, 2 * d + 1)})
    cases.append(CheckCase("tech-lem1", d, q, "coadjoint orbit size (all-ones)",
                           q ** (2 * d), len(oracle.orbit(lam, "coadjoint", limit))))
    return cases


def check_alt_thm(n: int, q: int, limit: int | None = None) -> list[CheckCase]:
    """Alternating-subgroup censuses match the four alt polynomials and
    the index-q restriction bookkeeping."""
    x = q - 1
    fam = oracle.count_supercharacter_families(n, q, "alternating", limit)
    alt_he = oracle.count_heisenberg_characters(
        n, q, "quotient_classes", "alternating", limit).count
    full = oracle.count_supercharacter_families(n, q, limit=limit)
    c_inv = oracle.count_c_invariant(n, q, "supercharacters", limit)
    return [
        CheckCase("alt-thm", n, q, "supercharacters",
                  counting.poly("alt_bell", n)(x), fam.supercharacters),
        CheckCase("alt-thm", n, q, "irreducible supercharacters",
                  counting.poly("alt_cat", n)(x), fam.irreducible_supercharacters),
        CheckCase("alt-thm", n, q, "heisenberg supercharacters",
                  counting.poly("alt_del", n)(x), fam.heisenberg_supercharacters),
        CheckCase("alt-thm", n, q, "heisenberg characters",
                  counting.poly("alt_he", n)(x), alt_he),
        CheckCase("alt-thm", n, q, "restriction bookkeeping",
                  fam.supercharacters,
                  c_inv + (full.supercharacters - c_inv) // q),
    ]


CHECKS = {
    "bell-thm": check_bell_thm,
    "heis-thm": check_heis_thm,
    "del-thm": check_del_thm,
    "deg-cor": check_deg_cor,
    "fe-thm": check_fe_thm,
    "c-irr-thm": check_c_irr_thm,
    "c-heis-thm": check_c_heis_thm,
    "tech-lem1": check_tech_lem1,
    "alt-thm": check_alt_thm,
}

# default sweeps keep each check at desk scale (seconds, not minutes);
# tech-lem1 sweeps (d, q) rather than (n, q)
DEFAULT_SWEEPS = {
    "bell-thm": ((3, 4), (2, 3)),
    "heis-thm": ((3, 4, 5), (2, 3)),
    "del-thm": ((3, 4), (2, 3)),
    "deg-cor": ((4, 5), (2, 3)),
    "fe-thm": ((4, 5), (2, 3)),
    "c-irr-thm": ((4, 5), (2, 3)),
    "c-heis-thm": ((4, 5), (2, 3)),
    "tech-lem1": ((1, 2), (2, 3)),
    "alt-thm": ((3, 4), (2, 3)),
}


# domain of each check: the least n (d for tech-lem1) its statement covers
MIN_INDEX = {"bell-thm": 1, "heis-thm": 1, "del-thm": 1, "deg-cor": 2,
             "fe-thm": 1, "c-irr-thm": 1, "c-heis-thm": 2, "tech-lem1": 1,
             "alt-thm": 2}


# The closed-form spaces that one (n, q) case of each check guards, as
# (space function, its arguments...) in the order the check meets them, so
# that each is sized only once those before it fit.  The lower bound that
# enumerate_partitions guards first matters only where no census precedes
# it: a census of u_n* is never smaller than the partitions of [n].
CHECK_SPACES = {
    "bell-thm": lambda n, q: ((oracle.census_space, "full", n, q),
                              (combinat.partition_space, n, q)),
    "heis-thm": lambda n, q: ((oracle.conjugacy_space, "truncated", n, q),
                              (oracle.xi_space, n, q),
                              (combinat.path_space, "heis_tilde", n, q)),
    "del-thm": lambda n, q: ((oracle.census_space, "full", n, q),
                             (combinat.path_space, "pell", n, q),
                             (combinat.partition_space, n, q)),
    "deg-cor": lambda n, q: ((combinat.path_space, "heis_tilde", n, q),
                             (oracle.xi_space, n, q)),
    "fe-thm": lambda n, q: ((combinat.partition_floor_space, n, q),
                            (combinat.partition_space, n, q),
                            (oracle.census_space, "full", n, q),
                            (combinat.partition_space, n - 1, q)),
    "c-irr-thm": lambda n, q: ((oracle.census_space, "full", n, q),),
    "c-heis-thm": lambda n, q: ((counting.compositions_space, n - 1),
                                (oracle.xi_space, n, q),
                                (combinat.path_space, "heis_tilde", n, q),
                                (combinat.path_space, "inv_tilde", n - 1, q)),
    "tech-lem1": lambda d, q: ((oracle.tech_lem1_space, d, q),
                              (oracle.tangent_space, 2 * d + 2, q),
                              (oracle.tech_lem1_orbit_space, d, q)),
    "alt-thm": lambda n, q: ((oracle.census_space, "alternating", n, q),
                             (oracle.conjugacy_space, "truncated_alternating", n, q),
                             (oracle.census_space, "full", n, q)),
}


def run_check(name: str, ns=None, qs=None, limit: int | None = None) -> list[CheckCase]:
    """All cases of one named check over the (n, q) sweep (defaults per
    check); cases are ordered by (n, q) in input order.  The whole sweep
    is validated first, before any census runs: an index below the
    check's domain raises ValueError, a field order that is not a prime
    power up to 256 the field's error, and a space past the size guard
    SpaceTooLarge, the first one in sweep order."""
    if name not in CHECKS:
        raise UnknownFamily(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    default_ns, default_qs = DEFAULT_SWEEPS[name]
    ns, qs = ns or default_ns, qs or default_qs
    for n in ns:
        if n < MIN_INDEX[name]:
            index = "d" if name == "tech-lem1" else "n"
            raise ValueError(f"{name} is defined for {index} >= {MIN_INDEX[name]}, "
                             f"got {index} = {n}")
    for q in qs:
        field_make(q)
    for n in ns:
        for q in qs:
            for space, *args in CHECK_SPACES[name](n, q):
                guard_space(space(*args), limit)
    cases = []
    for n in ns:
        for q in qs:
            cases.extend(CHECKS[name](n, q, limit))
    return cases
