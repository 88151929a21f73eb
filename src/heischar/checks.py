"""Named cross-checks: counting formulas against independent recomputation.

Each check is one CHECKS entry: a routes builder, a default sweep and the
least index its statement covers.  The builder takes one (n, q) pair (for
tech-lem1 the first index is the half-length d) and a size limit, and
returns one route per case without computing anything: the quantity, a
thunk for the expected value (a formula, or a census), a thunk for the
value computed along an independent route (enumeration of paths or
partitions, a brute-force orbit census, or a second formula), and the
closed-form spaces that computing both sides meets, in the order it meets
them.  Each space is named once, beside the thunk it guards.  A check
passes when every case agrees exactly.
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


@dataclass(frozen=True)
class Check:
    """A CHECKS entry: routes(n, q, limit) gives the cases' routes as
    (quantity, expected thunk, computed thunk, spaces), sweep the default
    (ns, qs) and least the least index the statement covers."""

    routes: object
    sweep: tuple
    least: int


def _side(thunk, *spaces):
    """One side of a route: a thunk and the spaces, as (space function, its
    arguments...), that calling it meets, in order."""
    return thunk, spaces


def _poly(family: str, n: int, q: int):
    return _side(lambda: counting.poly(family, n)(q - 1))


def _count(items, keep) -> int:
    return sum(1 for item in items if keep is None or keep(item))


def _paths(family: str, n: int, q: int, limit, keep=None):
    return _side(lambda: _count(combinat.enumerate_paths(family, n, q, limit), keep),
                 (combinat.path_space, family, n, q))


def _partitions(n: int, q: int, filter: str, limit, keep=None):
    # the stream guards the floor q^(n-1) before it counts the partitions
    return _side(lambda: _count(combinat.enumerate_partitions(n, q, filter, limit), keep),
                 (combinat.partition_floor_space, n, q), (combinat.partition_space, n, q))


def _families(n: int, q: int, attr: str, group: str, limit):
    return _side(lambda: getattr(oracle.count_supercharacter_families(n, q, group, limit), attr),
                 (oracle.census_space, group, n, q))


def _characters(n: int, q: int, method: str, limit, attr="count", group="full"):
    classes = "truncated" if group == "full" else "truncated_alternating"
    space = ((oracle.xi_space, n, q) if method == "xi_census" else
             (oracle.conjugacy_space, classes, n, q))
    return _side(lambda: getattr(oracle.count_heisenberg_characters(n, q, method, group, limit),
                                 attr), space)


def _c_invariant(n: int, q: int, kind: str, limit):
    space = ((oracle.xi_space, n, q) if kind == "heisenberg_characters" else
             (oracle.census_space, "full", n, q))
    return _side(lambda: oracle.count_c_invariant(n, q, kind, limit), space)


def _route(quantity: str, expected, computed):
    """A case's route from its two sides, the expected one computed first."""
    return quantity, expected[0], computed[0], expected[1] + computed[1]


def _bell_thm(n: int, q: int, limit):
    """Supercharacters are counted by bell, irreducible ones by cat."""
    bell, cat = _poly("bell", n, q), _poly("cat", n, q)
    return [_route("two-sided orbits", bell, _families(n, q, "supercharacters", "full", limit)),
            _route("labeled partitions", bell, _partitions(n, q, "all", limit)),
            _route("irreducible supercharacters", cat,
                   _families(n, q, "irreducible_supercharacters", "full", limit)),
            _route("labeled noncrossing partitions", cat,
                   _partitions(n, q, "noncrossing", limit))]


def _heis_thm(n: int, q: int, limit):
    """Heisenberg characters: quotient classes = xi census = he = paths."""
    he = _poly("he", n, q)
    return [_route("conjugacy classes of the quotient", he,
                   _characters(n, q, "quotient_classes", limit)),
            _route("irreducible coadjoint orbits", he, _characters(n, q, "xi_census", limit)),
            _route("labeled paths (no leading UU)", he, _paths("heis_tilde", n, q, limit))]


def _del_thm(n: int, q: int, limit):
    """Heisenberg supercharacters: orbit census = del = Pell paths."""
    dl = _poly("del", n, q)
    return [_route("irreducible orbits killing 1+n^3", dl,
                   _families(n, q, "heisenberg_supercharacters", "full", limit)),
            _route("labeled Pell paths", dl, _paths("pell", n, q, limit)),
            _route("noncrossing short-arc partitions", dl,
                   _partitions(n, q, "heis_support", limit, combinat.is_noncrossing))]


def _deg_cor(n: int, q: int, limit):
    """Degree histogram: closed formula = path census = xi census."""
    formula = _side(lambda: {e: v for e in range(n) if (v := counting.degree_count(n, e, q=q))})
    return [_route("path histogram", formula,
                   _side(lambda: bijections.heis_degree_histogram(n, q, limit),
                         (combinat.path_space, "heis_tilde", n, q))),
            _route("xi-census histogram", formula,
                   _characters(n, q, "xi_census", limit, "histogram"))]


def _fe_thm(n: int, q: int, limit):
    """C-invariant supercharacters of U_n: fe at n-1 = arc predicate = orbit test."""
    fe = _poly("fe", n - 1, q)
    return [_route("arc predicate census", fe,
                   _partitions(n, q, "all", limit, bijections.is_c_invariant_partition)),
            _route("two-sided translation test", fe,
                   _c_invariant(n, q, "supercharacters", limit)),
            _route("feasible partitions of [n-1]", fe, _partitions(n - 1, q, "feasible", limit))]


def _c_irr_thm(n: int, q: int, limit):
    """C-invariant irreducible and Heisenberg supercharacters of U_n."""
    half, odd = divmod(n - 1, 2)
    irr = _side(lambda: 0 if odd else (q - 1) ** half * counting.catalan(half))
    heis = _side(lambda: 0 if odd else (q - 1) ** half)
    return [_route("irreducible: signed evaluation", irr,
                   _side(lambda: (1 - q) ** half * counting.poly("cat", n)(-1))),
            _route("irreducible: orbit test", irr,
                   _c_invariant(n, q, "irreducible_supercharacters", limit)),
            _route("heisenberg: signed evaluation", heis,
                   _side(lambda: (1 - q) ** half * counting.poly("del", n)(-1))),
            _route("heisenberg: orbit test", heis,
                   _c_invariant(n, q, "heisenberg_supercharacters", limit))]


def _c_heis_thm(n: int, q: int, limit):
    """C-invariant Heisenberg characters of U_n, five ways."""
    inv = _poly("inv", n - 1, q)
    return [_route("composition sum", inv,
                   _side(lambda: counting.c_invariant_heis_count(n - 1, q, "compositions"),
                         (counting.compositions_space, n - 1))),
            _route("recurrence", inv,
                   _side(lambda: counting.c_invariant_heis_count(n - 1, q, "recurrence"))),
            _route("coadjoint translation test", inv,
                   _c_invariant(n, q, "heisenberg_characters", limit)),
            _route("block predicate on paths", inv,
                   _paths("heis_tilde", n, q, limit, bijections.is_c_invariant_heis_path)),
            _route("labeled paths at index n-1", inv, _paths("inv_tilde", n - 1, q, limit))]


def _tech_lem1(d: int, q: int, limit):
    """Label tuples absorbing the superdiagonal translation: formula vs
    brute force, plus the orbit size q^{2d} on the all-ones tuple."""
    def orbit_size():
        # oracle.orbit guards only the states it has reached so far
        guard_space(oracle.tech_lem1_orbit_space(d, q), limit)
        lam = Functional.from_dict(2 * d + 2, field_make(q),
                                   {(i, i + 2): 1 for i in range(1, 2 * d + 1)})
        return len(oracle.orbit(lam, "coadjoint", limit))

    return [_route("translation-absorbing tuples", _side(lambda: counting.tech_lem_count(d, q)),
                   _side(lambda: oracle.tech_lem1_bruteforce(d, q, limit),
                         (oracle.tech_lem1_space, d, q), (oracle.tangent_space, 2 * d + 2, q))),
            _route("coadjoint orbit size (all-ones)", _side(lambda: q ** (2 * d)),
                   _side(orbit_size, (oracle.tech_lem1_orbit_space, d, q)))]


def _alt_thm(n: int, q: int, limit):
    """Alternating-subgroup censuses match the four alt polynomials and
    the index-q restriction bookkeeping."""
    def alt(attr):
        return _families(n, q, attr, "alternating", limit)

    c_inv, c_spaces = _c_invariant(n, q, "supercharacters", limit)
    full, full_spaces = _families(n, q, "supercharacters", "full", limit)
    return [_route("supercharacters", _poly("alt_bell", n, q), alt("supercharacters")),
            _route("irreducible supercharacters", _poly("alt_cat", n, q),
                   alt("irreducible_supercharacters")),
            _route("heisenberg supercharacters", _poly("alt_del", n, q),
                   alt("heisenberg_supercharacters")),
            _route("heisenberg characters", _poly("alt_he", n, q),
                   _characters(n, q, "quotient_classes", limit, group="alternating")),
            _route("restriction bookkeeping", alt("supercharacters"),
                   _side(lambda: (c := c_inv()) + (full() - c) // q, *c_spaces, *full_spaces))]


def _poly_forms(n: int, q: int, limit):
    """poly against closed_form and, where there is one, the series
    recurrence, each evaluated at x = q - 1."""
    return ([_route(f"{family} closed form", _poly(family, n, q),
                    _side(lambda family=family: counting.closed_form(family, n)(q - 1)))
             for family in counting.CLOSED_FORM_FAMILIES]
            + [_route(f"{family} series", _poly(family, n, q),
                      _side(lambda family=family: counting.series_coeffs(family, q - 1, n + 1)[n]))
               for family in counting.SERIES_FAMILIES])


# the default sweeps keep each check at desk scale (seconds, not minutes)
CHECKS = {
    "bell-thm": Check(_bell_thm, ((3, 4), (2, 3)), 1),
    "heis-thm": Check(_heis_thm, ((3, 4, 5), (2, 3)), 1),
    "del-thm": Check(_del_thm, ((3, 4), (2, 3)), 1),
    "deg-cor": Check(_deg_cor, ((4, 5), (2, 3)), 2),
    "fe-thm": Check(_fe_thm, ((4, 5), (2, 3)), 1),
    "c-irr-thm": Check(_c_irr_thm, ((4, 5), (2, 3)), 1),
    "c-heis-thm": Check(_c_heis_thm, ((4, 5), (2, 3)), 2),
    "tech-lem1": Check(_tech_lem1, ((1, 2), (2, 3)), 1),
    "alt-thm": Check(_alt_thm, ((3, 4), (2, 3)), 2),
    "poly-forms": Check(_poly_forms, ((1, 2, 3, 5, 8, 13, 21, 34), (2, 3)), 1),
}


def run_check(name: str, ns=None, qs=None, limit: int | None = None) -> list[CheckCase]:
    """All cases of one named check over the (n, q) sweep (the check's
    default where ns or qs is None); cases are ordered by (n, q) in input
    order.  The whole sweep is validated first, before any census runs:
    an empty ns or qs and an index below the check's domain raise
    ValueError, a field order that is not a prime power up to 256 the
    field's error, and a space of a route past the size guard
    SpaceTooLarge, the first one in sweep order."""
    if name not in CHECKS:
        raise UnknownFamily(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    check = CHECKS[name]
    ns = tuple(check.sweep[0] if ns is None else ns)
    qs = tuple(check.sweep[1] if qs is None else qs)
    if not ns or not qs:
        raise ValueError(f"{name} needs at least one index and one field order")
    index = "d" if name == "tech-lem1" else "n"
    for n in ns:
        if n < check.least:
            raise ValueError(f"{name} is defined for {index} >= {check.least}, "
                             f"got {index} = {n}")
    for q in qs:
        field_make(q)
    sweep = [(n, q, check.routes(n, q, limit)) for n in ns for q in qs]
    for *_, routes in sweep:
        for *_, spaces in routes:
            for space, *args in spaces:
                guard_space(space(*args), limit)
    return [CheckCase(name, n, q, quantity, expected(), computed())
            for n, q, routes in sweep for quantity, expected, computed, _ in routes]
