"""Reduced Groebner bases checked against an independent implementation.

sympy's `groebner` is the oracle: for random monomial and binomial ideals in
two to five variables, under each of the three orders and over GF(32003)
and the rationals, `buchberger` must return the same reduced monic basis, and
`ideal_intersection` (on pairs of homogeneous such ideals) the same basis of
I cap J as sympy's own elimination of t. The one-pass `_interreduce` must
turn any monic Groebner basis with redundant members back into the reduced
basis. `hilbert_data` must count, degree by degree, the monomials outside
the leading ideal of sympy's basis. sympy is a test-only dependency; the
module is skipped without it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomext.poly import (
    MonomialOrder,
    PrimeField,
    RationalField,
    Ring,
    _interreduce,
    buchberger,
    hilbert_data,
    ideal_intersection,
    krull_dimension_lt,
)

sympy = pytest.importorskip("sympy")

SYMPY_ORDER = {"lex": "lex", "deglex": "grlex", "degrevlex": "grevlex"}
P = 32003


@st.composite
def ideals(draw, nvars=None, homogeneous=False):
    """(nvars, generators): each generator is a list of (exponents, coeff)
    with one term (a monomial) or two distinct terms (a binomial). Two thirds
    of the binomials are homogeneous, since only equal-degree terms tell
    deglex and degrevlex apart; with homogeneous=True all of them are."""
    if nvars is None:
        nvars = draw(st.integers(2, 5))
    coeff = st.integers(-3, 3).filter(bool)

    def mono(degree: int) -> tuple:
        vs = draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree))
        return tuple(vs.count(v) for v in range(nvars))

    gens = []
    for _ in range(draw(st.integers(1, 4))):
        a = mono(draw(st.integers(2, 3)))
        shapes = ["monomial", "homogeneous", "homogeneous"] + ["binomial"] * (not homogeneous)
        shape = draw(st.sampled_from(shapes))
        if shape == "monomial":
            gens.append([(a, draw(coeff))])
            continue
        b = mono(sum(a) if shape == "homogeneous" else draw(st.integers(0, 3)))
        gens.append([(a, draw(coeff))] + ([(b, draw(coeff))] if b != a else []))
    return nvars, gens


def _monic(terms: dict, field) -> frozenset:
    # caller passes terms with the leading coefficient first
    lead = next(iter(terms.values()))
    inv = field.inv(lead)
    return frozenset((m, field.red(c * inv)) for m, c in terms.items())


def _ring(nvars: int, field, order: str) -> Ring:
    return Ring(tuple(f"x{i}" for i in range(nvars)), field, MonomialOrder(order))


def _polys(ring: Ring, gens) -> list:
    polys = []
    for terms in gens:
        p = ring.zero()
        for m, c in terms:
            p = p.add(ring.monomial(m, c))
        polys.append(p)
    return polys


def _as_set(basis, field) -> set:
    return {
        _monic({p.ring.exponents(m): c for m, c in p.sorted_terms()}, field) for p in basis
    }


def ours(nvars: int, gens, field, order: str) -> set:
    ring = _ring(nvars, field, order)
    return _as_set(buchberger(_polys(ring, gens), ring), field)


def _sympy_kw(field) -> dict:
    return {"modulus": P} if isinstance(field, PrimeField) else {"domain": "QQ"}


def _exprs(xs, gens) -> list:
    return [sum(c * sympy.prod(x**e for x, e in zip(xs, m)) for m, c in terms) for terms in gens]


def theirs(nvars: int, gens, field, order: str) -> set:
    xs = sympy.symbols(f"x0:{nvars}")
    return _from_sympy(
        sympy.groebner(_exprs(xs, gens), *xs, order=SYMPY_ORDER[order], **_sympy_kw(field)),
        field,
        order,
    )


def _from_sympy(basis, field, order: str) -> set:
    out = set()
    for g in basis.polys:
        terms = {}
        for m, c in g.terms(order=SYMPY_ORDER[order]):
            if isinstance(field, PrimeField):
                terms[tuple(m)] = int(c) % P
            else:
                q = sympy.Rational(c)
                terms[tuple(m)] = Fraction(int(q.p), int(q.q))
        out.add(_monic(terms, field))
    return out


@settings(max_examples=150, deadline=None)
@given(ideal=ideals())
def test_reduced_basis_matches_sympy(ideal) -> None:
    nvars, gens = ideal
    for field in (PrimeField(P), RationalField()):
        for order in SYMPY_ORDER:
            assert ours(nvars, gens, field, order) == theirs(nvars, gens, field, order), (
                field.name,
                order,
            )


def theirs_intersection(nvars: int, i_gens, j_gens, field, order: str) -> set:
    """I cap J by sympy alone: eliminate t from t*I + (1-t)*J under lex with
    t first, then reduce the t-free part under the requested order."""
    t, *xs = sympy.symbols(f"t x0:{nvars}")
    exprs = [t * e for e in _exprs(xs, i_gens)] + [(1 - t) * e for e in _exprs(xs, j_gens)]
    kw = _sympy_kw(field)
    elim = sympy.groebner(exprs, t, *xs, order="lex", **kw)
    free = [g.as_expr() for g in elim.polys if g.degree(t) <= 0]
    return _from_sympy(sympy.groebner(free, *xs, order=SYMPY_ORDER[order], **kw), field, order)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_intersection_matches_sympy_elimination(data) -> None:
    # the program intersects only homogeneous ideals (monomials and scroll
    # minors); an inhomogeneous elimination under lex can run for minutes
    nvars, i_gens = data.draw(ideals(homogeneous=True))
    _, j_gens = data.draw(ideals(nvars=nvars, homogeneous=True))
    for field in (PrimeField(P), RationalField()):
        for order in SYMPY_ORDER:
            ring = _ring(nvars, field, order)
            got = ideal_intersection(_polys(ring, i_gens), _polys(ring, j_gens), ring)
            assert _as_set(got, field) == theirs_intersection(
                nvars, i_gens, j_gens, field, order
            ), (field.name, order)


@settings(max_examples=150, deadline=None)
@given(ideal=ideals(), rng=st.randoms(use_true_random=False))
def test_interreduce_restores_the_reduced_basis(ideal, rng) -> None:
    nvars, gens = ideal
    for field in (PrimeField(P), RationalField()):
        for order in SYMPY_ORDER:
            ring = _ring(nvars, field, order)
            gb = buchberger(_polys(ring, gens), ring)
            # monic members of the ideal whose leading terms a basis element
            # divides, so gb plus them is a redundant Groebner basis
            extra = [
                rng.choice(gb).mul(ring.var(rng.randrange(nvars))).add(rng.choice(gb)).monic()
                for _ in range(rng.randint(1, 4))
            ]
            work = gb + extra
            rng.shuffle(work)
            assert _interreduce(work) == gb, (field.name, order)
            keys = [ring.key(p.lm()) for p in gb]
            assert keys == sorted(keys, reverse=True)


def _standard_count(nvars: int, leading: list, degree: int) -> int:
    """Monomials of the degree that no leading monomial divides."""
    count = 0
    for combo in combinations_with_replacement(range(nvars), degree):
        m = [combo.count(v) for v in range(nvars)]
        count += not any(all(a <= b for a, b in zip(lm, m)) for lm in leading)
    return count


@settings(max_examples=60, deadline=None)
@given(ideal=ideals(homogeneous=True))
def test_hilbert_series_counts_sympy_standard_monomials(ideal) -> None:
    # for a homogeneous ideal, dim_k (R/I)_d is the number of degree-d
    # monomials outside in(I), under any order (Macaulay)
    nvars, gens = ideal
    xs = sympy.symbols(f"x0:{nvars}")
    for field in (PrimeField(P), RationalField()):
        for order in SYMPY_ORDER:
            ring = _ring(nvars, field, order)
            gb = buchberger(_polys(ring, gens), ring)
            data = hilbert_data(gb, ring)
            basis = sympy.groebner(
                _exprs(xs, gens), *xs, order=SYMPY_ORDER[order], **_sympy_kw(field)
            )
            leading = [g.monoms(order=SYMPY_ORDER[order])[0] for g in basis.polys]
            for d in range(7):
                # numerator / (1 - t)^n, coefficient of t^d
                series = sum(
                    c * comb(d - i + nvars - 1, nvars - 1)
                    for i, c in enumerate(data.numerator)
                    if i <= d
                )
                assert series == _standard_count(nvars, leading, d), (field.name, order, d)
            assert data.dimension == krull_dimension_lt(gb, ring), (field.name, order)
