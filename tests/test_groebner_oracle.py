"""Reduced Groebner bases checked against an independent implementation.

sympy's `groebner` is the oracle: for random monomial and binomial ideals in
two to four variables, under each of the three orders and over GF(32003)
and the rationals, `buchberger` must return the same reduced monic basis.
sympy is a test-only dependency; the module is skipped without it.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomext.poly import MonomialOrder, PrimeField, RationalField, Ring, buchberger

sympy = pytest.importorskip("sympy")

SYMPY_ORDER = {"lex": "lex", "deglex": "grlex", "degrevlex": "grevlex"}
P = 32003


@st.composite
def ideals(draw):
    """(nvars, generators): each generator is a list of (exponents, coeff)
    with one term (a monomial) or two distinct terms (a binomial). Two thirds
    of the binomials are homogeneous, since only equal-degree terms tell
    deglex and degrevlex apart."""
    nvars = draw(st.integers(2, 4))
    coeff = st.integers(-3, 3).filter(bool)

    def mono(degree: int) -> tuple:
        vs = draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree))
        return tuple(vs.count(v) for v in range(nvars))

    gens = []
    for _ in range(draw(st.integers(1, 4))):
        a = mono(draw(st.integers(2, 3)))
        shape = draw(st.sampled_from(["monomial", "homogeneous", "homogeneous", "binomial"]))
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
    return frozenset((m, field.mul(c, inv)) for m, c in terms.items())


def ours(nvars: int, gens, field, order: str) -> set:
    ring = Ring(tuple(f"x{i}" for i in range(nvars)), field, MonomialOrder(order))
    polys = []
    for terms in gens:
        p = ring.zero()
        for m, c in terms:
            p = p.add(ring.monomial(m, c))
        polys.append(p)
    basis = buchberger(polys, ring)
    return {_monic(dict(p.sorted_terms()), field) for p in basis}


def theirs(nvars: int, gens, field, order: str) -> set:
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [
        sum(c * sympy.prod(x**e for x, e in zip(xs, m)) for m, c in terms) for terms in gens
    ]
    kw = {"modulus": P} if isinstance(field, PrimeField) else {"domain": "QQ"}
    basis = sympy.groebner(exprs, *xs, order=SYMPY_ORDER[order], **kw)
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
