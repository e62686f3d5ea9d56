"""Exact arithmetic, orders, Groebner bases, series data, rank helpers."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from binomext import poly
from binomext.poly import (
    MAX_EXPONENT,
    PRIME_LIMIT,
    MonomialOrder,
    MonomialOverflow,
    OrderMismatch,
    PrimeField,
    RationalField,
    Ring,
    _is_prime,
    buchberger,
    covered_columns,
    field_by_name,
    groebner_basis,
    hilbert_data,
    ideal_intersection,
    ideal_intersection_many,
    ideal_membership,
    krull_dimension_lt,
    normal_form,
    rref_rows,
    run_scope,
)


def ring(names: str, field=None, order: str = "degrevlex") -> Ring:
    return Ring(tuple(names.split()), field or PrimeField(), MonomialOrder(order))


def poly_of(r: Ring, pairs) -> "Polynomial":
    p = r.zero()
    for exps, c in pairs:
        p = p.add(r.monomial(tuple(exps), r.field.of(c)))
    return p


# ---------------------------------------------------------------------------
# fields


def test_prime_field_arithmetic() -> None:
    f = PrimeField()
    assert f.p == 32003
    a = f.of(-5)
    assert f.red(a + f.of(5)) == 0
    assert f.red(a * f.inv(a)) == 1
    assert f.to_str(f.of(-1)) == "-1"


def test_prime_field_rejects_composites() -> None:
    with pytest.raises(ValueError):
        PrimeField(32001)


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_matches_trial_division() -> None:
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if _trial_division_is_prime(n)
    ]


def test_large_primes_are_accepted_quickly() -> None:
    started = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert PrimeField(4294967311).p == 4294967311
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael number
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the primes up to 23
        318665857834031151167461,  # strong pseudoprime to the primes up to 37
    ],
)
def test_pseudoprimes_are_rejected(n: int) -> None:
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="must be prime"):
        PrimeField(n)


def test_characteristics_beyond_the_exact_range_are_rejected() -> None:
    # PRIME_LIMIT itself is composite yet passes all 13 witnesses
    for n in (PRIME_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match=f"below {PRIME_LIMIT}"):
            PrimeField(n)


@given(st.integers(min_value=1, max_value=32002))
def test_prime_field_inverse(n: int) -> None:
    f = PrimeField()
    assert f.red(f.of(n) * f.inv(f.of(n))) == 1


def test_rational_field_is_exact() -> None:
    f = RationalField()
    third = f.inv(f.of(3))
    assert third == Fraction(1, 3)
    assert f.red(third * f.of(3)) == 1
    # an integral rational is an int, any other a Fraction
    assert type(f.red(third * f.of(3))) is int
    assert type(f.of(Fraction(4, 2))) is int and f.of(Fraction(4, 2)) == 2
    assert type(f.inv(-1)) is int and f.inv(-1) == -1
    assert type(f.of(Fraction(1, 3))) is Fraction
    assert type(f.zero) is int and type(f.one) is int


def test_field_by_name() -> None:
    assert isinstance(field_by_name("rational"), RationalField)
    assert field_by_name(7).p == 7


CANONICAL_FIELDS = [PrimeField(32003), PrimeField(4294967311), RationalField()]
# small numbers make sums cancel; the others cross p or need a denominator
coefficients = (
    st.integers(-3, 3)
    | st.sampled_from([32002, 32004, 4294967310, 4294967312, -(2**70)])
    | st.fractions(min_value=-100, max_value=100, max_denominator=50)
)


def _assert_canonical_value(field, c) -> None:
    assert c != 0
    if isinstance(field, PrimeField):
        assert type(c) is int and 1 <= c <= field.p - 1
    else:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _assert_canonical(p) -> None:
    for c in p.terms.values():
        _assert_canonical_value(p.ring.field, c)


@st.composite
def canonical_cases(draw):
    field = draw(st.sampled_from(CANONICAL_FIELDS))
    r = ring("x y z", field, draw(st.sampled_from(["lex", "deglex", "degrevlex"])))
    exps = st.tuples(*[st.integers(0, 2)] * 3)

    def polynomial():
        return poly_of(r, draw(st.lists(st.tuples(exps, coefficients), max_size=4)))

    return r, [polynomial() for _ in range(3)], draw(coefficients), draw(coefficients)


@settings(max_examples=60, deadline=None)
@given(case=canonical_cases())
def test_coefficients_stay_canonical(case) -> None:
    # zero is falsy only because every stored coefficient is canonical
    r, (f, g, h), x, y = case
    field = r.field
    a, b = field.of(x), field.of(y)
    if isinstance(field, PrimeField):
        p = field.p
        assert field.red(a + b) == (a + b) % p
        assert field.red(a - b) == (a - b) % p
        assert field.red(a * b) == (a * b) % p
    else:
        assert field.red(a + b) == Fraction(x) + Fraction(y)
        assert field.red(a * b) == Fraction(x) * Fraction(y)
    # of maps rational arithmetic onto the field's
    assert field.red(a + b) == field.of(Fraction(x) + Fraction(y))
    assert field.red(a * b) == field.of(Fraction(x) * Fraction(y))
    assert field.red(a - b) == field.of(Fraction(x) - Fraction(y))
    assert f.sub(f).is_zero() and f.add(f.neg()).is_zero()
    results = [
        f.add(g), f.sub(g), f.neg(), f.mul(g), f.mul_term(r.pack((1, 0, 2)), x), g.monic()
    ]
    gb = buchberger([f, g], r)
    results += gb + [normal_form(h, gb), normal_form(h, [f, g])]
    results += ideal_intersection([f], [g], r)
    ext = Ring(("@t",) + r.names, field, MonomialOrder("elim", r.order.kind))
    results += [poly._to_elim_ring(f, ext, side) for side in ("t", "1-t")]
    for q in results + [f, g, h]:
        _assert_canonical(q)
    assert all(q.lt()[1] == 1 for q in gb + [g.monic()] if q.terms)
    monos = sorted({m for q in (f, g, h) for m in q.terms})
    rows = [{monos.index(m): c for m, c in q.terms.items()} for q in (f, g, h)]
    _, pivrows = rref_rows(rows, len(monos), field)
    for row in pivrows.values():
        for c in row.values():
            _assert_canonical_value(field, c)


@settings(max_examples=60, deadline=None)
@given(case=canonical_cases(), scalars=st.tuples(coefficients, coefficients))
def test_a_rescaled_basis_leaves_the_same_remainder(case, scalars) -> None:
    # each division_table row stores the inverse of its leading coefficient,
    # which is all that scaling a divisor changes
    r, (f, g, h), _, _ = case
    field = r.field
    assume(all(field.of(c) for c in scalars))
    basis = [g, h]
    scaled = [q.mul_term(0, c) for q, c in zip(basis, scalars)]
    table = poly.division_table(scaled, r)
    assert table == [(q.lm(), field.inv(q.lt()[1]), q.terms) for q in scaled if q.terms]
    for _, inv, _ in table:
        _assert_canonical_value(field, inv)
    want = normal_form(f, basis)
    assert normal_form(f, scaled) == want
    assert normal_form(f, scaled, table) == want
    assert normal_form(f, basis, poly.division_table(basis, r)) == want


# ---------------------------------------------------------------------------
# monomials and orders

# Reference monomial arithmetic on exponent tuples, the packed operations'
# oracle.


def ref_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def ref_div(a: tuple, b: tuple) -> tuple | None:
    q = tuple(x - y for x, y in zip(a, b))
    return q if all(e >= 0 for e in q) else None


def ref_divides(b: tuple, a: tuple) -> bool:
    return all(y <= x for x, y in zip(a, b))


def ref_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_of_degree(nvars: int, degree: int) -> list[tuple]:
    """All exponent tuples of the given total degree, in the order of
    combinations_with_replacement over the variables."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    return out


# key function per base order kind; bigger key = bigger monomial
REF_KEYS = {
    "lex": lambda m: m,
    "deglex": lambda m: (sum(m), m),
    "degrevlex": lambda m: (sum(m), tuple(-e for e in reversed(m))),
}


def ref_key(order: MonomialOrder, m: tuple):
    if order.kind == "elim":
        return (m[0], REF_KEYS[order.inner](m[1:]))
    return REF_KEYS[order.kind](m)


def ref_degree(order: MonomialOrder, m: tuple) -> int:
    """The degree that must stay within MAX_EXPONENT: an elimination
    variable is outside it."""
    return sum(m[1:]) if order.kind == "elim" else sum(m)


def test_mono_helpers() -> None:
    r, r3 = ring("x y"), ring("x y z")
    assert r.monomial((1, 0)).mul_term(r.pack((0, 2)), 1).lm() == r.pack((1, 2))
    assert r.divides(r.pack((1, 0)), r.pack((1, 2)))
    assert r.exponents(r.pack((1, 2)) - r.pack((1, 0))) == (0, 2)
    assert not r.divides(r.pack((0, 1)), r.pack((1, 0)))
    assert r3.exponents(r3.lcm(r3.pack((2, 0, 1)), r3.pack((1, 3, 1)))) == (2, 3, 1)


def test_degrevlex_vs_deglex_tiebreak() -> None:
    xz = (1, 0, 1)
    yy = (0, 2, 0)
    drl = ring("x y z")
    dl = ring("x y z", order="deglex")
    lex = ring("x y z", order="lex")
    assert drl.key(drl.pack(yy)) > drl.key(drl.pack(xz))
    assert dl.key(dl.pack(xz)) > dl.key(dl.pack(yy))
    assert lex.key(lex.pack((1, 0, 0))) > lex.key(lex.pack((0, 9, 9)))


def test_elim_order_dominates_first_variable() -> None:
    o = Ring(("t", "x", "y"), PrimeField(), MonomialOrder("elim"))
    assert o.key(o.pack((1, 0, 0))) > o.key(o.pack((0, 5, 5)))
    assert o.key(o.pack((0, 0, 2))) < o.key(o.pack((0, 1, 1)))


ORDERS = [MonomialOrder(k) for k in ("lex", "deglex", "degrevlex")] + [
    MonomialOrder("elim", inner) for inner in ("lex", "deglex", "degrevlex")
]


@st.composite
def packable(draw, order: MonomialOrder, nvars: int) -> tuple:
    """An exponent tuple whose degree fits: exponents are drawn up to
    MAX_EXPONENT, mostly small, and each is capped by the degree left."""
    big = st.integers(0, MAX_EXPONENT)
    raw = draw(st.lists(st.one_of(st.integers(0, 3), big), min_size=nvars, max_size=nvars))
    out, left = [], MAX_EXPONENT
    for v, e in enumerate(raw):
        if order.kind == "elim" and v == 0:
            out.append(e)
            continue
        out.append(min(e, left))
        left -= out[-1]
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), order=st.sampled_from(ORDERS), nvars=st.integers(1, 12))
def test_packed_monomials_match_the_tuple_reference(data, order, nvars) -> None:
    if order.kind == "elim":
        nvars += 1
    r = Ring(tuple(f"x{i}" for i in range(nvars)), PrimeField(), order)
    a, b = data.draw(packable(order, nvars)), data.draw(packable(order, nvars))
    pa, pb = r.pack(a), r.pack(b)
    assert r.exponents(pa) == a and r.exponents(pb) == b
    assert r.degree(pa) == sum(a)
    assert (r.key(pa) > r.key(pb)) == (ref_key(order, a) > ref_key(order, b))
    assert (r.key(pa) == r.key(pb)) == (a == b)
    assert r.divides(pb, pa) == ref_divides(b, a)
    if ref_divides(b, a):
        assert pa - pb == r.pack(ref_div(a, b))
    product, lcm = ref_mul(a, b), ref_lcm(a, b)
    if max(product) > MAX_EXPONENT or ref_degree(order, product) > MAX_EXPONENT:
        with pytest.raises(MonomialOverflow):
            r.monomial(a).mul_term(pb, 1)
    else:
        assert r.monomial(a).mul_term(pb, 1).lm() == pa + pb == r.pack(product)
    if ref_degree(order, lcm) > MAX_EXPONENT:
        with pytest.raises(MonomialOverflow):
            r.lcm(pa, pb)
    else:
        assert r.lcm(pa, pb) == r.pack(lcm)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), order=st.sampled_from(ORDERS), nvars=st.integers(1, 6))
def test_division_table_finds_the_first_divisor_in_table_order(data, order, nvars) -> None:
    # small exponents, the constant included, so that several rows divide
    if order.kind == "elim":
        nvars += 1
    r = Ring(tuple(f"x{i}" for i in range(nvars)), PrimeField(), order)
    monos = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    lms = [r.pack(e) for e in data.draw(st.lists(monos, max_size=16))]
    table = poly.DivisionTable(r._guards)
    for k, lm in enumerate(lms):
        table.append((lm, k))
        for m in map(r.pack, data.draw(st.lists(monos, max_size=6))):
            want = next((j for j in range(k + 1) if r.divides(lms[j], m)), None)
            got = table.divisor(m)
            assert (None if got is None else got[0]) == want
            if got is not None:
                assert got[1:] == table[want]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), order=st.sampled_from(ORDERS), nvars=st.integers(1, 12))
def test_joined_names_print_the_square_free_monomial(data, order, nvars) -> None:
    if order.kind == "elim":
        nvars += 1
    r = Ring(tuple(f"x{i}" for i in range(nvars)), PrimeField(), order)
    ids = sorted(data.draw(st.sets(st.integers(0, nvars - 1))))
    assert r.join_names(ids) == r.mono_str(r.product(ids))


def test_an_elim_ring_extends_its_base_layout() -> None:
    # a base monomial is the same int in the elim ring, t-free there
    for kind in ("lex", "deglex", "degrevlex"):
        base = ring("x y z", order=kind)
        elim = Ring(("@t",) + base.names, base.field, MonomialOrder("elim", kind))
        for exps in [(0, 0, 0), (1, 2, 3), (4, 0, 1)]:
            assert elim.pack((0,) + exps) == base.pack(exps)
            assert elim.pack((1,) + exps) > elim.pack((0,) + (9, 9, 9))


def test_overflow_is_a_typed_error() -> None:
    r = ring("x y")
    top = r.pack((MAX_EXPONENT, 0))
    assert r.exponents(top) == (MAX_EXPONENT, 0)
    # one past the largest exponent, and one past the largest degree
    with pytest.raises(MonomialOverflow):
        r.monomial((MAX_EXPONENT + 1, 0))
    with pytest.raises(MonomialOverflow):
        r.monomial((MAX_EXPONENT, 1))
    x, y = r.pack((1, 0)), r.pack((0, 1))
    with pytest.raises(MonomialOverflow):
        r.monomial((MAX_EXPONENT, 0)).mul_term(x, 1)
    with pytest.raises(MonomialOverflow):
        r.monomial((MAX_EXPONENT, 0)).mul_term(y, 1)
    with pytest.raises(MonomialOverflow):
        r.lcm(top, y)
    assert issubclass(MonomialOverflow, ValueError)


def test_buchberger_raises_past_the_largest_degree() -> None:
    top = MAX_EXPONENT
    r = ring("x y z w")
    lex = ring("x y z", order="lex")
    cases = [
        # two monomials: a pair of them is never queued, but its lcm still
        # overflows, whether the supports meet (x^top and x*y) or not
        (r, [[((top, 0, 0, 0), 1)], [((1, 1, 0, 0), 1)]], f"degree {top + 1} exceeds {top}"),
        (r, [[((top, 0, 0, 0), 1)], [((0, 1, 0, 0), 1)]], f"degree {top + 1} exceeds {top}"),
        # two binomials with coprime leading monomials: the lcm is their
        # product, of degree top + 2
        (
            r,
            [
                [((top, 0, 0, 0), 1), ((0, top, 0, 0), -1)],
                [((0, 0, 2, 0), 1), ((0, 0, 0, 2), -1)],
            ],
            f"degree {top + 2} exceeds {top}",
        ),
        # a new monomial whose supports meet a live binomial's, no two
        # monomials overflowing: lcm(y^20000, x*y^5*z^15000) has degree 35001
        (
            lex,
            [[((0, 20000, 0), 1), ((0, 0, 1), 1)], [((1, 5, 15000), 1)]],
            f"degree 35001 exceeds {top}",
        ),
        # lcm(x*z, x*y) = x*y*z, but the S-polynomial's tail term z * z^top
        # crosses the z field
        (
            lex,
            [[((1, 0, 1), 1)], [((1, 1, 0), 1), ((0, 0, top), -1)]],
            f"a product exceeds exponent or degree {top}",
        ),
    ]
    for rr, gens, message in cases:
        for order in (gens, gens[::-1]):
            with pytest.raises(MonomialOverflow, match=f"^{re.escape(message)}$"):
                buchberger([poly_of(rr, g) for g in order], rr)
    xz, f = (poly_of(lex, g) for g in cases[-1][1])
    assert lex.degree(lex.lcm(xz.lm(), f.lm())) == 3
    with pytest.raises(MonomialOverflow, match="a product exceeds"):
        poly._s_polynomial(xz, f)


def test_unknown_order_rejected() -> None:
    with pytest.raises(ValueError):
        MonomialOrder("grlex")


def test_unknown_inner_order_rejected() -> None:
    with pytest.raises(ValueError, match="inner"):
        MonomialOrder("lex", "bogus")


def test_monomial_needs_one_exponent_per_variable() -> None:
    with pytest.raises(ValueError, match="1 exponents for 2 variables"):
        ring("x y").monomial((1,))


def test_zero_polynomial_has_no_leading_term() -> None:
    with pytest.raises(ValueError, match="zero polynomial"):
        ring("x y").zero().lt()


def test_monomials_of_degree_count() -> None:
    # the ring's packed enumerator is the tuple reference, packed, in order
    for order in ("lex", "deglex", "degrevlex"):
        for n in range(1, 7):
            r = Ring(tuple(f"x{i}" for i in range(n)), PrimeField(), MonomialOrder(order))
            for d in range(6):
                ms = r.monomials_of_degree(d)
                assert ms == [r.pack(e) for e in monomials_of_degree(n, d)], (order, n, d)
                assert len(ms) == len(set(ms)) == comb(n + d - 1, d)
                assert all(r.degree(m) == d for m in ms)


# ---------------------------------------------------------------------------
# polynomials


def test_polynomial_string_forms() -> None:
    r = ring("x y")
    p = poly_of(r, [((2, 0), 1), ((0, 1), -1)])
    assert str(p) == "x^2 - y"
    assert str(poly_of(r, [((1, 0), 1), ((0, 2), -1)])) == "-y^2 + x"
    assert str(r.zero()) == "0"
    # single terms print without sorting, squarefree ones by their names
    assert str(r.monomial((1, 1))) == "x*y"
    assert str(r.monomial((2, 1))) == "x^2*y"
    assert str(r.monomial((1, 1), 3)) == "3*x*y"
    assert str(r.monomial((1, 0), -1)) == "-x"
    assert str(r.one()) == "1"
    assert str(r.monomial((0, 0), -1)) == "-1"
    q = ring("x y", RationalField())
    assert str(q.monomial((1, 0), Fraction(1, 2))) == "1/2*x"
    # an exponent above 1 inside a multi-term polynomial
    assert str(poly_of(r, [((2, 3), 1), ((1, 1), -2), ((0, 0), 1)])) == "x^2*y^3 - 2*x*y + 1"
    assert str(poly_of(q, [((0, 1), Fraction(-1, 2)), ((3, 0), 1)])) == "x^3 - 1/2*y"


def _reference_str(p) -> str:
    """The printed form, rendered term by term in descending order."""
    if p.is_zero():
        return "0"
    out = []
    for m, c in p.sorted_terms():
        cs = p.ring.field.to_str(c)
        mono = "*".join(
            n if e == 1 else f"{n}^{e}" for n, e in zip(p.ring.names, p.ring.exponents(m)) if e
        ) or "1"
        if mono == "1":
            piece = cs
        elif cs == "1":
            piece = mono
        elif cs == "-1":
            piece = f"-{mono}"
        else:
            piece = f"{cs}*{mono}"
        if not out:
            out.append(piece)
        else:
            out.append(f"- {piece[1:]}" if piece.startswith("-") else f"+ {piece}")
    return " ".join(out)


@settings(max_examples=80, deadline=None)
@given(
    order=st.sampled_from(["lex", "deglex", "degrevlex"]),
    rational=st.booleans(),
    terms=st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 3)] * 3),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
        ),
        max_size=5,
    ),
)
def test_printing_matches_a_sorted_rendering(order: str, rational: bool, terms) -> None:
    r = ring("x y z", RationalField() if rational else None, order)
    p = poly_of(r, terms)
    assert str(p) == _reference_str(p)


def test_empty_generator_lists_are_rejected() -> None:
    with pytest.raises(ValueError, match="explicit ring"):
        buchberger([])
    with pytest.raises(ValueError, match="at least one ideal"):
        ideal_intersection_many([], ring("x y"))


def test_mixed_ring_operations_rejected() -> None:
    r1, r2 = ring("x y"), ring("x y", order="lex")
    p, q = r1.var(0), r2.var(0)
    with pytest.raises(OrderMismatch):
        normal_form(p, [q])


# ---------------------------------------------------------------------------
# normal form and Buchberger


def test_normal_form_examples() -> None:
    r = ring("x y")
    g = poly_of(r, [((2, 0), 1), ((0, 1), -1)])  # x^2 - y
    f = poly_of(r, [((3, 0), 1)])  # x^3
    assert str(normal_form(f, [g])) == "x*y"


def reference_normal_form(f, basis):
    """The division loop `normal_form` replaced: take the largest term left,
    move it to the remainder when no leading monomial divides it (the first
    divisor in listed order found by a scan), else cancel it with a multiple
    of that divisor. One `normal_forms` per call."""
    poly._bump("normal_forms")
    r = f.ring
    red, zero = r.field.red, r.field.zero
    basis = [g for g in basis if g.terms]
    rem = {}
    h = dict(f.terms)
    while h:
        hm = max(h, key=r.key)
        g = next((g for g in basis if r.divides(g.lm(), hm)), None)
        if g is None:
            rem[hm] = h.pop(hm)
            continue
        gm, gc = g.lt()
        q, c = hm - gm, red(h[hm] * r.field.inv(gc))
        for m, a in g.terms.items():
            p = m + q
            r._check_guards(p)
            s = red(h.get(p, zero) - a * c)
            if s:
                h[p] = s
            else:
                del h[p]
    return poly.Polynomial(r, rem)


REFERENCE_RINGS = {
    f"{order}-{field.name}": Ring(
        ("@t", "x", "y", "z") if order == "elim" else ("x", "y", "z", "w"),
        field,
        MonomialOrder(order, "deglex"),
    )
    for field in CANONICAL_FIELDS
    for order in ("lex", "deglex", "degrevlex", "elim")
}


@pytest.mark.parametrize("seed,name", enumerate(REFERENCE_RINGS))
def test_normal_form_matches_the_reference_division(seed: int, name: str) -> None:
    # random bases that are not Groebner bases, where the remainder depends
    # on which divisor each term takes, with coefficients that reduce in
    # every field
    r = REFERENCE_RINGS[name]
    rng = random.Random(seed)

    def random_poly(max_terms: int, max_deg: int):
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * r.nvars
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(r.nvars)] += 1
            c = rng.choice([1, -1, 2, 32002, 4294967310, Fraction(3, 7), Fraction(-5, 2)])
            terms.append((exps, c))
        return poly_of(r, terms)

    kept = reduced = 0
    for _ in range(150):
        basis = [random_poly(3, 3) for _ in range(rng.randint(1, 4))]
        f = random_poly(6, 4)
        divisible = any(r.divides(g.lm(), m) for g in basis if g.terms for m in f.terms)
        with run_scope():
            want = reference_normal_form(f, basis)
            assert poly.counters == {"normal_forms": 1}
        with run_scope():
            got = normal_form(f, basis)
            assert poly.counters == {"normal_forms": 1}
        assert got == want
        assert normal_form(f, basis, poly.division_table(basis, r)) == want
        _assert_canonical(got)
        # with no divisible term the input itself comes back
        assert (got is f) == (not divisible)
        kept += not divisible
        reduced += divisible
    assert kept and reduced


def test_normal_form_raises_when_a_reduction_step_crosses_a_field() -> None:
    # y*z - z*(y - z^top) = z^(top+1); the larger irreducible x is met first
    top = MAX_EXPONENT
    r = ring("x y z", order="lex")
    g = poly_of(r, [((0, 1, 0), 1), ((0, 0, top), -1)])
    f = poly_of(r, [((1, 0, 0), 1), ((0, 1, 1), 1)])
    # @t*y - y*(@t - y^top) = y^(top+1), in the field above the degree
    e = Ring(("@t", "x", "y"), PrimeField(), MonomialOrder("elim", "lex"))
    h = poly_of(e, [((1, 0, 0), 1), ((0, 0, top), -1)])
    k = poly_of(e, [((1, 0, 1), 1), ((0, 1, 0), 3)])
    for fn in (reference_normal_form, normal_form):
        for f_, g_ in ((f, g), (k, h)):
            with pytest.raises(MonomialOverflow, match="a product exceeds"):
                fn(f_, [g_])


def test_buchberger_known_conic() -> None:
    r = ring("a b y")
    conic = poly_of(r, [((1, 1, 0), 1), ((0, 0, 2), -1)])
    gb = buchberger([conic])
    assert gb == [conic]
    hd = hilbert_data(gb, r)
    assert (hd.dimension, hd.codimension, hd.degree) == (2, 1, 2)


def _random_poly(rng: random.Random, r: Ring, max_terms: int = 3, max_deg: int = 2):
    p = r.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(r.names)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(len(r.names))] += 1
        p = p.add(r.monomial(tuple(exps), r.field.of(rng.randint(1, 5))))
    return p


@pytest.mark.parametrize("seed", range(8))
def test_buchberger_satisfies_gb_criterion(seed: int) -> None:
    # independent certificate: every S-polynomial reduces to zero,
    # and every input generator lies in the span
    rng = random.Random(seed)
    r = ring("x y z")
    gens = [_random_poly(rng, r) for _ in range(3)]
    gb = buchberger(gens, r)
    for f in gens:
        assert ideal_membership(f, gb)
    for i, j in combinations(range(len(gb)), 2):
        fm, gm = r.exponents(gb[i].lm()), r.exponents(gb[j].lm())
        l = ref_lcm(fm, gm)
        a = gb[i].mul_term(r.pack(ref_div(l, fm)), r.field.one)
        b = gb[j].mul_term(r.pack(ref_div(l, gm)), r.field.one)
        assert ideal_membership(a.sub(b), gb)


@pytest.mark.parametrize("seed", range(6))
def test_buchberger_is_generator_order_independent(seed: int) -> None:
    rng = random.Random(seed)
    r = ring("x y z")
    gens = [_random_poly(rng, r) for _ in range(4)]
    gb = buchberger(gens, r)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    assert buchberger(shuffled, r) == gb


def test_reduced_basis_shape() -> None:
    rng = random.Random(11)
    r = ring("x y z")
    gb = buchberger([_random_poly(rng, r) for _ in range(4)], r)
    for i, p in enumerate(gb):
        assert p.lt()[1] == r.field.one
        for j, q in enumerate(gb):
            if i == j:
                continue
            assert all(
                not ref_divides(r.exponents(q.lm()), r.exponents(m)) for m in p.terms
            )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_membership_of_random_combinations(seed: int) -> None:
    rng = random.Random(seed)
    r = ring("x y z")
    gens = [_random_poly(rng, r) for _ in range(3)]
    gb = buchberger(gens, r)
    combo = r.zero()
    for g in gens:
        combo = combo.add(g.mul(_random_poly(rng, r, max_terms=2, max_deg=1)))
    assert ideal_membership(combo, gb)
    if not ideal_membership(r.one(), gb):
        assert not ideal_membership(combo.add(r.one()), gb)


def test_groebner_agrees_between_fields() -> None:
    # all-unit coefficients keep the two computations syntactically parallel
    rq = ring("a b c x", RationalField())
    rp = ring("a b c x")

    def minors(r: Ring):
        a, b, c, x = (r.var(i) for i in range(4))
        return [a.mul(b).sub(x.mul(x)), a.mul(c).sub(x.mul(b)), b.mul(b).sub(x.mul(c))]

    gq = buchberger(minors(rq), rq)
    gp = buchberger(minors(rp), rp)
    assert [sorted(map(rq.exponents, p.terms)) for p in gq] == [
        sorted(map(rp.exponents, p.terms)) for p in gp
    ]
    for pq, pp in zip(gq, gp):
        for m in pq.terms:
            assert rp.field.of(int(pq.terms[m])) == pp.terms[m]


# ---------------------------------------------------------------------------
# intersections


def test_intersection_of_coordinate_ideals() -> None:
    r = ring("x y z")
    x, y, z = (r.var(i) for i in range(3))
    inter = ideal_intersection([x], [y], r)
    assert [str(p) for p in inter] == ["x*y"]
    inter = ideal_intersection([x, y], [z], r)
    assert sorted(str(p) for p in inter) == ["x*z", "y*z"]


@pytest.mark.parametrize("seed", range(5))
def test_intersection_soundness(seed: int) -> None:
    rng = random.Random(seed)
    r = ring("x y z")
    i_gens = [_random_poly(rng, r) for _ in range(2)]
    j_gens = [_random_poly(rng, r) for _ in range(2)]
    gb_i = buchberger(i_gens, r)
    gb_j = buchberger(j_gens, r)
    inter = ideal_intersection(i_gens, j_gens, r)
    for p in inter:
        assert ideal_membership(p, gb_i)
        assert ideal_membership(p, gb_j)
    gb_inter = buchberger(list(inter), r) if inter else []
    for f in i_gens:
        for g in j_gens:
            product = f.mul(g)
            if gb_inter:
                assert ideal_membership(product, gb_inter)
            else:
                assert product.is_zero()


def test_intersection_respects_lex_order() -> None:
    r = ring("x y", order="lex")
    inter = ideal_intersection([r.var(0)], [r.var(1)], r)
    assert [str(p) for p in inter] == ["x*y"]
    assert inter[0].ring.order.kind == "lex"


# ---------------------------------------------------------------------------
# Hilbert series and dimension


def _series_coefficient(numerator, nvars: int, t: int) -> int:
    return sum(
        numerator[k] * comb(t - k + nvars - 1, nvars - 1)
        for k in range(len(numerator))
        if t - k >= 0
    )


def _brute_hilbert_function(lts, nvars: int, t: int) -> int:
    count = 0
    for m in monomials_of_degree(nvars, t):
        if not any(ref_divides(g, m) for g in lts):
            count += 1
    return count


def _brute_dimension(lts, nvars: int) -> int:
    best = 0
    for size in range(nvars, -1, -1):
        for keep in combinations(range(nvars), size):
            kept = set(keep)
            if all(any(v not in kept for v, e in enumerate(g) if e) for g in lts):
                return size
    return best


@pytest.mark.parametrize("seed", range(15))
def test_hilbert_data_matches_brute_force(seed: int) -> None:
    rng = random.Random(seed)
    nvars = rng.randint(2, 5)
    r = Ring(tuple(f"x{i}" for i in range(nvars)), PrimeField(), MonomialOrder())
    lts = []
    for _ in range(rng.randint(1, 5)):
        exps = [0] * nvars
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(nvars)] += 1
        lts.append(tuple(exps))
    gens = [r.monomial(m, r.field.one) for m in lts]
    gb = buchberger(gens, r)
    hd = hilbert_data(gb, r)
    for t in range(6):
        assert _series_coefficient(hd.numerator, nvars, t) == _brute_hilbert_function(
            lts, nvars, t
        )
    assert krull_dimension_lt(gb, r) == _brute_dimension(lts, nvars)
    assert hd.dimension == _brute_dimension(lts, nvars)


def test_hilbert_rejects_unit_ideal() -> None:
    r = ring("x")
    with pytest.raises(ValueError):
        hilbert_data([r.one()], r)


def test_hilbert_rejects_a_numerator_without_positive_degree(monkeypatch) -> None:
    # the invariant is checked by code, not by assert, so python -O keeps it
    monkeypatch.setattr(poly, "_hilbert_numerator", lambda gens, ring, memo: (1, -2))
    r = ring("x y")
    with pytest.raises(ValueError, match=r"numerator \(1, -2\) gives degree -1,"):
        hilbert_data([r.var(0)], r)


def test_hilbert_rejects_a_numerator_without_positive_degree_under_python_O() -> None:
    code = (
        "from binomext import poly\n"
        "poly._hilbert_numerator = lambda gens, ring, memo: (1, -2)\n"
        "r = poly.Ring(('x', 'y'), poly.PrimeField(), poly.MonomialOrder())\n"
        "try:\n"
        "    poly.hilbert_data([r.var(0)], r)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "numerator (1, -2) gives degree -1, not a positive one\n"


def test_zero_ideal_dimension() -> None:
    r = ring("x y z")
    assert krull_dimension_lt([], r) == 3
    hd = hilbert_data([], r)
    assert hd.dimension == 3 and hd.codimension == 0 and hd.degree == 1


def tuple_minimalize(monos) -> tuple[tuple, ...]:
    """The engine's earlier minimal generators, on exponent tuples."""
    ms = sorted(set(monos), key=lambda m: (sum(m), m))
    out: list[tuple] = []
    for m in ms:
        if not any(all(y <= x for x, y in zip(m, q)) for q in out):
            out.append(m)
    return tuple(out)


def tuple_hilbert_numerator(gens: tuple[tuple, ...], memo: dict) -> tuple[int, ...]:
    """The engine's earlier Hilbert numerator, on exponent tuples."""
    if not gens:
        return (1,)
    if gens in memo:
        return memo[gens]
    coprime = all(
        not any(x and y for x, y in zip(a, b)) for a, b in combinations(gens, 2)
    )
    if coprime:
        out = (1,)
        for m in gens:
            factor = [1] + [0] * (sum(m) - 1) + [-1]
            out = poly._poly_mul(out, tuple(factor))
        memo[gens] = out
        return out
    n = len(gens[0])
    counts = [sum(1 for m in gens if m[v] > 0) for v in range(n)]
    pivot = max(range(n), key=lambda v: (counts[v], -v))
    plus = tuple_minimalize(
        [m for m in gens if m[pivot] == 0]
        + [tuple(1 if v == pivot else 0 for v in range(n))]
    )
    quot = tuple_minimalize(
        tuple(e - 1 if v == pivot else e for v, e in enumerate(m)) if m[pivot] > 0 else m
        for m in gens
    )
    out = poly._poly_add(
        tuple_hilbert_numerator(plus, memo),
        poly._poly_shift(tuple_hilbert_numerator(quot, memo), 1),
    )
    memo[gens] = out
    return out


@st.composite
def monomial_ideals(draw, max_vars: int = 6) -> tuple:
    """(nvars, exponent tuples): nonconstant monomials with exponents 0-3,
    then repeats and multiples of them, which are redundant generators."""
    nvars = draw(st.integers(1, max_vars))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    gens = draw(st.lists(exps.filter(any), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        g, extra = draw(st.sampled_from(gens)), draw(exps)
        gens.append(tuple(a + b for a, b in zip(g, extra)))
    return nvars, gens


@settings(max_examples=300, deadline=None)
@given(ideal=monomial_ideals(), order=st.sampled_from(["lex", "deglex", "degrevlex"]))
def test_packed_hilbert_numerator_matches_the_tuple_reference(ideal, order: str) -> None:
    nvars, gens = ideal
    r = Ring(tuple(f"x{i}" for i in range(nvars)), PrimeField(), MonomialOrder(order))
    packed = poly._minimalize([r.pack(g) for g in gens], r._guards)
    minimal = tuple_minimalize(gens)
    assert sorted(map(r.exponents, packed)) == sorted(minimal)
    assert poly._hilbert_numerator(packed, r, {}) == tuple_hilbert_numerator(minimal, {})


def minimal_supports(monos) -> list[frozenset[int]]:
    """The engine's earlier supports: variable sets of exponent tuples, less
    those that hold another."""
    sups = {frozenset(i for i, e in enumerate(m) if e) for m in monos}
    return [s for s in sups if not any(t < s for t in sups)]


def min_hitting_set(supports: list[frozenset[int]]) -> int:
    """The engine's earlier dimension search: the size of the smallest
    variable set meeting every support, by depth-first search."""
    if not supports:
        return 0
    best = len(frozenset().union(*supports))

    def dfs(hit: frozenset[int], size: int) -> None:
        nonlocal best
        if size >= best:
            return
        left = [s for s in supports if not (s & hit)]
        if not left:
            best = size
            return
        s = min(left, key=lambda t: (len(t), sorted(t)))
        for v in sorted(s):
            dfs(hit | {v}, size + 1)

    dfs(frozenset(), 0)
    return best


@settings(max_examples=300, deadline=None)
@given(ideal=monomial_ideals(max_vars=10), order=st.sampled_from(["lex", "deglex", "degrevlex"]))
def test_independent_set_dimension_matches_the_hitting_set_reference(ideal, order: str) -> None:
    # the largest set of variables holding no support is the complement of
    # the smallest set meeting every support
    nvars, gens = ideal
    r = Ring(tuple(f"x{i}" for i in range(nvars)), PrimeField(), MonomialOrder(order))
    lts = [r.monomial(g) for g in gens]
    assert krull_dimension_lt(lts, r) == nvars - min_hitting_set(minimal_supports(gens))


@settings(max_examples=200, deadline=None)
@given(ideal=monomial_ideals(), order=st.sampled_from(["lex", "deglex", "degrevlex"]))
def test_standard_monomials_match_brute_force(ideal, order: str) -> None:
    nvars, gens = ideal
    r = Ring(tuple(f"x{i}" for i in range(nvars)), PrimeField(), MonomialOrder(order))
    lts = [r.monomial(g) for g in gens]
    for degree in range(6):
        brute = any(
            not any(ref_divides(g, m) for g in gens) for m in monomials_of_degree(nvars, degree)
        )
        assert poly.has_standard_monomials(lts, r, degree) == brute, degree
    assert not poly.has_standard_monomials([r.one()], r, 0)


def test_independent_set_dimension_of_a_unit_ideal_is_an_error() -> None:
    r = ring("x y")
    with pytest.raises(ValueError, match="unit ideal"):
        krull_dimension_lt([r.var(0), r.one()], r)


# ---------------------------------------------------------------------------
# linear algebra helpers


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
def test_rref_rank_and_unit_rows(field) -> None:
    one = field.one
    rows = [
        {0: one, 1: one},
        {1: one},
        {0: one, 1: one, 2: one},
    ]
    rank, pivots = rref_rows(rows, 4, field)
    assert rank == 3
    assert covered_columns(pivots) == {0, 1, 2}


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
def test_rref_detects_dependencies(field) -> None:
    one, two = field.of(1), field.of(2)
    rows = [{0: one, 1: one}, {0: two, 1: two}]
    rank, pivots = rref_rows(rows, 2, field)
    assert rank == 1
    assert covered_columns(pivots) == set()


def test_rref_is_exact_for_primes_above_two_to_the_32() -> None:
    # products of two entries exceed 2**63, where fixed-width arithmetic wraps
    field = PrimeField(4294967311)
    p, a, b, k = field.p, 4294967296, 4294967290, 4294967000
    rows = [{0: a, 1: b}, {0: a * k % p, 1: b * k % p}, {2: p - 1}]
    rank, pivots = rref_rows(rows, 3, field)
    assert rank == 2
    assert pivots == {0: {0: 1, 1: b * field.inv(a) % p}, 2: {2: 1}}
    assert covered_columns(pivots) == {2}


def _dense_rref(rows: list[dict], ncols: int, field) -> tuple[int, dict[int, dict]]:
    """Gauss-Jordan on dense rows: column c's pivot is the first row, in
    input order, of those not yet pivots that is nonzero at c; it moves up
    to just below the pivots found before it."""
    red = field.red
    m = [[r.get(j, field.zero) for j in range(ncols)] for r in rows]
    pivots: dict[int, int] = {}
    for c in range(ncols):
        top = len(pivots)
        pick = next((i for i in range(top, len(m)) if m[i][c]), None)
        if pick is None:
            continue
        m.insert(top, m.pop(pick))
        inv = field.inv(m[top][c])
        m[top] = [red(v * inv) for v in m[top]]
        for i, row in enumerate(m):
            f = row[c]
            if i != top and f:
                m[i] = [red(v - f * w) for v, w in zip(row, m[top])]
        pivots[c] = top
    return len(pivots), {c: {j: v for j, v in enumerate(m[i]) if v} for c, i in pivots.items()}


@st.composite
def sparse_rows(draw) -> tuple:
    """(field, ncols, rows): a few sparse rows of canonical entries, narrow
    enough that dependencies are common."""
    field = draw(st.sampled_from(CANONICAL_FIELDS))
    ncols = draw(st.integers(1, 6))
    entries = st.dictionaries(st.integers(0, ncols - 1), coefficients, max_size=ncols)
    rows = [
        {j: field.of(c) for j, c in row.items() if field.of(c)}
        for row in draw(st.lists(entries, max_size=8))
    ]
    return field, ncols, rows


@settings(max_examples=200, deadline=None)
@given(case=sparse_rows())
def test_rref_matches_dense_gauss_jordan(case) -> None:
    field, ncols, rows = case
    before = [dict(r) for r in rows]
    poly.reset_counters()
    rank, pivots = rref_rows(rows, ncols, field)
    assert (rank, pivots) == _dense_rref([r for r in rows if r], ncols, field)
    assert poly.counters["rank_rows"] == sum(1 for r in rows if r)
    assert rows == before


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    order=st.sampled_from(["degrevlex", "deglex"]),
    k=st.integers(1, 5),
)
def test_the_balanced_fold_matches_the_sequential_fold(data, order: str, k: int) -> None:
    # homogeneous ideals only: inhomogeneous or lex eliminations can run
    # for minutes under the normal selection strategy
    r = ring("x y z w", PrimeField(32003), order)

    def generator():
        degree = data.draw(st.integers(1, 2))
        terms = []
        for _ in range(data.draw(st.integers(1, 2))):
            vs = data.draw(st.lists(st.integers(0, 3), min_size=degree, max_size=degree))
            terms.append((tuple(vs.count(v) for v in range(4)), data.draw(st.integers(1, 5))))
        return poly_of(r, terms)

    gen_lists = [[generator() for _ in range(data.draw(st.integers(1, 2)))] for _ in range(k)]
    with run_scope():
        got = ideal_intersection_many(gen_lists, r)
        work = dict(poly.counters)
    with run_scope():
        want = groebner_basis(gen_lists[0], r)
        for gens in gen_lists[1:]:
            want = ideal_intersection(want, gens, r)
        sequential = dict(poly.counters)
    assert got == want
    if k <= 3:
        # the same eliminations of the same inputs
        assert work == sequential


# ---------------------------------------------------------------------------
# run scope


def _twisted_cubic(r: Ring) -> list:
    return [
        poly_of(r, [((1, 0, 1, 0), 1), ((0, 2, 0, 0), -1)]),
        poly_of(r, [((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)]),
        poly_of(r, [((0, 1, 0, 1), 1), ((0, 0, 2, 0), -1)]),
    ]


def test_outside_a_run_every_basis_is_recomputed() -> None:
    r = ring("a b c d")
    poly.reset_counters()
    first = buchberger(_twisted_cubic(r), r)
    once = poly.counters["s_pairs"]
    assert once > 0
    assert buchberger(_twisted_cubic(r), r) == first
    assert poly.counters["s_pairs"] == 2 * once
    assert groebner_basis(_twisted_cubic(r), r) == first
    assert poly.counters["s_pairs"] == 3 * once


def test_a_run_computes_each_basis_once() -> None:
    r = ring("a b c d")
    with run_scope():
        first = groebner_basis(_twisted_cubic(r), r)
        work = dict(poly.counters)
        # equal generators built again, in another order, are the same request
        again = groebner_basis(list(reversed(_twisted_cubic(r))), r)
        assert again == first and again is not first
        assert poly.counters == work
        # the caller owns its list: clearing it leaves the cached basis whole
        again.clear()
        assert groebner_basis(_twisted_cubic(r), r) == first
        # another ring is another request
        q = ring("a b c d", RationalField())
        groebner_basis(_twisted_cubic(q), q)
        assert poly.counters["s_pairs"] == 2 * work["s_pairs"]
    poly.reset_counters()
    groebner_basis(_twisted_cubic(r), r)
    assert poly.counters == work
