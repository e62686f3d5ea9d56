"""Exact multivariate polynomial engine: prime-field/rational arithmetic,
monomial orders, reduced Groebner bases, elimination, and Hilbert data.

Monomials are packed into one int each, in a layout that the Ring fixes
from its order (see FIELD_BITS); exponent tuples are met only at the edges:
`Ring.pack` and `Ring.monomial` take them, `Ring.exponents` returns them, and
no algorithm builds one: `Ring.monomials_of_degree` lists a degree packed.

Coefficients are canonical numbers: an int in 0..p-1 over GF(p); over the
rationals an int when integral, else a Fraction with denominator above 1,
so integral coefficients cost int arithmetic in every field. A field gives
`of` (the element of a number), `inv`, `red` (the canonical value of a sum,
difference or product of elements), `zero`, `one`, `to_str` and `name`;
arithmetic is Python's `+ - *` followed by one `red`. Only canonical
elements are stored, and zero is the only falsy one, so a polynomial never
holds a zero coefficient. Division multiplies by leading-coefficient
inverses stored once per basis element, tests each monomial for a divisor
once (see `normal_form`), and finds each divisor through an index of the
leading monomials by support (see `DivisionTable`). Buchberger
gives the monomial elements no pair loop of their own (see `buchberger`).
Every operation is deterministic: identical inputs give identical output,
including generator order inside computed bases.
"""
from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heapify, heappop, heappush
from functools import reduce
from itertools import accumulate, chain, combinations_with_replacement, islice
from operator import or_
from typing import NamedTuple


class OrderMismatch(ValueError):
    """Operands live in different rings (variables, field, or order differ)."""


# ---------------------------------------------------------------------------
# coefficient fields


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson & Webster 2015); larger characteristics are
# rejected rather than guessed.
PRIME_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Frozen:
    """Immutable instances of a __slots__ class, which sets its slots once,
    in __init__, through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PrimeField(_Frozen):
    """GF(p). A __slots__ class: `red` reads p on every arithmetic step."""

    __slots__ = ("p",)

    def __init__(self, p: int = 32003) -> None:
        if p >= PRIME_LIMIT:
            raise ValueError(
                f"field characteristic must be a prime below {PRIME_LIMIT}, got {p}"
            )
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        object.__setattr__(self, "p", p)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash((self.p,))

    def __repr__(self) -> str:
        return f"PrimeField(p={self.p!r})"

    @property
    def name(self) -> str:
        return f"gf({self.p})"

    def of(self, a) -> int:
        if isinstance(a, Fraction):
            return self.of(a.numerator) * self.inv(self.of(a.denominator)) % self.p
        return int(a) % self.p

    def red(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    zero = 0
    one = 1

    def to_str(self, a: int) -> str:
        # symmetric representative keeps binomials readable (p-1 prints as -1)
        return str(a - self.p if a > self.p // 2 else a)


class RationalField:
    """The rationals. An integral element is a Python int and any other a
    Fraction with denominator above 1, so the integral coefficients of the
    paper's bases (+-1) cost int arithmetic. Equality, hashing and printing
    agree between the two: 1 == Fraction(1), hash(1) == hash(Fraction(1))
    and str(3) == str(Fraction(3)). It has no state, so no attribute can be
    set, and every instance is equal to every other."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return True

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "RationalField()"

    @property
    def name(self) -> str:
        return "rational"

    def of(self, a) -> int | Fraction:
        return a if type(a) is int else self.red(Fraction(a))

    def red(self, a: int | Fraction) -> int | Fraction:
        # int arithmetic stays int; a Fraction result is in lowest terms,
        # and an integral one becomes its int
        if type(a) is int or a.denominator != 1:
            return a
        return a.numerator

    def inv(self, a: int | Fraction) -> int | Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.red(Fraction(1) / a)

    zero = 0
    one = 1

    def to_str(self, a: int | Fraction) -> str:
        return str(a)


def field_by_name(spec) -> PrimeField | RationalField:
    if spec == "rational":
        return RationalField()
    return PrimeField(int(spec))


# ---------------------------------------------------------------------------
# monomials and orders

# A monomial is one int: each variable's exponent sits in a field of
# FIELD_BITS bits whose top bit is a guard, and the total degree sits in a
# field above them (Bachmann & Schoenemann, "Monomial representations for
# Groebner bases computations", ISSAC 1998). Every valid monomial has every
# guard clear, so the product is a + b and a field that a product crosses
# shows up as a set guard.
FIELD_BITS = 16
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1
# 2**FIELD_BITS is 1 modulo _FIELD, so an exponent part taken modulo _FIELD
# is the sum of its fields whenever that sum is below _FIELD
_FIELD = (1 << FIELD_BITS) - 1


class MonomialOverflow(ValueError):
    """An exponent or a total degree exceeds MAX_EXPONENT."""


class _MonomialOrder(NamedTuple):
    kind: str
    inner: str


class MonomialOrder(_MonomialOrder):
    """A monomial order by name.

    kinds: lex, deglex, degrevlex, and elim (block order whose first
    variable dominates, with `inner` ordering the remaining variables;
    internal to elimination). The ring lays its monomials out for its order.
    """

    __slots__ = ()

    def __new__(cls, kind: str = "degrevlex", inner: str = "degrevlex"):
        if kind not in ("lex", "deglex", "degrevlex", "elim"):
            raise ValueError(f"unknown monomial order {kind!r}")
        if inner not in ("lex", "deglex", "degrevlex"):
            raise ValueError(f"unknown inner monomial order {inner!r}")
        return super().__new__(cls, kind, inner)


# ---------------------------------------------------------------------------
# ring and polynomials


class Ring(_Frozen):
    """Variables, coefficient field and monomial order.

    The ring packs its monomials (see FIELD_BITS) in a layout fixed by its
    order: under lex and deglex variable 0 has the top variable field, under
    degrevlex the last variable does, and the total degree sits above them.
    An elim ring puts its first variable @t in a field above that layout,
    outside the degree, so a monomial of the base ring is the same int in
    the elim ring and t*m is m + (1 << shift).

    `key(m)` orders monomials (bigger key = bigger monomial) and `degree(m)`
    is the total degree; both are set from the layout.

    A ring equals and hashes as its (names, field, order). It is a __slots__
    class: the engine's inner loops read its layout, and a slot is the
    fastest attribute to read.
    """

    __slots__ = (
        "names", "field", "order", "_hash", "key", "degree", "_shifts", "_units",
        "_guards", "_low", "_xmask", "_top", "_nbase", "_var_at",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        field: PrimeField | RationalField,
        order: MonomialOrder = MonomialOrder("degrevlex"),
    ) -> None:
        w, n = FIELD_BITS, len(names)
        elim = order.kind == "elim"
        if elim and not n:
            raise ValueError("an elimination order needs its first variable")
        inner = order.inner if elim else order.kind
        nbase = n - elim
        top = nbase * w  # the degree field
        fields = range(nbase) if inner == "degrevlex" else range(nbase - 1, -1, -1)
        shifts = [f * w for f in fields]
        units = [(1 << s) | 1 << top for s in shifts]
        if elim:
            shifts.insert(0, top + w)
            units.insert(0, 1 << top + w)  # outside the degree
        nfields = nbase + 1 + elim
        var_at = [None] * nfields  # the variable in each field
        for v, s in enumerate(shifts):
            var_at[s // w] = v
        low = (1 << top) - 1
        xmask = low | (_FIELD << top + w if elim else 0)
        if inner == "lex":
            key = xmask.__and__  # the exponents without the degree
        elif inner == "deglex":
            key = int  # the int itself
        else:
            key = low.__xor__  # larger exponents, lower key
        slots = {
            "names": names,
            "field": field,
            "order": order,
            # a run-memo key: hashed once, not once per lookup
            "_hash": hash((names, field, order)),
            "key": key,
            "degree": (lambda m: (m >> top) % _FIELD) if elim else top.__rrshift__,
            "_shifts": tuple(shifts),
            "_units": tuple(units),
            # the top bit of every field: (2**(k*w) - 1) // _FIELD has a 1 at
            # the bottom of each of k fields
            "_guards": ((1 << nfields * w) - 1) // _FIELD << w - 1,
            "_low": low,
            "_xmask": xmask,
            "_top": top,
            "_nbase": nbase,
            "_var_at": tuple(var_at),
        }
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            (self.names, self.field, self.order) == (other.names, other.field, other.order)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Ring(names={self.names!r}, field={self.field!r}, order={self.order!r})"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {0: self.field.one})

    def pack(self, exps: tuple) -> int:
        """The packed monomial of an exponent tuple."""
        if len(exps) != self.nvars:
            raise ValueError(f"{len(exps)} exponents for {self.nvars} variables")
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {tuple(exps)}")
        if max(exps, default=0) > MAX_EXPONENT:
            raise MonomialOverflow(f"an exponent of {tuple(exps)} exceeds {MAX_EXPONENT}")
        degree = sum(exps[self.nvars - self._nbase :])
        if degree > MAX_EXPONENT:
            raise MonomialOverflow(f"degree {degree} exceeds {MAX_EXPONENT}")
        return sum(e << s for e, s in zip(exps, self._shifts)) + (degree << self._top)

    def exponents(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        return tuple((m >> s) & _FIELD for s in self._shifts)

    def product(self, var_ids) -> int:
        """The packed monomial x_v1 * x_v2 * ... of the listed variables;
        a variable listed twice is squared."""
        if len(var_ids) > MAX_EXPONENT:
            raise MonomialOverflow(f"degree {len(var_ids)} exceeds {MAX_EXPONENT}")
        return sum(map(self._units.__getitem__, var_ids))

    def monomials_of_degree(self, degree: int) -> list[int]:
        """All packed products of `degree` variables, in the order of
        combinations_with_replacement over the variables."""
        return [self.product(c) for c in combinations_with_replacement(range(self.nvars), degree)]

    def _check_guards(self, m: int) -> None:
        if m & self._guards:
            raise MonomialOverflow(f"a product exceeds exponent or degree {MAX_EXPONENT}")

    def divides(self, b: int, a: int) -> bool:
        """Whether b divides a; then a - b is the quotient."""
        g = self._guards
        return ((a | g) - b) & g == g

    def lcm(self, a: int, b: int) -> int:
        g = self._guards
        # per field, the guard survives a - b exactly where a >= b
        sel = ((((a | g) - b) & g) >> FIELD_BITS - 1) * _FIELD
        x = ((a & sel) | (b & ~sel)) & self._xmask
        degree = (x & self._low) % _FIELD
        if degree > MAX_EXPONENT:
            raise MonomialOverflow(f"degree {degree} exceeds {MAX_EXPONENT}")
        return x | degree << self._top

    def monomial(self, exps: tuple, coeff=1) -> "Polynomial":
        m = self.pack(exps)
        c = self.field.of(coeff)
        return Polynomial(self, {m: c} if c else {})

    def var(self, i: int) -> "Polynomial":
        return Polynomial(self, {self._units[i]: self.field.one})

    def linear(self, var_ids) -> "Polynomial":
        p = self.zero()
        for i in var_ids:
            p = p.add(self.var(i))
        return p

    def mono_str(self, m: int) -> str:
        """The monomial as names and powers in variable order; visits only
        the fields that are set."""
        x = m & self._xmask
        parts = []
        while x:
            s = (x.bit_length() - 1) // FIELD_BITS * FIELD_BITS
            e = x >> s
            x ^= e << s
            v = self._var_at[s // FIELD_BITS]
            parts.append((v, self.names[v] if e == 1 else f"{self.names[v]}^{e}"))
        parts.sort()
        return "*".join(p for _, p in parts) or "1"

    def join_names(self, var_ids) -> str:
        """mono_str of the square-free monomial of var_ids, given in
        increasing order, with no monomial packed."""
        return "*".join(map(self.names.__getitem__, var_ids)) or "1"


class Polynomial:
    __slots__ = ("ring", "terms", "_lt", "_hash")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lt = None
        self._hash = None

    def is_zero(self) -> bool:
        return not self.terms

    def lt(self) -> tuple:
        """(monomial, coefficient) of the leading term."""
        if self._lt is None:
            if not self.terms:
                raise ValueError("the zero polynomial has no leading term")
            m = max(self.terms, key=self.ring.key)
            self._lt = (m, self.terms[m])
        return self._lt

    def lm(self) -> tuple:
        return self.lt()[0]

    def degree(self) -> int:
        return max(map(self.ring.degree, self.terms), default=-1)

    def _same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise OrderMismatch("polynomials from different rings")

    def add(self, other: "Polynomial") -> "Polynomial":
        self._same_ring(other)
        f = self.ring.field
        red, zero = f.red, f.zero
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = red(t.get(m, zero) + c)
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        return Polynomial(self.ring, t)

    def neg(self) -> "Polynomial":
        red = self.ring.field.red
        return Polynomial(self.ring, {m: red(-c) for m, c in self.terms.items()})

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def mul_term(self, mono: int, coeff) -> "Polynomial":
        f = self.ring.field
        c0, red = f.of(coeff), f.red
        if not c0:
            return self.ring.zero()
        terms = {m + mono: red(c * c0) for m, c in self.terms.items()}
        self.ring._check_guards(reduce(or_, terms, 0))  # every product at once
        return Polynomial(self.ring, terms)

    def mul(self, other: "Polynomial") -> "Polynomial":
        self._same_ring(other)
        out = self.ring.zero()
        for m, c in other.terms.items():
            out = out.add(self.mul_term(m, c))
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        _, c = self.lt()
        if c == self.ring.field.one:
            return self
        return self.mul_term(0, self.ring.field.inv(c))

    def sorted_terms(self) -> list[tuple]:
        terms = self.terms
        return [(m, terms[m]) for m in sorted(terms, key=self.ring.key, reverse=True)]

    def sort_key(self):
        key = self.ring.key
        return tuple((key(m), str(c)) for m, c in self.sorted_terms())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        # terms are never changed after construction; run-memo keys hash
        # the same generators once per lookup
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"<poly {self}>"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        f = self.ring.field
        out = []
        terms = self.sorted_terms() if len(self.terms) > 1 else self.terms.items()
        for m, c in terms:
            cs = f.to_str(c)
            mono = self.ring.mono_str(m)
            if mono == "1":
                piece = cs
            elif cs == "1":
                piece = mono
            elif cs == "-1":
                piece = f"-{mono}"
            else:
                piece = f"{cs}*{mono}"
            if out and not piece.startswith("-"):
                out.append(f"+ {piece}")
            elif out:
                out.append(f"- {piece[1:]}")
            else:
                out.append(piece)
        return " ".join(out)


# ---------------------------------------------------------------------------
# division and Buchberger

# Work counters: input-determined, unlike wall-clock time, so reports built
# from them stay byte-identical across runs.
counters: dict[str, int] = {}

# Answers already computed in the current run scope, keyed by value; None
# outside a scope, where nothing is cached.
_memo: ContextVar[dict | None] = ContextVar("binomext_memo", default=None)
_MISSING = object()


def reset_counters() -> None:
    counters.clear()


def _bump(key: str, n: int = 1) -> None:
    counters[key] = counters.get(key, 0) + n


@contextmanager
def run_scope():
    """One run: the counters restart from zero, and each answer requested
    through `memoized` inside the scope is computed once."""
    reset_counters()
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def memoized(key, compute):
    """compute(), or the value the current run scope already holds for key.

    Keys are values (rings, polynomials, integers), never object identities,
    so equal inputs built twice share one answer. Values must be immutable.
    Each key is a tuple that starts with its own string tag, and each place
    after the tag holds one type: a NamedTuple record also equals a plain
    tuple of the same items, and no key can meet such a twin.
    """
    memo = _memo.get()
    if memo is None:
        return compute()
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


class DivisionTable(list):
    """Rows (leading monomial, ...) in basis order, and an index of them by
    support: the guard bits of the fields where a monomial is positive. Each
    row sits in the bucket of its support's lowest bit (a constant's in the
    bucket of bit 0, which no guard uses); a divisor of m has its support
    inside m's, so only the buckets of m's bits and the constant's can hold
    one. Rows are only ever appended."""

    __slots__ = ("buckets", "_keys", "_guards", "_ones")

    def __init__(self, guards: int, rows=()) -> None:
        super().__init__()
        self.buckets: dict[int, list[tuple]] = {}
        self._keys = 0  # the bits that key a bucket
        self._guards = guards
        self._ones = guards >> FIELD_BITS - 1
        for row in rows:
            self.append(row)

    def append(self, row: tuple) -> None:
        s = ((row[0] | self._guards) - self._ones) & self._guards
        k = s & -s or 1
        self._keys |= k
        self.buckets.setdefault(k, []).append((len(self),) + row)
        super().append(row)

    def divisor(self, m: int) -> tuple | None:
        """(position,) + row of the first row, in table order, whose
        leading monomial divides m; None if there is none."""
        guards, buckets = self._guards, self.buckets
        mg = m | guards
        s = ((mg - self._ones) & guards | 1) & self._keys
        best = None
        at = len(self)
        while s:
            b = s & -s
            s ^= b
            for row in buckets[b]:
                if row[0] >= at:
                    break
                if (mg - row[1]) & guards == guards:
                    best = row
                    at = row[0]
                    break
        return best


def division_table(basis: list[Polynomial], ring: Ring) -> DivisionTable:
    """The DivisionTable of the nonzero elements of basis, in listed order.
    Built once per basis, so each element's ring is checked and its leading
    coefficient inverted once, not once per reduction step."""
    for g in basis:
        if g.ring is not ring and g.ring != ring:
            raise OrderMismatch("basis polynomial from a different ring")
    inv = ring.field.inv
    rows = ((g.lm(), inv(g.lt()[1]), g.terms) for g in basis if g.terms)
    return DivisionTable(ring._guards, rows)


def normal_form(
    f: Polynomial, basis: list[Polynomial], table: DivisionTable | None = None
) -> Polynomial:
    """Remainder of multivariate division of f by basis (in listed order).

    A caller that divides many polynomials by one basis passes its
    `division_table(basis, f.ring)` as table, which then stands for basis.

    Each monomial is tested for a divisor once: f's terms up front, a term
    that a reduction step creates when it first appears. A term with no
    divisor goes straight to the remainder; the others are reduced largest
    first, each by its first divisor in table order. The remainder depends
    only on that choice of divisor per monomial, so it is the one of the
    loop that tests the largest term left at every step. When no term of f
    has a divisor, f itself is returned.
    """
    _bump("normal_forms")
    ring = f.ring
    if table is None:
        table = division_table(basis, ring)
    divisor, terms = table.divisor, f.terms
    rows = {}  # the divisor row of each monomial met, None for none
    h = {}  # the reducible terms
    for m in terms:
        if (row := divisor(m)) is not None:
            h[m] = terms[m]
        rows[m] = row
    if not h:
        return f
    key, guards = ring.key, ring._guards
    red, zero = ring.field.red, ring.field.zero
    rem = {m: c for m, c in terms.items() if m not in h}
    while h:
        hm = max(h, key=key)
        _, gm, ginv, gterms = rows[hm]
        q, c = hm - gm, red(h[hm] * ginv)
        # h + rem -= c * q * g; the leading terms cancel
        for m, a in gterms.items():
            p = m + q
            if p & guards:
                ring._check_guards(p)
            row = rows.get(p, _MISSING)
            if row is _MISSING:
                row = rows[p] = divisor(p)
            part = rem if row is None else h
            s = red(part.get(p, zero) - a * c)
            if s:
                part[p] = s
            else:
                del part[p]
    return Polynomial(ring, rem)


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of f and g.

    Precondition: f and g are monic (as `buchberger` builds its basis), so
    each is only shifted to the lcm of the two leading monomials, where the
    leading terms cancel: one pass writes f's shifted tail, the next
    subtracts g's. A shifted term that crosses a field raises.
    """
    ring = f.ring
    fm, gm = f.lm(), g.lm()
    l = ring.lcm(fm, gm)
    guards, red, zero = ring._guards, ring.field.red, ring.field.zero
    s = {}
    for terms, lead, sign in ((f.terms, fm, 1), (g.terms, gm, -1)):
        q = l - lead
        for m, c in terms.items():
            if m != lead:
                p = m + q
                if p & guards:
                    ring._check_guards(p)
                v = red(s.get(p, zero) + sign * c)
                if v:
                    s[p] = v
                else:
                    del s[p]
    return Polynomial(ring, s)


def _interreduce(gb: list[Polynomial]) -> list[Polynomial]:
    """The reduced basis of the ideal, largest leading monomial first.

    Precondition: gb is a Groebner basis of monic polynomials (as
    `buchberger` builds it). One pass in ascending leading-monomial order
    drops each element whose leading monomial a kept one divides and reduces
    the others by the kept ones: a tail term of p lies below lm(p), so only
    an already kept (and already reduced) element can divide it.
    """
    kept: list[Polynomial] = []
    if not gb:
        return kept
    ring = gb[0].ring
    key, one = ring.key, ring.field.one
    table = DivisionTable(ring._guards)  # division_table(kept)
    for p in sorted(gb, key=lambda p: key(p.lm())):
        if table.divisor(p.lm()) is None:
            r = normal_form(p, kept, table)
            kept.append(r)
            table.append((r.lm(), one, r.terms))  # r is monic
    return kept[::-1]


def buchberger(generators: list[Polynomial], ring: Ring | None = None) -> list[Polynomial]:
    """Unique reduced monic Groebner basis, independent of generator order.

    Every element, generators included, enters through Becker &
    Weispfenning's UPDATE, their form of Gebauer & Moeller's installation
    (Gebauer & Moeller, "On an installation of Buchberger's algorithm", JSC
    1988; Becker & Weispfenning, Groebner Bases, 1993, 5.5). The new element
    h pairs with live elements, those whose leading monomial no later
    element divides; no live leading monomial divides another. In that
    candidate order, criteria M and F drop a pair when a later candidate or
    a kept one has an lcm dividing its own. Criterion B_k drops each pending
    pair (i, j) whose lcm lm(h) divides and differs from lcm(i, h) and
    lcm(j, h). Last, the elements whose leading monomial lm(h) divides stop
    being live; none does when lm(h) is above every leading monomial so far,
    as a divisor is never above its multiple in the order.

    Trivial pairs, whose S-polynomials reduce to zero, are never candidates.
    A pair with coprime leading monomials (disjoint supports) is one: its
    lcm lm(i)*lm(h) divides another candidate's lcm(lm(j), lm(h)) only if
    lm(i) divides lm(j), so it drops nothing either. A pair of two monomials
    is the other: the live monomials and the live non-monomials are kept
    apart, in install order, and a new monomial h pairs only with the live
    non-monomials. As lm(h) divides every candidate's lcm, its pair with a
    live monomial m would drop a candidate exactly when m divides that lcm,
    which criterion M asks directly. So the pairs reduced are those of the
    installation that forms every pair (Miller & Sturmfels, Combinatorial
    Commutative Algebra, 2005, ch. 1, for monomial S-pairs).

    Overflow: an lcm's degree is at most the sum of its two degrees, so
    none can pass MAX_EXPONENT while h's degree plus the largest degree so
    far does not. Only past that bound are h's lcms with every live element
    formed, in install order, and the first past MAX_EXPONENT raises. An
    S-polynomial term that crosses a field raises in `_s_polynomial`.

    Normal selection: pending pairs sit in a heap keyed, once when the pair
    is created, by (lcm degree, lcm order key, indices), so pairs leave it
    smallest lcm first with ties broken by index. The counter `s_pairs`
    counts the pairs whose S-polynomial is reduced.
    """
    gens = [g for g in generators if not g.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("an empty generator list needs an explicit ring")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise OrderMismatch("generator from a different ring")
    degree, key, lcm, guards = ring.degree, ring.key, ring.lcm, ring._guards
    # a support is the guard bits of the positive variable fields, and an
    # lcm's overflow check reads the degree field
    ones, keep, top = guards >> FIELD_BITS - 1, guards & ring._xmask, ring._top
    one = ring.field.one
    basis: list[Polynomial] = []
    table = DivisionTable(guards)  # division_table(basis)
    lms: list[int] = []
    sups: list[int] = []  # the support of each leading monomial
    live: list[int] = []  # the live non-monomials
    mlive: list[int] = []  # the live monomials
    dmax = 0  # the largest degree field of an element (an elim ring leaves @t out)
    kmax = -1  # the largest order key of a leading monomial
    queue: list[tuple] = []

    def install(h: Polynomial) -> None:
        nonlocal live, mlive, dmax, kmax, queue
        n, hm, hmono = len(basis), h.lm(), len(h.terms) == 1
        hs, hd = ((hm | guards) - ones) & keep, hm >> top & _FIELD
        basis.append(h)
        table.append((hm, one, h.terms))  # h is monic
        lms.append(hm)
        sups.append(hs)
        if hd + dmax > MAX_EXPONENT:
            for i in sorted(live + mlive):
                lcm(lms[i], hm)  # the first lcm past MAX_EXPONENT raises
        dmax = max(dmax, hd)
        others = live if hmono else sorted(live + mlive)  # install order
        cands = [(lcm(lms[i], hm), i) for i in others if sups[i] & hs]  # supports meet
        kept = []  # criteria M and F
        for c, cand in enumerate(cands):
            lg = cand[0] | guards
            if not (
                any(
                    (lg - e[0]) & guards == guards
                    for e in chain(islice(cands, c + 1, None), kept)
                )
                or hmono
                and any((lg - lms[m]) & guards == guards for m in mlive)
            ):
                kept.append(cand)
        gone = set()  # criterion B_k
        with_h = {i: l for l, i in cands}
        for _, _, (i, j), l in queue:
            if (
                ((l | guards) - hm) & guards == guards
                and (with_h[i] if i in with_h else lcm(lms[i], hm)) != l
                and (with_h[j] if j in with_h else lcm(lms[j], hm)) != l
            ):
                gone.add((i, j))
        if gone:
            queue = [e for e in queue if e[2] not in gone]
            heapify(queue)
        for l, i in kept:
            # (i, n) is unique, so the lcm in the last slot is never compared
            heappush(queue, (degree(l), key(l), (i, n), l))
        hk = key(hm)
        if hk <= kmax:
            live = [i for i in live if ((lms[i] | guards) - hm) & guards != guards]
            mlive = [i for i in mlive if ((lms[i] | guards) - hm) & guards != guards]
        kmax = max(kmax, hk)
        (mlive if hmono else live).append(n)

    # progressive reduction keeps the ideal intact (unlike dropping a
    # generator because its leading term repeats, which is only sound
    # once the list is a Groebner basis)
    for g in sorted(gens, key=lambda p: p.sort_key()):
        r = normal_form(g, basis, table)
        if r.terms:
            install(r.monic())
    while queue:
        _, _, (i, j), _ = heappop(queue)
        _bump("s_pairs")
        r = normal_form(_s_polynomial(basis[i], basis[j]), basis, table)
        if r.terms:
            install(r.monic())
    return _interreduce(basis)


def groebner_basis(generators: list[Polynomial], ring: Ring) -> list[Polynomial]:
    """buchberger(generators, ring), computed once per run scope for each
    ring and generator set; the caller owns the returned list."""
    key = ("groebner", ring, frozenset(g for g in generators if not g.is_zero()))
    return list(memoized(key, lambda: tuple(buchberger(generators, ring))))


# ---------------------------------------------------------------------------
# elimination / intersection


def _to_elim_ring(p: Polynomial, ext: Ring, side) -> Polynomial:
    """Embed p with a fresh first variable t; side scales by t or (1-t).

    p's monomials are the same ints in ext, and t is ext's unit for @t."""
    t = ext._units[0]
    top = {m + t: c for m, c in p.terms.items()}  # t * p
    if side == "t":
        return Polynomial(ext, top)
    red = ext.field.red
    return Polynomial(ext, p.terms | {m: red(-c) for m, c in top.items()})  # (1 - t) * p


def ideal_intersection(
    i_gens: list[Polynomial], j_gens: list[Polynomial], ring: Ring
) -> list[Polynomial]:
    """Reduced basis of I cap J via elimination of t from t*I + (1-t)*J.

    The t-free elements of the reduced elimination basis are the reduced
    basis of I cap J, already in descending order (Cox, Little & O'Shea,
    Ideals, Varieties, and Algorithms, 2.7 and 3.1).
    """
    ext = Ring(("@t",) + ring.names, ring.field, MonomialOrder("elim", ring.order.kind))
    gens = [_to_elim_ring(p, ext, "t") for p in i_gens]
    gens += [_to_elim_ring(p, ext, "1-t") for p in j_gens]
    t = ext._units[0]  # every monomial below t is t-free
    return [
        Polynomial(ring, dict(p.terms)) for p in groebner_basis(gens, ext) if max(p.terms) < t
    ]


def ideal_intersection_many(gen_lists: list[list[Polynomial]], ring: Ring) -> list[Polynomial]:
    """Reduced basis of the intersection of the listed ideals.

    A balanced fold: each round intersects neighbours, (a0 cap a1),
    (a2 cap a3), ..., and carries an odd last ideal to the next round, so an
    elimination carries about half of the ideals rather than all folded so
    far. a0 is GB(first ideal) and every other leaf its generator list; with
    at most three ideals that is the sequential fold.
    """
    if not gen_lists:
        raise ValueError("need at least one ideal")
    layer = [groebner_basis(gen_lists[0], ring), *gen_lists[1:]]
    while len(layer) > 1:
        pairs = [ideal_intersection(a, b, ring) for a, b in zip(layer[::2], layer[1::2])]
        layer = pairs + layer[len(pairs) * 2 :]
    return layer[0]


# ---------------------------------------------------------------------------
# Hilbert data of the leading-term ideal


class HilbertData(NamedTuple):
    dimension: int
    codimension: int
    degree: int
    numerator: tuple[int, ...]  # Hilbert series numerator over (1-t)^nvars


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_shift(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    return (0,) * k + a


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _minimalize(monos, guards: int) -> tuple[int, ...]:
    """The minimal generators of the ideal of packed monomials, ascending.

    A divisor of m is m less a monomial, so never a larger int: one ascending
    pass keeps each monomial that no kept one divides.
    """
    out = DivisionTable(guards)
    for m in sorted(set(monos)):
        if out.divisor(m) is None:
            out.append((m,))
    return tuple(row[0] for row in out)


def _hilbert_numerator(gens: tuple[int, ...], ring: Ring, memo: dict) -> tuple[int, ...]:
    """Numerator over (1-t)^nvars of the Hilbert series of R/(gens), for
    minimal packed monomials gens in ascending order.

    Pivots on the variable x_v in the most supports, ties to the lowest v:
    N(I) = N(I + x_v) + t N(I : x_v) (Bigatti, Computation of
    Hilbert-Poincare series, JPAA 1997).
    """
    if not gens:
        return (1,)
    if gens in memo:
        return memo[gens]
    guards, xmask = ring._guards, ring._xmask
    # the guard of each field survives (m | guards) - 1 exactly where m's
    # exponent is positive; the degree field's guard is masked off
    ones = guards >> FIELD_BITS - 1
    sups = [((m | guards) - ones) & guards & xmask for m in gens]
    union = 0
    for s in sups:
        if s & union:
            break
        union |= s
    else:
        # pairwise coprime: the product of the (1 - t^deg m)
        out = (1,)
        for m in gens:
            d = (m & xmask) % _FIELD  # the sum of the exponent fields
            out = _poly_mul(out, (1,) + (0,) * (d - 1) + (-1,))
        memo[gens] = out
        return out
    counts: dict[int, int] = {}  # guard bit -> supports holding it
    for s in sups:
        while s:
            bit = s & -s
            counts[bit] = counts.get(bit, 0) + 1
            s ^= bit
    var_at = ring._var_at
    bits = {var_at[b.bit_length() // FIELD_BITS - 1]: b for b in counts}
    v = max(bits, key=lambda v: (counts[bits[v]], -v))
    bit, u = bits[v], ring._units[v]
    # I + x_v is already minimal: no other generator holds x_v
    plus = [m for m, s in zip(gens, sups) if not s & bit]
    insort(plus, u)
    quot = _minimalize([m - u if s & bit else m for m, s in zip(gens, sups)], guards)
    out = _poly_add(
        _hilbert_numerator(tuple(plus), ring, memo),
        _poly_shift(_hilbert_numerator(quot, ring, memo), 1),
    )
    memo[gens] = out
    return out


def hilbert_data(gb: list[Polynomial], ring: Ring) -> HilbertData:
    gens = _minimalize([g.lm() for g in gb], ring._guards)
    if 0 in gens:
        raise ValueError("unit ideal has no Hilbert data")
    trim = list(_hilbert_numerator(gens, ring, {}))
    while trim and trim[-1] == 0:
        trim = trim[:-1]
    num = tuple(trim) if trim else (0,)
    codim, q = 0, list(num)
    while sum(q) == 0:
        # divide by (1 - t): running prefix sums
        q = list(accumulate(q[:-1])) or [0]
        codim += 1
    degree = sum(q)
    if degree < 1:
        raise ValueError(f"numerator {num} gives degree {degree}, not a positive one")
    return HilbertData(
        dimension=ring.nvars - codim,
        codimension=codim,
        degree=degree,
        numerator=num,
    )


def krull_dimension_lt(gb: list[Polynomial], ring: Ring) -> int:
    """dim R/lt(I): the size of the largest variable set that holds the
    support of no leading monomial (a maximal independent set; Kredel &
    Weispfenning, "Computing dimension and independent sets for polynomial
    ideals", JSC 1988).

    A support is the set of guard bits of the fields where the monomial's
    exponent is positive. Sets grow one variable at a time in a fixed
    candidate order, each new variable tested only against the supports
    that hold it; a branch stops when its size plus the candidates left
    cannot beat the best set found.
    """
    guards = ring._guards
    ones = guards >> FIELD_BITS - 1
    keep = guards & ring._xmask
    sups = {((g.lm() | guards) - ones) & keep for g in gb}
    if 0 in sups:
        raise ValueError("unit ideal has no dimension")
    bits = [1 << s + FIELD_BITS - 1 for s in ring._shifts]
    holding = {v: [s for s in sups if s & v] for v in bits}
    # a variable in no support joins every maximal set
    free = sum(not holding[v] for v in bits)
    cands = [v for v in bits if holding[v]]
    best = 0

    def grow(chosen: int, size: int, rest: list[int]) -> None:
        nonlocal best
        best = max(best, size)
        for k, v in enumerate(rest):
            if size + len(rest) - k <= best:
                return
            c = chosen | v
            if all(s & c != s for s in holding[v]):
                grow(c, size + 1, rest[k + 1 :])

    grow(0, 0, cands)
    return free + best


def has_standard_monomials(gb: list[Polynomial], ring: Ring, degree: int) -> bool:
    """Whether some monomial of the given degree is divisible by no leading
    monomial of gb: then HF(R/I) = HF(R/lt I) is positive there (Macaulay).

    A divisor of a standard monomial is standard, so the standard monomials
    of each degree are the multiples s*x of the previous degree's that no
    leading monomial divides; one that divides s*x but not s holds x. The
    degrees grow from 0 and stop at the first that has none.
    """
    lms = [g.lm() for g in gb]
    if 0 in lms:
        return False
    guards = ring._guards
    # each variable's unit and the leading monomials that hold it
    steps = [
        (u, [l for l in lms if l >> shift & _FIELD])
        for u, shift in zip(ring._units, ring._shifts)
    ]
    layer = {0}
    for _ in range(degree):
        grown = set()
        for s in layer:
            for u, holding in steps:
                m = s + u
                if m not in grown:
                    mg = m | guards
                    if not any((mg - l) & guards == guards for l in holding):
                        grown.add(m)
        if not grown:
            return False
        layer = grown
    return True


# ---------------------------------------------------------------------------
# exact rank


def rref_rows(rows: list[dict[int, object]], ncols: int, field) -> tuple[int, dict[int, dict]]:
    """Reduced row echelon form of sparse rows; returns (rank, pivot -> row).

    Exact sparse elimination over any field object, so no characteristic can
    overflow. Entries must be canonical elements of the field. Each column
    keeps the ids of the rows that hold it, so column c's pivot, the lowest
    unreduced row holding c, and the rows to clear of c are read off, not
    searched for.
    """
    red, zero = field.red, field.zero
    work = [dict(r) for r in rows if r]
    _bump("rank_rows", len(work))
    holders: dict[int, set[int]] = {}
    for i, r in enumerate(work):
        for j in r:
            holders.setdefault(j, set()).add(i)
    pivrows: dict[int, dict] = {}
    reduced: set[int] = set()  # ids of the pivot rows
    for c in range(ncols):
        held = holders.get(c, ())
        pick = min((i for i in held if i not in reduced), default=None)
        if pick is None:
            continue
        inv = field.inv(work[pick][c])
        row = work[pick] = {j: red(v * inv) for j, v in work[pick].items()}
        # clear column c from the rows still to be reduced and from the
        # pivot rows already found, so the result is fully reduced
        for i in list(held):
            if i == pick:
                continue
            r = work[i]
            f = r[c]
            for j, v in row.items():
                nv = red(r.get(j, zero) - f * v)
                if nv:
                    if j not in r:
                        holders.setdefault(j, set()).add(i)
                    r[j] = nv
                elif j in r:
                    del r[j]
                    holders[j].discard(i)
        reduced.add(pick)
        pivrows[c] = row
    return len(pivrows), pivrows


def covered_columns(pivrows: dict[int, dict]) -> set[int]:
    """Columns whose unit vector lies in the row space (RREF row is a unit)."""
    return {c for c, row in pivrows.items() if len(row) == 1}
