"""Sparse multivariate polynomials over the integers.

The ring carries the indexed variable families of `_FAMILIES`, one row
each:

* ``x[i]^(j)`` -- doubly indexed x variables (subscript i, superscript j),
* ``y[l]``     -- singly indexed y variables,
* ``a[j]^(i)`` -- doubly indexed alpha variables (subscript j, superscript i).

Variables are totally ordered by family (all x < all y < all a), then by
(subscript, superscript).  A polynomial is a map from monomials to nonzero
integer coefficients.  Every ``Poly`` is canonical by construction, so
equal polynomials compare equal as objects and serialize to identical
text.

Representation.  At the interface a monomial is a sorted tuple of
(variable, exponent) pairs with positive exponents (``Monomial``).
Inside a ``Poly`` it is an int, the product of p(v)^e over its variables
v, and the unit monomial is ``1``.  Here p(v) is the prime that a
process-wide registry gives to the code of v the first time that code is
used: the least prime not yet given, so the primes given are the first
few in order and none is built at import.  The code of a variable is
family + F·Cantor(sub, sup), F the number of families, a bijection with
no lookup table behind it.  A registry read takes no lock; a miss
registers its prime under `_REGISTRY_LOCK`, and lists it for decoding
before publishing it, so any number of threads can encode and decode at
once.  A monomial product is ``m1 * m2``, one int multiplication, with
no exponent bound to guard; a product of polynomials with s and t terms
costs s * t of them.  A monomial is decoded, by trial division over the
registered primes until the cofactor is 1, only where a caller sees
variables: ``terms``, ``variables``, ``evaluate``, the text form and
pickling.  Primes differ from one process to the next, so a pickle holds
variable codes, never the ints.

Text form: terms are ordered by descending total degree, ties broken by
the variable order, and rendered like ``3*x[1]^(1)*y[2] - y[3]``.  An
exponent >= 2 is a trailing ``^e`` after the variable, e.g. ``y[2]^3`` or
``x[1]^(2)^2`` (the parenthesized superscript is part of the variable
name, the bare one is the power).  ``parse_poly`` reads this format
back, and the round trip is its grammar: it refuses a text unless ``str``
writes exactly that text for what was read.  It is the one route by which
a caller hands the ring an exponent, and it refuses one above
`_MAX_EXPONENT` before building any power: decoding p^e divides e times,
so its cost grows as e squared.

Canonical form is kept in one place: `_merge`, which adds terms into a
map, and `_add_product`, the one product kernel, which adds p * q into a
map, are the only code that drops a coefficient cancelled to zero, and
`_poly` wraps a map that is already canonical.  `Poly.__mul__` and
`poly_dot`, a sum of products with one accumulator, both run on
`_add_product`.
"""

from __future__ import annotations

import re
import sys
import threading
from math import isqrt
from typing import Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "VarId",
    "xvar",
    "yvar",
    "avar",
    "Poly",
    "poly_sum",
    "poly_prod",
    "poly_dot",
    "parse_poly",
    "PolyParseError",
    "value_text",
]

# The variable families: each one's letter, and whether its variables
# carry a superscript.  A family's position is its code and its sort rank,
# so every x precedes every y precedes every a.
_FAMILIES = (("x", True), ("y", False), ("a", True))
FAM_X, FAM_Y, FAM_A = range(len(_FAMILIES))


class VarId(NamedTuple):
    """One variable.  Tuple order is the canonical variable order."""

    family: int
    sub: int
    sup: int

    def __str__(self) -> str:
        letter, has_sup = _FAMILIES[self.family]
        return f"{letter}[{self.sub}]^({self.sup})" if has_sup else f"{letter}[{self.sub}]"


def _checked_var(v: VarId) -> VarId:
    """`v`, a ValueError unless it is a variable of the ring: a family of
    `_FAMILIES`, int indices that are not bools, sub >= 1, and sup >= 1 in
    a family that carries a superscript, 0 in one that does not.  Any other
    triple has a text form that `parse_poly` reads as a different variable
    or refuses."""
    family, sub, sup = v
    if not (type(family) is type(sub) is type(sup) is int and 0 <= family < len(_FAMILIES)
            and sub >= 1 and (sup >= 1 if _FAMILIES[family][1] else sup == 0)):
        raise ValueError(f"not a variable: {v!r}")
    return v


def xvar(i: int, j: int) -> VarId:
    """The variable x[i]^(j)."""
    return _checked_var(VarId(FAM_X, i, j))


def yvar(l: int) -> VarId:
    """The variable y[l]."""
    return _checked_var(VarId(FAM_Y, l, 0))


def avar(j: int, i: int) -> VarId:
    """The variable a[j]^(i) (subscript j, superscript i)."""
    return _checked_var(VarId(FAM_A, j, i))


# A monomial as callers see it: ((VarId, exponent), ...) sorted by VarId,
# exponents >= 1.  The empty tuple is the unit monomial.
Monomial = tuple  # tuple[tuple[VarId, int], ...]


def _var_code(v: VarId) -> int:
    """family + F * Cantor(sub, sup), F the number of families: a bijection
    from the triples with a family of `_FAMILIES` and non-negative indices
    onto the non-negative ints.  It checks nothing: `_checked_var` is the
    door for a caller's `VarId`."""
    family, sub, sup = v
    w = sub + sup
    return family + len(_FAMILIES) * (w * (w + 1) // 2 + sup)


def _coefficient(c) -> int:
    """`c`, a TypeError unless it is an int and not a bool: the text form
    says only ints."""
    if isinstance(c, bool) or not isinstance(c, int):
        raise TypeError(f"polynomial coefficients must be ints, got {c!r}")
    return c


def _code_var(code: int) -> VarId:
    pair, family = divmod(code, len(_FAMILIES))
    w = (isqrt(8 * pair + 1) - 1) // 2
    sup = pair - w * (w + 1) // 2
    return VarId(family, w - sup, sup)


# The prime registry: `_PRIMES` maps a variable code to its prime, and
# `_REGISTERED` lists the (prime, code) pairs in the order given, which is
# ascending prime order.
_PRIMES: dict[int, int] = {}
_REGISTERED: list[tuple[int, int]] = []
_REGISTRY_LOCK = threading.Lock()


def _prime(code: int) -> int:
    """The prime of variable code `code`; on a miss, the least prime above
    every one given.  A pair is listed before its code is published, so
    `_factor` knows every prime a monomial can hold."""
    p = _PRIMES.get(code)
    if p is None:
        with _REGISTRY_LOCK:
            p = _PRIMES.get(code)
            if p is None:
                p = _REGISTERED[-1][0] + 1 if _REGISTERED else 2
                while not all(p % q for q in range(2, isqrt(p) + 1)):
                    p += 1
                _REGISTERED.append((p, code))
                _PRIMES[code] = p
    return p


def _monomial(powers: Iterable[tuple[int, int]]) -> int:
    """The monomial of (code, exponent) pairs."""
    mono = 1
    for code, e in powers:
        mono *= _prime(code) ** e
    return mono


def _factor(mono: int) -> list[tuple[int, int]]:
    """The (code, exponent) pairs of `mono`, in registry order, by trial
    division over the registered primes until the cofactor is 1."""
    powers = []
    for p, code in _REGISTERED:
        if mono == 1:
            break
        e = 0
        while mono % p == 0:
            mono //= p
            e += 1
        if e:
            powers.append((code, e))
    return powers


def _decode(mono: int) -> Monomial:
    return tuple(sorted((_code_var(code), e) for code, e in _factor(mono)))


def _term_sort_key(m: Monomial):
    # Descending total degree, then the variable order with larger powers
    # of earlier variables first (graded lexicographic).
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


def _merge(data: dict, terms: Iterable[tuple[int, int]], sign: int = 1) -> dict:
    """Add sign * coeff into `data` for each (monomial, coeff) of
    `terms`, dropping every coefficient that cancels to zero; returns
    `data`.  sign is 1 or -1, taken by a branch: a product per term would
    cost a new int per term, about 10% of a large sum."""
    get = data.get
    for mono, coeff in terms:
        new = get(mono, 0) + coeff if sign > 0 else get(mono, 0) - coeff
        if new:
            data[mono] = new
        else:
            data.pop(mono, None)
    return data


def _add_product(data: dict, left: dict, right: dict) -> dict:
    """Add the product of the monomial maps `left` and `right` into
    `data`, dropping every coefficient that cancels to zero; returns
    `data`.  The hot loop of theorem3: it makes no map per product and
    calls no `_merge` per row."""
    get = data.get
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            mono = m1 * m2
            new = get(mono, 0) + c1 * c2
            if new:
                data[mono] = new
            else:
                del data[mono]
    return data


class Poly:
    """An immutable polynomial with integer coefficients.

    Construct via `Poly.zero()` (the same as `Poly()`, which takes no
    argument), `Poly.const(c)`, `Poly.variable(v)`, `parse_poly` or the
    arithmetic operators; there is no constructor from a {monomial:
    coefficient} mapping.  Ints coerce in mixed arithmetic, so `2 * p + 1`
    works.  A coefficient that is a bool or not an int is a TypeError, and
    a `VarId` that `xvar`, `yvar` or `avar` would not return is a
    ValueError, so every `Poly` has a text form, which `parse_poly` reads
    back unless a product raised a variable past `_MAX_EXPONENT`.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly.const(1)

    @staticmethod
    def const(c: int) -> "Poly":
        return _poly({1: c} if _coefficient(c) else {})

    @staticmethod
    def variable(v: VarId) -> "Poly":
        return _poly({_prime(_var_code(_checked_var(v))): 1})

    # -- basic queries -----------------------------------------------------

    def constant_value(self) -> int:
        """The value of a constant polynomial; raises on a non-constant one."""
        if self._terms.keys() <= {1}:
            return self._terms.get(1, 0)
        raise ValueError(f"polynomial is not constant: {self}")

    def term_count(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        """(monomial, coefficient) pairs in canonical term order."""
        decoded = [(_decode(mono), coeff) for mono, coeff in self._terms.items()]
        decoded.sort(key=lambda term: _term_sort_key(term[0]))
        yield from decoded

    def variables(self) -> frozenset[VarId]:
        return frozenset(map(_code_var, {c for mono in self._terms for c, _ in _factor(mono)}))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        try:
            return Poly.const(other)
        except TypeError:
            return None

    def __add__(self, other) -> "Poly":
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        return _poly(_merge(dict(self._terms), o._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        # one pass into a copy of the minuend, with no negated temporary
        return _poly(_merge(dict(self._terms), o._terms.items(), -1))

    def __rsub__(self, other) -> "Poly":
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Poly":
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        # the one product kernel, which `poly_dot` shares
        return _poly(_add_product({}, self._terms, o._terms))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        terms = self._terms
        if terms.keys() <= {1}:  # a constant hashes as the int it equals
            return hash(terms.get(1, 0))
        return hash(frozenset(terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __reduce__(self):
        # primes are given per process, so a pickle holds variable codes
        return _from_codes, (tuple((tuple(_factor(m)), c) for m, c in self._terms.items()),)

    # -- evaluation and text -----------------------------------------------

    def evaluate(self, assignment: Mapping[VarId, int]) -> int:
        """Evaluate at integer values; every variable present must be assigned."""
        values: dict[int, int] = {}
        total = 0
        for mono, coeff in self._terms.items():
            val = coeff
            # in code order, so every process names the same missing variable
            for code, e in sorted(_factor(mono)):
                if code not in values:
                    v = _code_var(code)
                    if v not in assignment:
                        raise ValueError(f"assignment missing variable {v}")
                    values[code] = assignment[v]
                val *= values[code] ** e
            total += val
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for idx, (mono, coeff) in enumerate(self.terms()):
            body = "*".join(
                str(v) if e == 1 else f"{v}^{e}" for v, e in mono
            )
            mag = abs(coeff)
            if body:
                text = body if mag == 1 else f"{mag}*{body}"
            else:
                text = str(mag)
            if idx == 0:
                parts.append(("-" if coeff < 0 else "") + text)
            else:
                parts.append((" - " if coeff < 0 else " + ") + text)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def value_text(value: object) -> str:
    """`str(value)` for a value a report prints (a `Poly`, an int or a
    `Fraction`), or a short stand-in when one of its integers is past the
    interpreter's limit on digits turned into text
    (`sys.get_int_max_str_digits()`), where `str` raises ValueError."""
    try:
        return str(value)
    except ValueError:
        return f"(not printed: an integer past the {sys.get_int_max_str_digits()}-digit limit)"


def _poly(data: dict) -> Poly:
    """Wrap `data`, a monomial map that is already canonical."""
    out = Poly.__new__(Poly)
    out._terms = data
    return out


def _from_codes(terms: Iterable[tuple[Iterable[tuple[int, int]], int]]) -> Poly:
    """The `Poly` of ((code, exponent) pairs, coefficient) terms, as
    `Poly.__reduce__` writes them."""
    return _poly({_monomial(powers): coeff for powers, coeff in terms})


def poly_sum(items: Iterable[Poly]) -> Poly:
    """Sum with a single accumulator dict (faster than repeated __add__)."""
    data: dict = {}
    for p in items:
        _merge(data, p._terms.items())
    return _poly(data)


def poly_dot(pairs: Iterable[tuple[int | Poly, int | Poly]]) -> Poly:
    """The sum of p * q over `pairs`, each factor an int or a `Poly`, with
    one accumulator: no product becomes a `Poly` of its own.  int * int
    pairs add up as plain ints; the others go through `_add_product`.  A
    factor that is neither, a bool included, is a TypeError whatever its
    partner."""
    data: dict = {}
    const = 0
    for p, q in pairs:
        if not isinstance(q, Poly):
            p, q = q, p
        # q is a Poly unless neither factor is
        if isinstance(p, Poly):
            _add_product(data, p._terms, q._terms)
        elif not isinstance(q, Poly):
            const += _coefficient(p) * _coefficient(q)
        elif _coefficient(p):
            _add_product(data, {1: p}, q._terms)
    return _poly(_merge(data, ((1, const),)))


def poly_prod(items: Iterable[Poly]) -> Poly:
    """The product, starting from the first factor; empty gives one."""
    it = iter(items)
    out = next(it, None)
    if out is None:
        return Poly.one()
    for p in it:
        out = out * p
    return out


class PolyParseError(ValueError):
    """Raised when polynomial text does not match the canonical format."""


# The largest exponent `parse_poly` reads, of each variable in a term.
_MAX_EXPONENT = 10_000
_LETTERS = {letter: family for family, (letter, _) in enumerate(_FAMILIES)}
# A factor: a sign it may carry, then a magnitude or a variable with the
# power it may carry.  An index is a positive int, so each variable matched
# is one of the ring's; the round trip refuses a leading zero.
_FACTOR_RE = re.compile(
    rf"([+-]?)(?:(\d+)|([{''.join(_LETTERS)}])\[(0*[1-9]\d*)\](?:\^\((0*[1-9]\d*)\))?(?:\^(\d+))?)"
)
_SPLIT_RE = re.compile(r"\s+([+-])\s+")


def _parse_term(sign: str, term: str) -> tuple[int, int]:
    """A term and the sign before it, as (monomial, coefficient).  Each
    variable's exponent is checked against `_MAX_EXPONENT`, its digits
    before they are read as an int, and the monomial is built once."""
    coeff = -1 if sign == "-" else 1
    powers: dict[int, int] = {}
    for piece in term.split("*"):
        m = _FACTOR_RE.fullmatch(piece)
        if m is None:
            raise PolyParseError(f"bad factor {piece!r}")
        factor_sign, magnitude, letter, sub, sup, power = m.groups()
        if factor_sign == "-":
            coeff = -coeff
        if magnitude:
            coeff *= int(magnitude)
            continue
        family = _LETTERS[letter]
        has_sup = _FAMILIES[family][1]
        if (sup is not None) != has_sup:
            need = "need a" if has_sup else "take no"
            raise PolyParseError(f"{letter} variables {need} superscript: {piece!r}")
        too_long = power is not None and len(power.lstrip("0")) > len(str(_MAX_EXPONENT))
        code = _var_code(VarId(family, int(sub), int(sup or 0)))
        e = powers[code] = powers.get(code, 0) + (0 if too_long else int(power or 1))
        if too_long or e > _MAX_EXPONENT:
            raise PolyParseError(f"exponent past the limit of {_MAX_EXPONENT}: {piece!r}")
    return _monomial(powers.items()), coeff


def parse_poly(text: str) -> Poly:
    """Inverse of str(poly) for the canonical text format.  The terms are
    read loosely, a sign on any factor and any power included, and the
    round trip is the grammar: text that `str` would not write for what
    was read, outer whitespace aside, is a PolyParseError.  So each
    polynomial has one text (no `x[01]^(1)`, `2*3`, `+5` or `3 - 3`)."""
    s = text.strip()
    chunks = _SPLIT_RE.split(s)  # term, sign, term, ...; the first term's sign is its own
    try:
        out = _poly(_merge({}, map(_parse_term, ["+", *chunks[1::2]], chunks[::2])))
        if str(out) == s:
            return out
    except PolyParseError:
        raise
    except ValueError as exc:  # an int past the interpreter's digit limit
        raise PolyParseError(f"{exc}: {text!r}") from None
    raise PolyParseError(f"not the canonical text of {out}: {text!r}")
