import functools
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import girardlab
from girardlab import (
    Poly, PolyParseError, VarId, avar, parse_poly, poly_dot, poly_prod, poly_sum, xvar, yvar,
)
from girardlab.poly import _FAMILIES, _PRIMES, _REGISTERED, _code_var, _var_code

X11 = Poly.variable(xvar(1, 1))
X21 = Poly.variable(xvar(2, 1))
Y2 = Poly.variable(yvar(2))
Y3 = Poly.variable(yvar(3))
A11 = Poly.variable(avar(1, 1))


def test_zero_and_one():
    assert not Poly.zero()
    assert not Poly.one() - 1
    assert Poly.const(0) == Poly.zero()
    assert str(Poly.zero()) == "0"
    assert Poly() == Poly.zero()
    # no constructor takes a monomial map
    with pytest.raises(TypeError):
        Poly({((xvar(1, 1), 1),): 1})


def test_addition_merges_and_cancels():
    assert (X11 + Y2) + Y2 == X11 + 2 * Y2
    assert X11 - X11 == Poly.zero()
    assert X11 + Poly.zero() == X11


def test_multiplication():
    assert X11 * Poly.one() == X11
    assert X11 * Poly.zero() == Poly.zero()
    product = (X11 + Y2) * (X21 + Y3)
    assert product.term_count() == 4
    assert product == X11 * X21 + X11 * Y3 + Y2 * X21 + Y2 * Y3


def test_distinct_superscripts_are_distinct_variables():
    assert Poly.variable(xvar(1, 1)) != Poly.variable(xvar(1, 2))
    assert xvar(1, 2) != avar(1, 2)


def test_integer_coercion():
    assert 2 * X11 + 1 == Poly.const(1) + X11 + X11
    assert (3 - Y2) == Poly.const(3) - Y2
    # only ints coerce: the text form says no float, fraction or bool
    for bad in [2.5, Fraction(1, 2), True]:
        with pytest.raises(TypeError):
            Poly.const(bad)
        with pytest.raises(TypeError):
            X11 + bad
        with pytest.raises(TypeError):
            bad * X11
        assert Poly.one() != bad


def test_evaluate():
    p = 3 * X11 * Y2 - Y3
    value = p.evaluate({xvar(1, 1): 2, yvar(2): 5, yvar(3): 4})
    assert value == 3 * 2 * 5 - 4


def test_evaluate_missing_variable_names_it():
    with pytest.raises(ValueError, match=r"y\[3\]"):
        (X11 + Y3).evaluate({xvar(1, 1): 1})
    # of two missing in one monomial, the one of lower code, whichever
    # was made first
    late, early = Poly.variable(yvar(9402)), Poly.variable(yvar(9401))
    with pytest.raises(ValueError, match=r"y\[9401\]"):
        (late * early).evaluate({})


def test_variable_index_validation():
    with pytest.raises(ValueError):
        xvar(0, 1)
    with pytest.raises(ValueError):
        yvar(0)
    with pytest.raises(ValueError):
        avar(1, 0)
    # an index that is not an int, or is a bool, has no text form
    for make, indices in [(xvar, (1.5, 1)), (xvar, (True, 1)), (yvar, (True,)), (avar, (1, 2.0))]:
        with pytest.raises(ValueError):
            make(*indices)
    # a VarId no maker returns prints as another variable, or as none
    for bad in [VarId(1, 2, 5), VarId(0, 0, 0), VarId(0, 1, 0), VarId(2, 0, 1), VarId(1, 0, 0),
                VarId(0, 1.5, 1)]:
        with pytest.raises(ValueError):
            Poly.variable(bad)


def test_canonical_text_example():
    p = 3 * X11 * Y2 - Y3
    assert str(p) == "3*x[1]^(1)*y[2] - y[3]"
    assert parse_poly("3*x[1]^(1)*y[2] - y[3]") == p


def test_text_covers_all_families_and_powers():
    p = A11 * A11 - 2 * Y2 * Y2 * Y2 + 5
    text = str(p)
    assert text == "-2*y[2]^3 + a[1]^(1)^2 + 5"
    assert parse_poly(text) == p


def test_leading_negative_term():
    p = -X11 * Y2 + 1
    text = str(p)
    assert text.startswith("-")
    assert parse_poly(text) == p


def test_parse_rejects_garbage():
    for bad in ["", "x[1]", "y[2]^(3)", "x[0]^(1)", "y[0]", "1 +", "x[1]^(1)^0", "q[1]"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)


@pytest.mark.parametrize("text", [
    "x[01]^(1)", "x[1]^(1)^01", "x[1]^(1)^1", "2*3", "+5", "-0", "0*x[1]^(1)", "3 - 3",
    "y[1] + x[1]^(1)", "x[1]^(1)*x[1]^(1)",
])
def test_parse_rejects_text_str_never_writes(text):
    # each reads as a polynomial whose canonical text is another one
    with pytest.raises(PolyParseError, match="canonical"):
        parse_poly(text)


_FUZZ_ALPHABET = "xya[]()^*+-0123 9"


def _fuzz_texts():
    rng = random.Random(6071)
    for _ in range(20_000):
        yield "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(0, 12)))
    yield from [
        "", " ", "-", "1 + ", "x[1]^(1)*", "*x[1]^(1)", "x[1]^(1) +  y[2]", "x[1]^(1)+y[2]",
        "--1", "1 - -1", "a[1]^(1)^(2)", "x[]^(1)", "+5",
    ]


def test_parse_raises_only_poly_parse_error():
    # any text either reads back to itself or is a PolyParseError: no
    # other exception from a failed match or a missing piece escapes
    for text in _fuzz_texts():
        try:
            p = parse_poly(text)
        except PolyParseError:
            continue
        assert isinstance(p, Poly) and str(p) == text.strip(), text


@pytest.mark.parametrize("text", ["1" * 4301, "y[" + "1" * 4301 + "]", "y[1]^" + "1" * 4301])
def test_parse_refuses_ints_past_the_digit_limit(text):
    # int() of more digits than the interpreter's limit is a plain ValueError
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(PolyParseError, match="limit"):
            parse_poly(text)
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_zero():
    assert parse_poly("0") == Poly.zero()


def test_term_order_is_degree_then_variable_order():
    p = Y3 + X11 * X21 + X11 + A11
    # degree-2 term first, then degree-1 terms in variable order x < y < a
    assert str(p) == "x[1]^(1)*x[2]^(1) + x[1]^(1) + y[3] + a[1]^(1)"


VAR_POOL = [xvar(1, 1), xvar(2, 1), xvar(1, 2), yvar(2), yvar(5), avar(1, 1), avar(2, 3)]

monomials = st.lists(
    st.tuples(st.sampled_from(VAR_POOL), st.integers(min_value=1, max_value=3)),
    max_size=3,
)
polys = st.lists(
    st.tuples(monomials, st.integers(min_value=-5, max_value=5)), max_size=5
).map(
    lambda terms: poly_sum(
        Poly.const(c) * poly_prod(Poly.variable(v) for v, e in mono for _ in range(e))
        for mono, c in terms
    )
)


@settings(max_examples=200)
@given(polys, polys, polys)
def test_ring_axioms(p, q, s):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + s == p + (q + s)
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s
    assert p + (-p) == Poly.zero()
    assert p * Poly.one() == p
    assert p * Poly.zero() == Poly.zero()


@settings(max_examples=200)
@given(polys, polys, st.integers(min_value=0, max_value=10**6))
def test_evaluation_is_a_ring_homomorphism(p, q, seed):
    rng = random.Random(seed)
    assignment = {v: rng.randint(-4, 4) for v in VAR_POOL}
    assert (p + q).evaluate(assignment) == p.evaluate(assignment) + q.evaluate(
        assignment
    )
    assert (p * q).evaluate(assignment) == p.evaluate(assignment) * q.evaluate(
        assignment
    )


@settings(max_examples=200)
@given(polys)
def test_text_round_trip_is_bit_exact(p):
    text = str(p)
    again = parse_poly(text)
    assert again == p
    assert str(again) == text


@settings(max_examples=200)
@given(polys, polys, st.integers(min_value=-5, max_value=5))
def test_subtraction_is_addition_of_the_negation(p, q, c):
    before = (list(p.terms()), list(q.terms()))
    for diff, ref in [
        (p - q, p + (-q)),
        (p - c, p + (-Poly.const(c))),
        (c - p, Poly.const(c) + (-p)),
    ]:
        assert diff == ref
        assert str(diff) == str(ref)
    assert p - p == Poly.zero()
    assert c - Poly.const(c) == Poly.zero()
    assert (list(p.terms()), list(q.terms())) == before


@settings(max_examples=200)
@given(st.lists(polys, max_size=4))
@example([])
@example([X11 - 2])
def test_product_starts_from_the_first_factor(factors):
    fold = functools.reduce(lambda a, b: a * b, factors, Poly.one())
    out = poly_prod(factors)
    assert out == fold
    assert str(out) == str(fold)


def test_no_exponent_cap():
    text = "x[2]^(3)^300 - 7*y[2]^257*a[1]^(1)"
    p = parse_poly(text)
    assert str(p) == text
    assert dict(p.terms()) == {((xvar(2, 3), 300),): 1, ((yvar(2), 257), (avar(1, 1), 1)): -7}


def test_an_exponent_past_the_limit_is_refused():
    # decoding p^e divides e times, so a few more digits of exponent would
    # ask for minutes; the digits are measured before any power is built
    for text in ["y[1]^3000000", "y[1]^10001", "y[1]^6000*y[1]^6000", "y[1]^" + "9" * 100]:
        with pytest.raises(PolyParseError, match="limit of 10000"):
            parse_poly(text)
    assert str(parse_poly("y[1]^10000")) == "y[1]^10000"


# Run by a child interpreter: it makes the variables of the parent's test in
# the opposite order, so it gives them other primes, and pickles a `Poly`.
PICKLING_CHILD = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from girardlab.poly import _PRIMES, Poly, _var_code, avar, xvar, yvar
a, y, x, w = map(Poly.variable, [avar(9103, 1), yvar(9102), xvar(9101, 2), yvar(9104)])
assert _PRIMES[_var_code(xvar(9101, 2))] > _PRIMES[_var_code(avar(9103, 1))]
p = 3 * x * y * y - a * w + 7
sys.stdout.write(str(p) + "\\n" + pickle.dumps(p).hex())
"""


def test_a_pickle_loads_in_a_process_that_gave_other_primes():
    x, y, a = map(Poly.variable, [xvar(9101, 2), yvar(9102), avar(9103, 1)])
    assert _PRIMES[_var_code(xvar(9101, 2))] < _PRIMES[_var_code(avar(9103, 1))]
    src = str(Path(girardlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", PICKLING_CHILD, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    text, dump = proc.stdout.split("\n")
    # yvar(9104) is first made here, by the load
    loaded = pickle.loads(bytes.fromhex(dump))
    assert str(loaded) == text == "3*x[9101]^(2)*y[9102]^2 - y[9104]*a[9103]^(1) + 7"
    assert loaded == 3 * x * y * y - a * Poly.variable(yvar(9104)) + 7


def test_threads_give_each_code_one_prime():
    # four threads make and multiply overlapping windows of fresh variables
    # at once; each writes the text one thread alone writes
    fresh = [yvar(9300 + i) for i in range(40)]

    def build(start):
        window = [Poly.variable(fresh[(start + i) % 40]) for i in range(20)]
        return str(poly_prod(window) + poly_sum(p * q for p, q in zip(window, window[1:])))

    texts = [None] * 4
    barrier = threading.Barrier(4)

    def run(t):
        barrier.wait()
        texts[t] = build(10 * t)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert texts == [build(10 * t) for t in range(4)]
    primes = [p for p, _ in _REGISTERED]
    codes = [code for _, code in _REGISTERED]
    assert primes == sorted(set(primes)) and len(set(codes)) == len(codes)
    assert _PRIMES == dict(zip(codes, primes))
    assert {_var_code(v) for v in fresh} <= _PRIMES.keys()


# the maker of each family of `_FAMILIES`, in its order
MAKERS = [xvar, yvar, avar]


@pytest.mark.parametrize("family, letter, has_sup", [
    (family, letter, has_sup) for family, (letter, has_sup) in enumerate(_FAMILIES)
])
def test_each_family_round_trips(family, letter, has_sup):
    v = MAKERS[family](*((3, 2) if has_sup else (3,)))
    assert v == VarId(family, 3, 2 if has_sup else 0)
    text = f"{letter}[3]^(2)" if has_sup else f"{letter}[3]"
    assert str(v) == text
    assert parse_poly(text) == Poly.variable(v)
    assert str(parse_poly(f"-{text}^4")) == f"-{text}^4"
    assert _code_var(_var_code(v)) == v
    # a superscript is there exactly when the family carries one
    with pytest.raises(PolyParseError, match="superscript"):
        parse_poly(f"{letter}[3]" if has_sup else f"{letter}[3]^(2)")


def test_variable_codes_are_a_bijection():
    from girardlab.poly import VarId, _code_var, _var_code

    # the variables with sub + sup < 40 take exactly the codes 0 .. 3 * 820 - 1
    grid = [
        VarId(f, sub, sup) for f in range(3) for sub in range(40) for sup in range(40 - sub)
    ]
    codes = [_var_code(v) for v in grid]
    assert sorted(codes) == list(range(3 * 820))
    assert [_code_var(c) for c in codes] == grid
    with pytest.raises(ValueError):
        Poly.variable(VarId(3, 1, 1))


# -- the tuple-of-(VarId, exponent) representation, kept as a reference ------


def ref_mono_mul(m1, m2):
    """Merge two sorted exponent lists."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def ref_term_key(m):
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


def ref_accumulate(pairs):
    data = {}
    for mono, coeff in pairs:
        data[mono] = data.get(mono, 0) + coeff
    return {m: c for m, c in data.items() if c}


def ref_str(data):
    if not data:
        return "0"
    parts = []
    for idx, mono in enumerate(sorted(data, key=ref_term_key)):
        coeff = data[mono]
        body = "*".join(str(v) if e == 1 else f"{v}^{e}" for v, e in mono)
        mag = abs(coeff)
        text = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        sign = ("-" if coeff < 0 else "") if idx == 0 else (" - " if coeff < 0 else " + ")
        parts.append(sign + text)
    return "".join(parts)


WIDE_POOL = VAR_POOL + [xvar(17, 3), xvar(3, 17), yvar(1000), avar(40, 7), avar(7, 40)]

ref_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(WIDE_POOL), st.integers(1, 4)), max_size=4),
        st.integers(min_value=-5, max_value=5),
    ),
    max_size=6,
).map(
    lambda terms: ref_accumulate(
        (
            functools.reduce(ref_mono_mul, [((v, e),) for v, e in mono], ()),
            c,
        )
        for mono, c in terms
    )
)


def ref_poly(data):
    """The polynomial of a reference term map, read from its reference text."""
    return parse_poly(ref_str(data))


def assert_same(p, data):
    # canonical: equal to the polynomial built from the reference terms
    assert p == ref_poly(data) and hash(p) == hash(ref_poly(data))
    assert list(p.terms()) == [(m, data[m]) for m in sorted(data, key=ref_term_key)]
    assert p.term_count() == len(data)
    assert p.variables() == frozenset(v for m in data for v, _ in m)
    assert str(p) == ref_str(data)
    terms = dict(p.terms())
    for mono, coeff in data.items():
        assert terms.get(mono, 0) == coeff


@settings(max_examples=200)
@given(ref_polys, ref_polys)
def test_int_codes_agree_with_the_variable_tuple_reference(a, b):
    p, q = ref_poly(a), ref_poly(b)
    assert_same(p, a)
    assert_same(q, b)
    assert_same(p + q, ref_accumulate([*a.items(), *b.items()]))
    assert_same(
        p * q,
        ref_accumulate(
            (ref_mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()
        ),
    )
    # every other place that merges terms meets the same reference
    negated = {m: -c for m, c in a.items()}
    assert_same(-p, negated)
    assert_same(p - q, ref_accumulate([*a.items(), *((m, -c) for m, c in b.items())]))
    assert_same(poly_sum([p, q, -p]), ref_accumulate([*a.items(), *b.items(), *negated.items()]))
    assert poly_sum([p, q, -p]) == q
    assert_same(parse_poly(str(p)), a)
    assert_same(
        poly_prod([p, p]),
        ref_accumulate(
            (ref_mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in a.items()
        ),
    )
    assert dict(p.terms()).get(((yvar(999), 1),), 0) == 0


# A factor of poly_dot: an int or a reference term map, made a Poly below.
dot_factors = st.one_of(st.integers(min_value=-4, max_value=4), ref_polys)


def factor_terms(f):
    """The reference term map of one factor."""
    if isinstance(f, int):
        return {(): f} if f else {}
    return f


def dot_reference(pairs):
    return ref_accumulate(
        (ref_mono_mul(m1, m2), c1 * c2)
        for p, q in pairs
        for m1, c1 in factor_terms(p).items()
        for m2, c2 in factor_terms(q).items()
    )


def negated(f):
    return -f if isinstance(f, int) else {m: -c for m, c in f.items()}


@settings(max_examples=200)
@given(st.lists(st.tuples(dot_factors, dot_factors), max_size=5))
@example([(0, {((xvar(1, 1), 1),): 3}), ({((yvar(2), 2),): -1}, 0), (3, -2), (2, 3)])
@example([({((avar(1, 1), 1),): 2}, 5), (-2, {((avar(1, 1), 1),): 5})])
def test_poly_dot_agrees_with_the_reference(pairs):
    def as_factor(f):
        return f if isinstance(f, int) else ref_poly(f)

    dot = poly_dot((as_factor(p), as_factor(q)) for p, q in pairs)
    assert_same(dot, dot_reference(pairs))
    # each product once more with its left factor negated: the sum cancels
    # to the zero polynomial, int products and Poly products alike
    both = [*pairs, *((negated(p), q) for p, q in pairs)]
    assert_same(poly_dot((as_factor(p), as_factor(q)) for p, q in both), {})
    # one pair alone is its product, a Poly even when both factors are ints
    for p, q in pairs:
        assert_same(poly_dot([(as_factor(p), as_factor(q))]), dot_reference([(p, q)]))
    # a factor that is neither an int nor a Poly, a bool included, is a
    # TypeError whatever its partner, zero included
    bad_pairs = [(True, X11), (X11, False), (1.5, X11), (0, 1.5)]
    bad_pairs += [(as_factor(p), 1.5) for p, _ in pairs] + [(False, as_factor(q)) for _, q in pairs]
    for bad in bad_pairs:
        with pytest.raises(TypeError):
            poly_dot([bad])


@pytest.mark.parametrize("c", [0, 3, -7, 2**70])
def test_a_constant_hashes_as_the_int_it_equals(c):
    p = Poly.const(c)
    assert p == c and hash(p) == hash(c)
    assert p in {c} and c in {p}
    assert {c: "a"}.get(p) == "a" and {p: "a"}.get(c) == "a"
