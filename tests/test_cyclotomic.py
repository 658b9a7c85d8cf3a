"""Exact arithmetic in Z[w_L] with zero-testing modulo the L-th
cyclotomic polynomial."""

import random

import mpmath
import pytest

from kuni.cyclotomic import Cyclotomic, _poly_divmod_exact, cyclotomic_polynomial

ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 17, 19]


def test_cyclotomic_polynomial_known_values():
    # coefficient tuples, constant term first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_degree_is_totient():
    def totient(n):
        return sum(1 for t in range(1, n + 1) if _gcd(t, n) == 1)

    def _gcd(a, b):
        while b:
            a, b = b, a % b
        return a

    for L in range(1, 30):
        assert len(cyclotomic_polynomial(L)) - 1 == totient(L)


@pytest.mark.parametrize("L", ORDERS)
def test_sum_of_all_roots_is_zero(L):
    acc = Cyclotomic.zero(L)
    for t in range(L):
        acc = acc + Cyclotomic.root(L, t)
    assert acc.is_zero()


@pytest.mark.parametrize("L", ORDERS)
def test_root_arithmetic(L):
    w = Cyclotomic.root(L, 1)
    # w^L = 1
    acc = Cyclotomic.integer(L, 1)
    for _ in range(L):
        acc = acc * w
    assert acc.equals(Cyclotomic.integer(L, 1))
    # mul_root agrees with multiplication by the root, and wraps mod L
    a = Cyclotomic.root(L, 1) + Cyclotomic.integer(L, 2)
    assert a.mul_root(1).equals(a * w)
    assert a.mul_root(L + 3).equals(a.mul_root(3))


@pytest.mark.parametrize("L", ORDERS)
def test_conjugation(L):
    a = Cyclotomic.root(L, 1, 3) + Cyclotomic.integer(L, -2)
    assert a.conj().conj().equals(a)
    assert Cyclotomic.root(L, 1).conj().equals(Cyclotomic.root(L, L - 1))
    # a * conj(a) has zero imaginary part: it equals its own conjugate
    prod = a * a.conj()
    assert prod.conj().equals(prod)


def test_as_integer():
    a = Cyclotomic.integer(5, 7)
    assert a.as_integer() == 7
    # 1 + w + w^2 + w^3 + w^4 = 0 over L = 5, so adding all roots to 3 gives 3
    for t in range(5):
        a = a + Cyclotomic.root(5, t)
    assert a.as_integer() == 8 - 1  # 7 + (sum of roots = 0) + the t=0 root
    assert Cyclotomic.root(5, 1).as_integer() is None


def test_eq_and_hash_respect_reduction():
    # 1 + w + w^2 = 0 in Z[w_3]: distinct coefficient vectors, equal values
    a = Cyclotomic(3, [1, 1, 1])
    b = Cyclotomic.zero(3)
    assert a == b and hash(a) == hash(b)
    c = Cyclotomic(3, [0, -1, 0])
    d = Cyclotomic(3, [1, 0, 1])  # 1 + w^2 = -w
    assert c == d and hash(c) == hash(d)


def test_order_mismatch_rejected():
    with pytest.raises(Exception):
        Cyclotomic.root(3, 1) + Cyclotomic.root(4, 1)


def cyc_op(a: Cyclotomic, b: Cyclotomic | None, op: str):
    """Named operation; conj/is_zero act on `a` alone."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "conj_of_a":
        return a.conj()
    if op == "is_zero_of_a":
        return a.is_zero()
    raise ValueError(f"unknown op {op!r}")


def test_cyc_op_dispatch():
    a, b = Cyclotomic.integer(4, 2), Cyclotomic.root(4, 1)
    assert cyc_op(a, b, "add").equals(Cyclotomic(4, [2, 1, 0, 0]))
    assert cyc_op(a, b, "mul").equals(Cyclotomic.root(4, 1, 2))
    assert cyc_op(a, None, "conj_of_a").equals(a)
    assert cyc_op(Cyclotomic.zero(4), None, "is_zero_of_a") is True


@pytest.mark.parametrize("L", [1, 2, 3, 4, 6, 8, 9, 12])
def test_monomials_are_never_zero(L):
    # is_zero answers these without dividing by Phi_L; the division agrees
    phi = list(cyclotomic_polynomial(L))
    for c in (1, -1, 3, -3):
        for t in range(L):
            v = Cyclotomic.root(L, t, c)
            assert not v.is_zero()
            assert _poly_divmod_exact(v.coeffs, phi)[1]
    assert Cyclotomic.zero(L).is_zero()


@pytest.mark.parametrize("L", ORDERS)
def test_is_zero_against_float_evaluation(L):
    """Independent numeric oracle: evaluate at the principal root with
    100-digit precision; exact zero iff numerically zero."""
    rng = random.Random(L)
    with mpmath.workdps(100):
        w = mpmath.e ** (2j * mpmath.pi / L)
        for _ in range(50):
            coeffs = [rng.randint(-3, 3) for _ in range(L)]
            val = sum(c * w ** t for t, c in enumerate(coeffs))
            exact = Cyclotomic(L, coeffs).is_zero()
            assert exact == (abs(val) < mpmath.mpf("1e-18"))


@pytest.mark.parametrize("L", [2, 3, 5, 7, 11, 13, 4, 6, 8, 9, 12])
def test_prime_order_zero_test_matches_division(L):
    """is_zero against the remainder modulo Phi_L: prime orders take the
    equal-coefficient test, composite orders still divide."""
    rng = random.Random(f"zero-test/{L}")
    phi = list(cyclotomic_polynomial(L))
    vectors = [[rng.randint(-4, 4) for _ in range(L)] for _ in range(200)]
    for _ in range(50):
        c = rng.choice([-5, -1, 1, 2, 7])
        vectors.append([c] * L)  # c * (1 + w + ... + w^(L-1)) = 0
        odd = list(vectors[-1])
        odd[rng.randrange(L)] += rng.choice([-2, -1, 1, 3])
        vectors.append(odd)  # d * w^t with d != 0: never zero
        # a multiple of Phi_L within degree L - 1, zero at every order
        mult = [rng.randint(-3, 3) for _ in range(L - len(phi) + 1)]
        vectors.append([sum(mult[i] * phi[t - i] for i in range(len(mult))
                            if 0 <= t - i < len(phi)) for t in range(L)])
    zeros = 0
    for coeffs in vectors:
        want = not _poly_divmod_exact(coeffs, phi)[1]
        assert Cyclotomic(L, coeffs).is_zero() == want, coeffs
        zeros += want
    assert 100 <= zeros < len(vectors)


@pytest.mark.parametrize("coeffs", [[0.5, 0, 0], [1.9, 0, 0]])
def test_cyclotomic_rejects_non_integer_coefficients(coeffs):
    # truncated, 0.5 made a false zero and 1.9 made 1
    with pytest.raises(TypeError):
        Cyclotomic(3, coeffs)


def test_cyclotomic_rejects_a_wrong_coefficient_count():
    with pytest.raises(ValueError, match="need 3 coefficients, got 2"):
        Cyclotomic(3, [1, 0])


def test_cyclotomic_against_ints_and_other_types():
    assert Cyclotomic(3, [True, False, 2]).coeffs == (1, 0, 2)
    a = Cyclotomic.root(5, 2, 3)
    assert (2 * a).coeffs == (0, 0, 6, 0, 0)
    assert Cyclotomic(3, [1, 1, 1]) == 0 and Cyclotomic(3, [2, 1, 1]) == 1 and not a == 3
    assert a.__eq__("x") is NotImplemented and (a == "x") is False
    assert bool(a) is True and bool(Cyclotomic(3, [1, 1, 1])) is False
