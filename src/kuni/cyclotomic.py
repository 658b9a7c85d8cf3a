"""Exact arithmetic in Z[w], w = exp(2*pi*i/L).

A value is a length-L integer coefficient vector for sum_t c_t w^t.  The
representation is redundant (the ring has rank phi(L)); zero is decided
exactly by reducing the coefficient polynomial modulo the L-th cyclotomic
polynomial (for prime L, by testing that all coefficients are equal), so
all equality tests go through is_zero of a difference.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .errors import OrderMismatch


def _poly_divmod_exact(num, den):
    """Exact division of integer polynomials (den monic); returns (quot, rem)."""
    num = list(num)
    dd = len(den) - 1
    if dd < 0 or den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    # trim remainder
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple:
    """Coefficients (low first) of Phi_L, via Phi_L = (x^L - 1) / prod Phi_d."""
    if L == 1:
        return (-1, 1)
    num = [0] * (L + 1)
    num[0], num[L] = -1, 1
    for d in range(1, L):
        if L % d == 0:
            num, rem = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(num)


def is_zero_vector(L: int, c) -> bool:
    """Exactly whether sum_t c[t] w_L^t = 0, for a length-L sequence c."""
    phi = cyclotomic_polynomial(L)
    if len(phi) == L:
        # prime L: Phi_L = 1 + x + ... + x^(L-1) divides a polynomial of
        # degree < L only as a constant multiple, so all c_t are equal
        return c.count(c[0]) == L
    # c * w^t with c != 0 is a unit times c, never zero: only sums of two
    # or more powers need the division by Phi_L
    nonzero = L - c.count(0)
    if nonzero <= 1:
        return nonzero == 0
    _, rem = _poly_divmod_exact(c, list(phi))
    return not rem


class Cyclotomic:
    """Element of Z[w_L] with exact zero test."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        if coeffs is None:
            self.coeffs = (0,) * order
        else:
            coeffs = tuple(map(index, coeffs))  # a float raises TypeError
            if len(coeffs) != order:
                raise ValueError(f"need {order} coefficients, got {len(coeffs)}")
            self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order)

    @classmethod
    def integer(cls, order: int, n: int) -> "Cyclotomic":
        return cls(order, (n,) + (0,) * (order - 1))

    @classmethod
    def root(cls, order: int, t: int, coeff: int = 1) -> "Cyclotomic":
        """coeff * w_L^t."""
        c = [0] * order
        c[t % order] += coeff
        return cls(order, c)

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order} differ")

    def __add__(self, other):
        self._check(other)
        return Cyclotomic(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return Cyclotomic(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.order, [other * a for a in self.coeffs])
        self._check(other)
        L = self.order
        out = [0] * L
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = i + j
                        out[k - L if k >= L else k] += a * b
        return Cyclotomic(L, out)

    __rmul__ = __mul__

    def mul_root(self, t: int) -> "Cyclotomic":
        """Multiply by w_L^t (cyclic shift of coefficients)."""
        L = self.order
        t %= L
        if t == 0:
            return self
        c = self.coeffs
        return Cyclotomic(L, c[L - t:] + c[:L - t])

    def conj(self) -> "Cyclotomic":
        L = self.order
        c = self.coeffs
        return Cyclotomic(L, tuple(c[(-t) % L] for t in range(L)))

    def is_zero(self) -> bool:
        return is_zero_vector(self.order, self.coeffs)

    def equals(self, other: "Cyclotomic") -> bool:
        return (self - other).is_zero()

    def as_integer(self):
        """The integer value if this element is a rational integer, else None."""
        phi = cyclotomic_polynomial(self.order)
        _, rem = _poly_divmod_exact(self.coeffs, list(phi))
        if len(rem) <= 1:
            return rem[0] if rem else 0
        return None

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            return (self - Cyclotomic.integer(self.order, other)).is_zero()
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.equals(other)

    def __hash__(self):
        # canonical hash via reduction mod Phi_L
        phi = cyclotomic_polynomial(self.order)
        _, rem = _poly_divmod_exact(self.coeffs, list(phi))
        return hash((self.order, tuple(rem)))

    def __repr__(self):
        terms = [f"{c}*w^{t}" for t, c in enumerate(self.coeffs) if c]
        return f"Cyc{self.order}({' + '.join(terms) or '0'})"
