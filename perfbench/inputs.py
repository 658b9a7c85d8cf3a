"""Seeded benchmark inputs, built without calling kuni's own algebra.

GF(p^m) arithmetic here is a separate small implementation over the same
integer encoding as kuni's matrix files (base-p digits, kuni's default
modulus).  A dense equivalent of a certified pair (G, Q) is

    G' = M G D P,   Q' = M Q

with M a random invertible k x k matrix, D a random nonzero diagonal and P a
random column permutation.  vG' = (vM) G D P and v Q' = (vM) Q, so the parent
code and the kernel subcode {vG' : vQ' = 0} are the originals with columns
scaled and permuted: both stay MDS and rank Q' = rank Q.  The certificate's
verdict and audit counts, C(n, k) and C(n, k-2), therefore follow from the
construction.  Replacing Q'_2 by c Q'_1 gives rank Q = 1 and a kernel of
dimension k-1, which refutes the certificate after the parent check.

`sweep_monomial` is an independent exact uniformity sweep for states whose
amplitudes are single roots of unity; the benchmark's tests use it to check
the transformation and the expected tallies of the sweep workload.
"""

from __future__ import annotations

import itertools
import random

# kuni's default modulus for the one extension field the generator uses,
# GF(9) = GF(3)[x] / (x^2 + 1), low degree first.
_MODULI = {(3, 2): (1, 0, 1)}


class GF:
    """GF(p^m) on integer reprs, with full add/mul tables."""

    def __init__(self, p: int, m: int):
        self.p, self.m, self.q = p, m, p ** m
        q = self.q
        digits = [self._digits(a) for a in range(q)]
        self.add = [[self._undigits([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for b in range(q)] for a in range(q)]
        self.mul = [[self._undigits(self._polymul(digits[a], digits[b]))
                     for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1) for a in range(1, q)]

    def _digits(self, a: int) -> list:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds) -> int:
        r = 0
        for d in reversed(ds):
            r = r * self.p + d
        return r

    def _polymul(self, a, b) -> list:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        if m == 1:
            return prod
        mod = _MODULI[(p, m)]
        for i in range(len(prod) - 1, m - 1, -1):
            c = prod[i]
            if c:
                for j in range(m + 1):
                    prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
        return prod[:m]

    def matmul(self, A, B) -> list:
        add, mul = self.add, self.mul
        out = []
        for row in A:
            new = []
            for c in range(len(B[0])):
                acc = 0
                for a, brow in zip(row, B):
                    acc = add[acc][mul[a][brow[c]]]
                new.append(acc)
            out.append(new)
        return out

    def rank(self, rows) -> int:
        data = [list(r) for r in rows]
        rank = 0
        for c in range(len(data[0]) if data else 0):
            pr = next((i for i in range(rank, len(data)) if data[i][c]), None)
            if pr is None:
                continue
            data[rank], data[pr] = data[pr], data[rank]
            inv = self.inv[data[rank][c]]
            prow = data[rank] = [self.mul[inv][x] for x in data[rank]]
            for i in range(len(data)):
                f = data[i][c]
                if i != rank and f:
                    data[i] = [self.add[a][self.neg[self.mul[f][b]]] for a, b in zip(data[i], prow)]
            rank += 1
        return rank


def factor_q(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            m, r = 0, q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


# --- matrix files ("rows cols p m" header, then rows of reprs) ---------------

def read_matrix(text: str):
    lines = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    rows, cols, p, m = (int(x) for x in lines[0])
    data = [[int(x) for x in ln] for ln in lines[1:]]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("matrix file does not match its header")
    return p, m, data


def write_matrix(p: int, m: int, data) -> str:
    head = f"{len(data)} {len(data[0])} {p} {m}"
    return head + "\n" + "\n".join(" ".join(map(str, r)) for r in data) + "\n"


# --- dense equivalents -------------------------------------------------------

def dense_equivalent(field: GF, G, Q, rng: random.Random):
    """(G', Q') = (M G D P, M Q) for seeded M invertible, D nonzero diagonal,
    P a permutation."""
    k, n, q = len(G), len(G[0]), field.q
    while True:
        M = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        if field.rank(M) == k:
            break
    D = [rng.randrange(1, q) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    MG = field.matmul(M, G)
    G2 = [[field.mul[row[perm[c]]][D[perm[c]]] for c in range(n)] for row in MG]
    return G2, field.matmul(M, Q)


def refuted_labels(field: GF, Q, rng: random.Random):
    """Q with its second column replaced by c times the first (rank 1)."""
    c = rng.randrange(1, field.q)
    return [[a, field.mul[c][a]] for a, _ in Q]


def dense_pair_texts(g_text: str, q_text: str, seed: int, label: str):
    """Seeded dense equivalent of a matrix-file pair, plus its refuted labels."""
    p, m, G = read_matrix(g_text)
    _, _, Q = read_matrix(q_text)
    field = GF(p, m)
    rng = random.Random(f"kuni-bench/{seed}/{label}")
    G2, Q2 = dense_equivalent(field, G, Q, rng)
    R2 = refuted_labels(field, Q2, rng)
    return write_matrix(p, m, G2), write_matrix(p, m, Q2), write_matrix(p, m, R2)


# --- independent exact sweep for monomial states -----------------------------

def read_monomial_state(text: str):
    """(n, q, {key: t}) for a state file whose amplitudes are all w^t."""
    lines = text.splitlines()
    _, n, q = lines[0].split()
    n, q = int(n), int(q)
    terms = {}
    for ln in lines[1:]:
        left, right = ln.split(" : ")
        coeffs = [int(c) for c in right.split()]
        nz = [t for t, c in enumerate(coeffs) if c]
        if len(nz) != 1 or coeffs[nz[0]] != 1:
            raise ValueError(f"amplitude is not a single root of unity: {ln!r}")
        terms[tuple(int(s) for s in left.split())] = nz[0]
    return n, q, terms


def _cyclotomic_poly(L: int) -> list:
    """Phi_L, low degree first, by dividing x^L - 1 by Phi_d for d | L, d < L."""
    num = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            num = _exact_div(num, _cyclotomic_poly(d))
    return num


def _exact_div(num, den) -> list:
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        quot[i - dd] = c
        for j in range(dd + 1):
            num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _is_zero(counts, phi) -> bool:
    """sum_t counts[t] w^t == 0, by reduction modulo the monic Phi_L."""
    rem = list(counts)
    dd = len(phi) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] -= c * phi[j]
    return not any(rem[:dd])


def maximally_mixed(n: int, q: int, terms: dict, S) -> bool:
    """rho_S of sum_key w^t |key> is a multiple of the identity, exactly."""
    Sc = [i for i in range(n) if i not in S]
    groups = {}
    for key, t in terms.items():
        groups.setdefault(tuple(key[i] for i in Sc), []).append((tuple(key[i] for i in S), t))
    phi = _cyclotomic_poly(q)
    diag = {}
    off = {}
    for members in groups.values():
        for r, tr in members:
            diag[r] = diag.get(r, 0) + 1
            for c, tc in members:
                if r != c:
                    vec = off.setdefault((r, c), [0] * q)
                    vec[(tr - tc) % q] += 1
    if len(diag) != q ** len(S) or len(set(diag.values())) != 1:
        return False
    return all(_is_zero(vec, phi) for vec in off.values())


def sweep_monomial(n: int, q: int, terms: dict, top: int) -> dict:
    """{size: (checked, passed)} over all subsets of sizes 1..top, stopping
    after the first size with a failure (the order kuni's sweep uses)."""
    tallies = {}
    for size in range(1, top + 1):
        subsets = list(itertools.combinations(range(n), size))
        passed = sum(maximally_mixed(n, q, terms, S) for S in subsets)
        tallies[size] = (len(subsets), passed)
        if passed < len(subsets):
            break
    return tallies
