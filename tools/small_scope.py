#!/usr/bin/env python3
"""Small-scope oracle for the sweep's rank path (`verify._by_rank`).

    python3 tools/small_scope.py

For q = 2 and 3 with n <= 4, and q = 4 and 5 with n <= 3, it builds every
affine support x0 + T of GF(q)^n, for every n from 1 up to that bound:
every subspace T by its RREF, shifted by each x0 that is 0 at T's pivots,
one x0 per coset.  Each support carries five amplitude patterns: all ones;
a quadratic and a cubic phase w^e(c) of the coordinates c of x - x0; two
values of |amp|^2; and 1 written as e_0 + Phi_q on one term.
On every nonempty subset S of sites, the rank path must decide S exactly
when the table has a coset support and S's complement is injective on its
keys, and each decision, pass or refutation, must be the verdict and
witness of `is_maximally_mixed(reduced_density(...))`.

Prints one line per q.  On the first disagreement it prints it and exits
1; otherwise it exits 0.  Stdlib only; run from anywhere in a checkout.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kuni import verify  # noqa: E402
from kuni.cyclotomic import Cyclotomic, cyclotomic_polynomial  # noqa: E402
from kuni.field import gf  # noqa: E402

FULL_SCOPE = ((2, 4), (3, 4), (4, 3), (5, 3))  # (q, largest n)


def affine_supports(spec, n: int):
    """(pivots, sorted keys) of every affine support x0 + T of GF(q)^n, once
    each: T by its RREF rows, x0 the coset's one word that is 0 at T's
    pivots, so a key's coordinates in T are its symbols at the pivots."""
    q = spec.q
    for r in range(n + 1):
        for pivots in itertools.combinations(range(n), r):
            free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n)
                    if j not in pivots]
            rest = [j for j in range(n) if j not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[int(j == p) for j in range(n)] for p in pivots]
                for (i, j), x in zip(free, values):
                    rows[i][j] = x
                words = [[0] * n]
                for row in rows:
                    words = [[spec.add(w, spec.mul(c, x)) for w, x in zip(word, row)]
                             for word in words for c in range(q)]
                for shift in itertools.product(range(q), repeat=len(rest)):
                    x0 = [0] * n
                    for j, x in zip(rest, shift):
                        x0[j] = x
                    yield pivots, sorted(tuple(map(spec.add, word, x0)) for word in words)


def amplitude_patterns(q: int, pivots, keys):
    """(name, amplitudes in key order) of the five patterns on one support."""
    one = Cyclotomic.integer(q, 1)
    coords = [[key[p] for p in pivots] for key in keys]

    def phases(e):  # w^e(c) for each key's coordinates c
        return [Cyclotomic.root(q, e(c)) for c in coords]

    yield "ones", [one] * len(keys)
    yield "quadratic", phases(lambda c: sum(a * b for a, b in
                                            itertools.combinations_with_replacement(c, 2)))
    yield "cubic", phases(lambda c: sum(a ** 3 for a in c)
                          + sum(a * a * b for a, b in itertools.combinations(c, 2)))
    yield "two_norms", [Cyclotomic.integer(q, 2)] + [one] * (len(keys) - 1)
    phi = cyclotomic_polynomial(q) + (0,) * q  # Phi_q's coefficients, padded past q
    yield "one_plus_phi", [one] * (len(keys) - 1) + [one + Cyclotomic(q, phi[:q])]


def check(q: int, n: int):
    """(checks, passes by rank, refutations by rank, first disagreement or
    None) over every affine support of GF(q)^n, pattern and nonempty subset
    of sites.  A disagreement is (q, n, pattern, keys, S, the rank path's
    decision, rho_S's)."""
    spec = gf(q)
    subsets = [S for size in range(1, n + 1) for S in itertools.combinations(range(n), size)]
    checks, decided = 0, {True: 0, False: 0}
    for pivots, keys in affine_supports(spec, n):
        columns = [spec.column(col) for col in zip(*keys)]
        for name, amps in amplitude_patterns(q, pivots, keys):
            table = verify.KeyTable(spec, columns, amps)
            for S in subsets:
                checks += 1
                by_rank = verify._by_rank(table, S)
                injective = len({tuple(key[i] for i in range(n) if i not in S)
                                 for key in keys}) == len(keys)
                decides = table.coset is not None and injective
                if decides or by_rank is not None:
                    rho = verify.is_maximally_mixed(verify.reduced_density(table, S))
                    if not decides or by_rank != rho:
                        return checks, decided[True], decided[False], (
                            q, n, name, keys, S, by_rank, rho)
                    decided[rho[0]] += 1
    return checks, decided[True], decided[False], None


def main() -> int:
    for q, n_max in FULL_SCOPE:
        start, checks, passes, refutations = time.perf_counter(), 0, 0, 0
        for n in range(1, n_max + 1):
            c, p, r, disagreement = check(q, n)
            checks, passes, refutations = checks + c, passes + p, refutations + r
            if disagreement:
                q, n, name, keys, S, by_rank, rho = disagreement
                print(f"DISAGREE q={q} n={n} pattern={name} S={S}: the rank path gives "
                      f"{by_rank}, rho_S gives {rho}; keys {keys}")
                return 1
        print(f"q={q} n<={n_max}: {checks} checks, {passes} passed and {refutations} refuted "
              f"by rank, each as rho_S decides ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
