"""The sweep's rank path against rho_S on every small affine support: the
Tier-1 slice of `tools/small_scope.py`, which runs the full set."""

import sys
from pathlib import Path

from kuni.cyclotomic import Cyclotomic
from kuni.field import gf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import small_scope  # noqa: E402


def test_the_enumerator_gives_each_affine_support_once():
    # sum over r of (the Gaussian binomial [n, r]_q) * q^(n - r) cosets
    for q, n, count in ((2, 4, 307), (3, 3, 184), (4, 2, 37)):
        supports = [frozenset(keys) for _, keys in small_scope.affine_supports(gf(q), n)]
        assert len(supports) == len(set(supports)) == count
        assert all(len(keys) in {q ** r for r in range(n + 1)} for keys in supports)
    # the fifth pattern's last amplitude is 1 by value, by other coefficients
    for q in (2, 3, 4, 5):
        *_, (name, amps) = small_scope.amplitude_patterns(q, (0,), [(0,), (1,)])
        one = Cyclotomic.integer(q, 1)
        assert name == "one_plus_phi" and amps[-1] == one and amps[-1].coeffs != one.coeffs


def test_every_rank_pass_is_maximally_mixed_on_every_small_support():
    # and every refutation by rank is rho_S's, witness included, and ranks
    # decide exactly the subsets whose complement is injective: q = 2 with
    # n <= 4, q = 3 with n <= 3, q = 4 with n <= 2; five amplitude patterns
    # a support, every nonempty subset of sites
    checks = passes = refutations = 0
    for q, n_max in ((2, 4), (3, 3), (4, 2)):
        for n in range(1, n_max + 1):
            c, p, r, disagreement = small_scope.check(q, n)
            assert disagreement is None
            checks, passes, refutations = checks + c, passes + p, refutations + r
    # 3,426 pass by rank when |amp|^2 is compared by coefficient vector; the
    # refutations went through rho_S while the rank path returned a bool
    assert (checks, passes, refutations) == (32360, 4568, 10441)
