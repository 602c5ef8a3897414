"""Exact counting functions for calibrated codimension-one webs.

Monomial counts, the maximal rank bound for ordinary webs, its value on
calibrated webs, and the recursion giving the dimension of the relation
subspace supported on exactly h variables.  All arithmetic is arbitrary-size
integer arithmetic; nothing here ever rounds.
"""

from __future__ import annotations

import math

from .frozen import Frozen


def binom(p: int, q: int) -> int:
    """Binomial coefficient C(p, q), equal to 0 when q < 0 or q > p."""
    if p < 0:
        raise ValueError(f"binom requires p >= 0, got p={p}")
    if q < 0 or q > p:
        return 0
    return math.comb(p, q)


def monomial_count(n: int, h: int) -> int:
    """Number of degree-h monomials in n variables, binom(n+h-1, h).

    Equivalently the dimension of the space of homogeneous polynomials of
    degree h in n variables.
    """
    if n < 1:
        raise ValueError(f"monomial_count requires n >= 1, got n={n}")
    if h < 0:
        raise ValueError(f"monomial_count requires h >= 0, got h={h}")
    return binom(n + h - 1, h)


def calibration_order(n: int, d: int) -> int:
    """The unique k0 >= 1 with monomial_count(n, k0) <= d < monomial_count(n, k0+1).

    A d-web of codimension one in dimension n is calibrated exactly when
    d == monomial_count(n, k0).  The interval is half-open on the right, which
    makes the order a function of (n, d).
    """
    if n < 2:
        raise ValueError(f"calibration_order requires n >= 2, got n={n}")
    if d < n:
        raise ValueError(f"calibration_order requires d >= n, got d={d} < n={n}")
    k0 = 1
    while monomial_count(n, k0 + 1) <= d:
        k0 += 1
    return k0


def max_rank_bound(n: int, d: int) -> int:
    """Maximal rank of an ordinary d-web of codimension one in dimension n.

    Computed by two independent formulas, a closed form and a telescoped sum,
    whose agreement is asserted on every call.
    """
    k0 = calibration_order(n, d)
    closed = k0 * d - monomial_count(n + 1, k0) + 1
    summed = sum(d - monomial_count(n, h) for h in range(1, k0 + 1))
    if closed != summed:
        raise AssertionError(
            f"rank bound formulas disagree at n={n}, d={d}: {closed} != {summed}"
        )
    return closed


def calibrated_max_rank(n: int, k0: int) -> int:
    """max_rank_bound at the calibrated web size d = monomial_count(n, k0)."""
    if n < 2:
        raise ValueError(f"calibrated_max_rank requires n >= 2, got n={n}")
    if k0 < 2:
        raise ValueError(f"calibrated_max_rank requires k0 >= 2, got k0={k0}")
    return max_rank_bound(n, monomial_count(n, k0))


class CountingTable(Frozen):
    """Exact counts for one calibration order k0.

    rho_values maps n to the calibrated maximal rank; N_values maps h to the
    dimension of the subspace of relations involving exactly h variables.
    """

    __slots__ = ("k0", "rho_values", "N_values")


def exact_support_dims(k0: int, n_max: int) -> CountingTable:
    """Table of N(h): relations of the dimension-h web using all h variables.

    N_values is support_dims of the calibrated maximal ranks rho_values; the
    values vanish for h > k0.
    """
    if k0 < 2:
        raise ValueError(f"exact_support_dims requires k0 >= 2, got k0={k0}")
    if n_max < 2:
        raise ValueError(f"exact_support_dims requires n_max >= 2, got n_max={n_max}")
    rho_values = {n: calibrated_max_rank(n, k0) for n in range(2, n_max + 1)}
    N_values = support_dims(rho_values)
    return CountingTable(k0=k0, rho_values=rho_values, N_values=N_values)


def support_dims(ranks: dict[int, int]) -> dict[int, int]:
    """Exact-support dimensions N(2..n_max) from ranks r(2..n_max).

    Solves r(n) = sum_{h=2}^{n} N(h) * binom(n, h), the split of the
    dimension-n relations by the variables they use, for N(2), N(3), ...
    """
    dims: dict[int, int] = {}
    for n in range(2, len(ranks) + 2):
        dims[n] = ranks[n] - sum(dims[h] * binom(n, h) for h in range(2, n))
    return dims


def verify_counting_identities(
    k0: int, n_max: int, h_max: int
) -> tuple[bool, str | None]:
    """Check the two counting identities exhaustively over the given ranges.

    (a) monomial_count(n, h) splits over support sizes:
        sum_k binom(h-1, k-1) * binom(n, k) for 1 <= n <= n_max, 1 <= h <= h_max.
    (b) the exact-support dimensions resum to the calibrated rank:
        calibrated_max_rank(n, k0) == sum_{h=2}^{k0} N(h) * binom(n, h)
        for 2 <= n <= n_max, and N(h) == 0 for k0 < h <= n_max.

    Returns (True, None) or (False, description-of-first-counterexample).
    No CLI command runs it: it is one of the paper's acceptance checks,
    which the tests run.
    """
    if k0 < 2 or n_max < 2 or h_max < 2:
        raise ValueError("verify_counting_identities requires bounds >= 2")
    for n in range(1, n_max + 1):
        for h in range(1, h_max + 1):
            lhs = monomial_count(n, h)
            rhs = sum(binom(h - 1, k - 1) * binom(n, k) for k in range(1, h + 1))
            if lhs != rhs:
                return False, f"support decomposition fails at n={n}, h={h}: {lhs} != {rhs}"
    table = exact_support_dims(k0, n_max)
    for h, value in table.N_values.items():
        if h > k0 and value != 0:
            return False, f"N({h}, {k0}) = {value}, expected 0"
    for n in range(2, n_max + 1):
        lhs = table.rho_values[n]
        rhs = sum(
            table.N_values[h] * binom(n, h) for h in range(2, min(k0, n_max) + 1)
        )
        if lhs != rhs:
            return False, f"rank resummation fails at n={n}, k0={k0}: {lhs} != {rhs}"
    return True, None
