"""Multi-index bookkeeping and the jet matrices of an assembled web.

A degree-h multi-index L on n variables is labeled by the quadruple
(h, k, a, b): k is the size of its support, a the rank of that support among
the increasing k-tuples, and b the rank of the compressed all-positive
exponent vector.  Rows of every jet matrix are sorted by these labels
(k ascending, then a, then b), columns by the web's (k, a, b) entry labels;
with that ordering the matrix is block-triangular with the square generating
blocks on the diagonal.

jet_matrix_from_gradients builds the jet matrices of degrees 1..top, one
column per gradient, on the int gradients of both modes
(tpoly.series_gradient, web.web_gradients): the degree-h rows are filled
from the degree-(h-1) rows with one multiplication each,
g^L = g^(L - e_j) * g_j with j the first nonzero position of L.  An exact
gradient is the int numerators of its order-1 series, the gradient times
that series' denominator s_c, so the degree-h entry of column c is s_c^h
times the rational jet coefficient: the integer matrix is the rational one
times an invertible diagonal matrix on the right and has the same rank.
Modular gradients are residues mod q, so the entries are ints whose
residues are the jet coefficients mod q; the modular kernel reduces them.
Float gradients are ints at one unit u, so the degree-h entries are the
exact products of the mpf gradients, ints at the unit h*u, and reach
linalg.float_rank with that unit for every column.  square_block is the
full-support tail of one generating web's degree-k0 jet matrix; in exact
mode it stays ints and comes with its column scales s_c^k0, by which the
report divides its determinant (ordinary._block_outcomes), since reports
print the determinants of the rational blocks; in modular mode it is ranked
mod q, every integral's exp nodes mapped through the point's one t0.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import lru_cache

from .combin import monomial_count
from .expr import EvalError
from .linalg import sparse_rows
from .scalars import Mode
from .tpoly import common_unit, modulus_at, series_gradient
from .web import GeneratingWeb, multi_indices


def support(L: Sequence[int]) -> tuple[int, ...]:
    """1-based positions of the nonzero exponents."""
    return tuple(i + 1 for i, exponent in enumerate(L) if exponent)


@lru_cache(maxsize=None)
def positive_vectors(k: int, h: int) -> tuple[tuple[int, ...], ...]:
    """Length-k exponent vectors with all entries >= 1 summing to h.

    Ordered lexicographically descending; there are binom(h-1, k-1) of them.
    """
    if k < 1 or h < k:
        return ()
    if k == 1:
        return ((h,),)
    out = []
    for first in range(h - k + 1, 0, -1):
        for rest in positive_vectors(k - 1, h - first):
            out.append((first, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def degree_multi_indices(n: int, h: int) -> tuple[tuple[int, ...], ...]:
    """All degree-h multi-indices on n variables in block (k, a, b) order."""
    out = []
    for k in range(1, min(h, n) + 1):
        for index in multi_indices(k, n):
            for compressed in positive_vectors(k, h):
                full = [0] * n
                for pos, exponent in zip(index, compressed):
                    full[pos - 1] = exponent
                out.append(tuple(full))
    if len(out) != monomial_count(n, h):
        raise AssertionError(
            f"enumerated {len(out)} degree-{h} multi-indices on {n} variables, "
            f"expected {monomial_count(n, h)}"
        )
    return tuple(out)


def quadruple(L: Sequence[int], n: int) -> tuple[int, int, int, int]:
    """The (h, k, a, b) label of a multi-index (a and b are 1-based ranks);
    the tests' check of the row order of degree_multi_indices."""
    if len(L) != n:
        raise ValueError(f"multi-index length {len(L)} does not match n={n}")
    h = sum(L)
    supp = support(L)
    k = len(supp)
    if k == 0:
        raise ValueError("the zero multi-index carries no quadruple label")
    a = multi_indices(k, n).index(supp) + 1
    compressed = tuple(L[pos - 1] for pos in supp)
    b = positive_vectors(k, h).index(compressed) + 1
    return (h, k, a, b)


def jet_coefficient(gradient: Sequence, L: Sequence[int]):
    """Product over variables of gradient[j]^L[j]; empty product is 1.

    Zero exponents contribute the factor 1 regardless of the gradient entry.
    The pipeline fills its jet matrices by jet_matrix_from_gradients' one
    multiplication per entry; this definition stays as the tests' oracle of
    those matrices, on Fractions and on mpf.
    """
    if len(gradient) != len(L):
        raise ValueError("gradient and multi-index lengths differ")
    out = None
    for value, exponent in zip(gradient, L):
        if exponent == 0:
            continue
        factor = value**exponent
        out = factor if out is None else out * factor
    return 1 if out is None else out


@lru_cache(maxsize=None)
def _parent_rows(n: int, h: int) -> tuple[tuple[int, int], ...]:
    """(row of L - e_j among the degree-(h-1) rows, j) for each degree-h row L.

    j is the 0-based first nonzero position of L; degree 0 is the single row
    of the zero multi-index.
    """
    if h == 1:
        previous = {(0,) * n: 0}
    else:
        previous = {L: r for r, L in enumerate(degree_multi_indices(n, h - 1))}
    out = []
    for L in degree_multi_indices(n, h):
        j = next(i for i, exponent in enumerate(L) if exponent)
        parent = list(L)
        parent[j] -= 1
        out.append((previous[tuple(parent)], j))
    return tuple(out)


def jet_matrix_from_gradients(
    n: int, top: int, gradients: Sequence[Sequence]
) -> list[list[list]]:
    """Jet matrices of degrees 1..top, one column per gradient.

    matrices[h-1][r][c] is jet_coefficient(gradients[c], L) for the r-th
    degree-h multi-index L (degree_multi_indices order), computed in the
    gradients' own scalars: ints in the pipeline, so every entry is exact.
    """
    coordinates = [[g[j] for g in gradients] for j in range(n)]
    previous = [[1] * len(gradients)]
    matrices = []
    for h in range(1, top + 1):
        previous = [
            list(map(operator.mul, previous[parent], coordinates[j]))
            for parent, j in _parent_rows(n, h)
        ]
        matrices.append(previous)
    return matrices


def square_block(T_k: GeneratingWeb, k0: int, point: Sequence, mode: Mode):
    """The square diagonal block contributed by one generating web, as rows.

    Rows are the degree-k0 multi-indices on k variables with every exponent
    positive (positive_vectors(k, k0)); columns are the web's integrals.
    Both counts equal monomial_count(k, k0-k), so the block is square.  The
    rows are the last ones of the degree-k0 jet matrix of the integrals'
    gradients, whose full-support block comes last.  Exact mode returns
    (int rows, column scales): column c of the rational block is column c
    of the int rows divided by scales[c], the k0-th power of its gradient's
    denominator, so the rational block's determinant is that of the int
    rows over the product of the scales.  Modular mode returns (sparse int
    rows, column count), the products of the residue gradients, which
    linalg.ranks ranks mod q.  Float mode returns (sparse int rows, column
    units): the exact products of the mpf gradients, one unit for every
    column, as linalg.float_rank takes them.
    """
    k = T_k.k
    expected = monomial_count(k, k0 - k)
    if len(T_k.integrals) != expected:
        raise ValueError(
            f"generating web of arity {k} has {len(T_k.integrals)} integrals, "
            f"expected {expected}"
        )
    if len(positive_vectors(k, k0)) != expected:
        raise AssertionError("row enumeration disagrees with the cardinality count")
    modulus = None
    if mode.is_modular:
        modulus = modulus_at([(u, point) for u in T_k.integrals], point)
    gradients = []
    for b, integral in enumerate(T_k.integrals, start=1):
        try:
            gradients.append(series_gradient(integral, point, mode, modulus))
        except EvalError as err:
            raise EvalError(f"integral (k={k}, b={b}): {err}") from None
    if not mode.is_float:
        values = [g for g, _ in gradients]
        rows = jet_matrix_from_gradients(k, k0, values)[-1][-expected:]
        if mode.is_modular:
            return sparse_rows(rows)
        return rows, [den**k0 for _, den in gradients]
    values, unit = common_unit(gradients)
    rows = jet_matrix_from_gradients(k, k0, values)[-1][-expected:]
    return sparse_rows(rows, k0 * unit)
