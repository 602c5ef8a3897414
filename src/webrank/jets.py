"""Multi-index bookkeeping and the jet matrices of an assembled web.

A degree-h multi-index L on n variables is labeled by the quadruple
(h, k, a, b): k is the size of its support, a the rank of that support among
the increasing k-tuples, and b the rank of the compressed all-positive
exponent vector.  Rows of every jet matrix are sorted by these labels
(k ascending, then a, then b), columns by the web's (k, a, b) entry labels;
with that ordering the matrix is block-triangular with the square generating
blocks on the diagonal.

Exact rank checks run on an integer layer (integer_jet_rows).  Each
gradient, one column of every jet matrix, is first multiplied by the lcm s_c
of its denominators; the degree-h entry of column c is then s_c^h times the
rational jet coefficient, so the integer matrix is the rational one times an
invertible diagonal matrix on the right and has the same rank.  The degree-h
rows are filled from the degree-(h-1) rows with one multiplication each,
g^L = g^(L - e_j) * g_j with j the first nonzero position of L.
jet_matrix and square_block keep the rational coefficients, which reports,
CSV dumps and determinants print.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import linalg
from .combin import monomial_count
from .expr import EvalError
from .scalars import Mode, scalar_to_str
from .web import AssembledWeb, GeneratingWeb, gradient_at, multi_indices, web_gradients


def degree(L: Sequence[int]) -> int:
    return sum(L)


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
    """The (h, k, a, b) label of a multi-index (a and b are 1-based ranks)."""
    if len(L) != n:
        raise ValueError(f"multi-index length {len(L)} does not match n={n}")
    h = degree(L)
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


def integer_jet_rows(
    n: int, top: int, gradients: Sequence[Sequence]
) -> tuple[list[list[list[int]]], list[int]]:
    """Integer jet matrices of degrees 1..top from exact gradients.

    Returns (matrices, scales): scales[c] is the lcm of the denominators of
    gradient c, and matrices[h-1][r][c] is scales[c]^h times
    jet_coefficient(gradients[c], L) for the r-th degree-h multi-index L, so
    each matrix has the rank of the rational jet matrix.
    """
    cleared, scales = linalg._integer_rows(gradients)
    coordinates = [[g[j] for g in cleared] for j in range(n)]
    previous = [[1] * len(cleared)]
    matrices = []
    for h in range(1, top + 1):
        previous = [
            list(map(operator.mul, previous[parent], coordinates[j]))
            for parent, j in _parent_rows(n, h)
        ]
        matrices.append(previous)
    return matrices, scales


@dataclass
class JetMatrix:
    """Jet coefficients of a web at a point: rows are multi-indices, columns entries."""

    rows: list[tuple[int, ...]]
    col_labels: list[tuple[int, int, int]]
    entries: list[list]
    mode: Mode

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.col_labels))

    def to_csv(self, handle) -> None:
        """Exact entries as p/q strings, float entries in decimal."""
        writer = csv.writer(handle)
        writer.writerow(
            ["multi_index"] + [f"{k},{a},{b}" for (k, a, b) in self.col_labels]
        )
        for row_index, row in zip(self.rows, self.entries):
            writer.writerow(
                ["|".join(str(e) for e in row_index)]
                + [scalar_to_str(value) for value in row]
            )


def jet_matrix_from_gradients(
    n: int,
    h: int,
    gradients: Sequence[Sequence],
    col_labels: Sequence[tuple[int, int, int]],
    mode: Mode,
) -> JetMatrix:
    rows = list(degree_multi_indices(n, h))
    entries = [
        [jet_coefficient(gradient, L) for gradient in gradients] for L in rows
    ]
    return JetMatrix(
        rows=rows, col_labels=list(col_labels), entries=entries, mode=mode
    )


def jet_matrix(W: AssembledWeb, h: int, point: Sequence, mode: Mode) -> JetMatrix:
    """The degree-h jet matrix of W at point: monomial_count(n, h) x size."""
    if h < 1:
        raise ValueError(f"jet order must be >= 1, got {h}")
    gradients = web_gradients(W, point, mode)
    return jet_matrix_from_gradients(
        W.n, h, gradients, [entry.label for entry in W.entries], mode
    )


def square_block(
    T_k: GeneratingWeb, k0: int, point: Sequence, mode: Mode
) -> JetMatrix:
    """The square diagonal block contributed by one generating web.

    Rows are the degree-k0 multi-indices on k variables with every exponent
    positive; columns are the web's integrals.  Both counts equal
    monomial_count(k, k0-k), so the block is square.
    """
    k = T_k.k
    rows = list(positive_vectors(k, k0))
    expected = monomial_count(k, k0 - k)
    if len(T_k.integrals) != expected:
        raise ValueError(
            f"generating web of arity {k} has {len(T_k.integrals)} integrals, "
            f"expected {expected}"
        )
    if len(rows) != expected:
        raise AssertionError("row enumeration disagrees with the cardinality count")
    gradients = []
    for b, integral in enumerate(T_k.integrals, start=1):
        try:
            gradients.append(gradient_at(integral, k, point, mode))
        except EvalError as err:
            raise EvalError(f"integral (k={k}, b={b}): {err}") from None
    entries = [
        [jet_coefficient(gradient, L) for gradient in gradients] for L in rows
    ]
    return JetMatrix(
        rows=rows,
        col_labels=[(k, 1, b) for b in range(1, expected + 1)],
        entries=entries,
        mode=mode,
    )
