"""Orthonormal polynomial bases on the reference simplices.

Collapsed-coordinate Koornwinder-Dubiner bases, orthonormal with respect
to the plain Lebesgue measure of the bi-unit elements from
:mod:`sbpquad.simplex`, built the same way in every dimension d.  A point
x has the collapsed coordinates

    a_l = 2 (1 + x_l) / ((3 - d + l) - sum_{m>l} x_m) - 1,  a_{d-1} = x_{d-1}

(a_l = -1 where the denominator vanishes), and mode (i_0, ..., i_{d-1}) is

    2^{d(d-1)/4} prod_l P~_{i_l}^{(2 s_l + l, 0)}(a_l) (1 - a_l)^{s_l},
    s_l = i_0 + ... + i_{l-1},

with P~ the orthonormal Jacobi polynomials.  One normalized three-term
recurrence per call computes the values of every level at once, a row
per (level, alpha) taking that level's a_l; a gradient call adds the
derivative rows, P~'_i = sqrt(i (i + alpha + 1)) P~_{i-1}^{(alpha+1, 1)},
to the same recurrence.  Values and derivatives stay stable well past
total degree 40.  Gradients use the product rule, d/dx_m = D_m + sum_{l<m}
(1 + a_l)/2 D_l with D_l = d/da_l times da_l/dx_l.  That factor divides
by prod_{m>l} (1 - a_m)/2, so D_l carries each later (1 - a_m) power
lowered by one and stays finite at vertices and edges.

Mode ordering is graded: total degree ascending, and within one degree
the multi-indices in lexicographic order.  The first mode is the
constant 1/sqrt(|Omega|).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .simplex import reference_simplex

__all__ = [
    "n_basis",
    "mode_indices",
    "vandermonde",
    "grad_vandermonde",
    "integral_vector",
    "simplex_gauss_rule",
]


def n_basis(q: int, d: int) -> int:
    """Dimension of the total-degree-q polynomial space in d variables."""
    return math.comb(q + d, d)


def mode_indices(q: int, d: int) -> list[tuple[int, ...]]:
    """Graded mode index list; len equals n_basis(q, d)."""
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    modes = (m for m in itertools.product(range(q + 1), repeat=d)
             if sum(m) <= q)
    return sorted(modes, key=lambda m: (sum(m), m))


# ----------------------------------------------------------------------
# normalized Jacobi polynomials


def _recurrence(rows, n: int) -> np.ndarray:
    """Per (alpha, beta) row: P~_0, the terms and norm of P~_1, and the
    a_i, b_i of P~_{i+1} = ((x - b_i) P~_i - a_{i-1} P~_{i-1}) / a_i for
    i < max(n, 1), stacked as shape (4 + 2 max(n, 1), len(rows), 1)."""
    cols = []
    for alpha, beta in rows:
        gamma0 = (2.0 ** (alpha + beta + 1) / (alpha + beta + 1)
                  * math.exp(math.lgamma(alpha + 1) + math.lgamma(beta + 1)
                             - math.lgamma(alpha + beta + 1)))
        gamma1 = (alpha + 1) * (beta + 1) / (alpha + beta + 3) * gamma0
        a = [2.0 / (2 + alpha + beta)
             * math.sqrt((alpha + 1) * (beta + 1) / (alpha + beta + 3))]
        b = [0.0]
        for i in range(1, n):
            h1 = 2.0 * i + alpha + beta
            a.append(2.0 / (h1 + 2)
                     * math.sqrt((i + 1) * (i + 1 + alpha + beta)
                                 * (i + 1 + alpha) * (i + 1 + beta)
                                 / (h1 + 1) / (h1 + 3)))
            b.append(-(alpha ** 2 - beta ** 2) / h1 / (h1 + 2))
        cols.append([1.0 / math.sqrt(gamma0), alpha + beta + 2,
                     (alpha - beta) / 2, math.sqrt(gamma1)] + a + b)
    table = np.array(cols).T[..., None]
    table.flags.writeable = False
    return table


def _jacobi_table(x: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """P~_0..P~_n of every row at once, shape (n+1,) + x.shape: row r
    takes the points x[r] and the coefficients coeffs[:, r]."""
    p0, c1, c0, s1 = coeffs[:4]
    m = len(coeffs) // 2 - 2
    a, b = coeffs[4:4 + m], coeffs[4 + m:]
    vals = np.empty((n + 1,) + x.shape)
    vals[0] = p0
    if n:
        vals[1] = (c1 * x / 2 + c0) / s1
    for i in range(1, n):
        vals[i + 1] = ((x - b[i]) * vals[i] - a[i - 1] * vals[i - 1]) / a[i]
    return vals


# ----------------------------------------------------------------------
# collapsed coordinates and Vandermonde matrices

_SING_TOL = 1e-13


@lru_cache(maxsize=None)
def _plan(q: int, d: int):
    """Table rows: the n value rows (2 s + l, 0), s = 0..max s_l, level
    by level, then a derivative row (alpha + 1, 1) for each.  Returns per
    level (i_l, the value row of (l, s_l), s_l, max(i_l - 1, 0) and its
    derivative row, sqrt(i_l (i_l + 2 s_l + l + 1)), max(s_l - 1, 0));
    each row's level; the rows' _recurrence to degree q; n; 2^{d(d-1)/4}.
    """
    i = np.array(mode_indices(q, d)).reshape(-1, d).T
    s = np.cumsum(i, axis=0) - i
    tops = s.max(axis=1)
    rows = [(2.0 * k + l, 0.0) for l, top in enumerate(tops)
            for k in range(top + 1)]
    n = len(rows)
    row = np.concatenate([[0], np.cumsum(tops + 1)[:-1]])[:, None] + s
    dscale = np.sqrt(i * (i + (2.0 * s + np.arange(d)[:, None]) + 1))
    levels = tuple(zip(i, row, s, np.maximum(i - 1, 0), row + n,
                       dscale[..., None], np.maximum(s - 1, 0)))
    row_level = np.tile(np.repeat(np.arange(d), tops + 1), 2)
    for arr in (row_level, *itertools.chain(*levels)):
        arr.flags.writeable = False
    coeffs = _recurrence(rows + [(al + 1, be + 1) for al, be in rows], q)
    return levels, row_level, coeffs, n, 2.0 ** (d * (d - 1) / 4)


def _collapse(coords, q: int, d: int | None, check: bool):
    """Collapsed coordinates a, shape (d, n), and the powers W[l, k] =
    (1 - a_l)^k, k = 0..q, shape (d, q + 1, n), by repeated products."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if d is None:
        d = coords.shape[1]
    if check and reference_simplex(d).barycentric(coords).min() < -1e-12:
        raise ValueError("nodes outside the closure of the reference element")
    x = coords[:, :d].T
    a = x.copy()
    for l in range(d - 1):
        den = (3 - d + l) - x[l + 1:].sum(axis=0)
        ok = np.abs(den) > _SING_TOL
        a[l] = np.where(ok, 2.0 * (1.0 + x[l]) / np.where(ok, den, 1.0) - 1.0,
                        -1.0)
    W = np.empty((q + 1, d, len(coords)))
    W[0], b = 1.0, 1.0 - a
    for k in range(q):
        np.multiply(W[k], b, out=W[k + 1])
    return a, W.swapaxes(0, 1)


def vandermonde(coords: np.ndarray, q: int, d: int | None = None,
                check: bool = True) -> np.ndarray:
    """Basis evaluation matrix, shape (n_nodes, n_basis(q, d)).

    Column j holds mode j of the graded orthonormal basis evaluated at
    every node.
    """
    a, W = _collapse(coords, q, d, check)
    levels, row_level, coeffs, n, V = _plan(q, len(a))   # V = the scale
    table = _jacobi_table(a[row_level[:n]], coeffs[:, :n], q)
    for (i, r, s, *_), Wl in zip(levels, W):
        V = V * table[i, r] * Wl[s]
    return np.ascontiguousarray(V.T)


def grad_vandermonde(coords: np.ndarray, q: int, d: int | None = None,
                     check: bool = True) -> list[np.ndarray]:
    """Per-direction derivative Vandermonde matrices [d/dx_k V]."""
    a, W = _collapse(coords, q, d, check)
    levels, row_level, coeffs, _, scale = _plan(q, len(a))
    table = _jacobi_table(a[row_level], coeffs, q)
    F, G, Fm = [], [], []
    for (i, r, s, di, dr, c, sm), Wl in zip(levels, W):
        P, dP = table[i, r], c * table[di, dr]
        w, wm = Wl[s], Wl[sm]
        F.append(P * w)
        G.append(dP * w - s[:, None] * P * wm)   # d/da of P (1 - a)^s
        Fm.append(2.0 * P * wm)   # P (1 - a)^s over (1 - a)/2
    grads, chain = [], 0.0
    for m in range(len(a)):
        D = math.prod(F[:m] + [G[m]] + Fm[m + 1:], start=scale)
        grads.append(np.ascontiguousarray((D + chain).T))
        chain = chain + 0.5 * (1.0 + a[m]) * D
    return grads


def integral_vector(q: int, d: int) -> np.ndarray:
    """Exact integrals of the basis modes: (sqrt(|Omega|), 0, ..., 0)."""
    f = np.zeros(n_basis(q, d))
    f[0] = math.sqrt(reference_simplex(d).measure)
    return f


# ----------------------------------------------------------------------
# collapsed-coordinate Gauss product rules (exact, strictly interior)


@lru_cache(maxsize=None)
def simplex_gauss_rule(degree: int, d: int):
    """Positive-weight interior rule exact to the given total degree.

    Duffy-type product rule: level l of the collapsed coordinates carries
    the Gauss-Jacobi rule of weight (1 - a_l)^l (Gauss-Legendre at level
    0), mapped back by x_l = 2^{l+1-d} (1 + a_l) prod_{m>l} (1 - a_m) - 1
    and x_{d-1} = a_{d-1}, with the weights scaled by 2^{-d(d-1)/2}; node
    count grows like ceil((degree+1)/2)^d.

    Returns (coords (n, d), weights (n,)), read-only: they are cached.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {d}")
    # imported here: scipy.special is slow to import and only this uses it
    from scipy.special import roots_jacobi
    n1 = max(1, (degree + 2) // 2)
    rules = [np.polynomial.legendre.leggauss(n1),
             *(roots_jacobi(n1, float(l), 0.0) for l in range(1, d))]
    a = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    w = math.prod(np.meshgrid(*(w for _, w in rules), indexing="ij"),
                  start=2.0 ** (-d * (d - 1) / 2)).ravel()
    x = [math.prod((1.0 - am for am in a[l + 1:]),
                   start=2.0 ** (l + 1 - d) * (1.0 + a[l])) - 1.0
         for l in range(d - 1)]
    coords = np.column_stack([xl.ravel() for xl in x + [a[-1]]])
    coords.flags.writeable = w.flags.writeable = False
    return coords, w
