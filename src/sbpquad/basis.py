"""Orthonormal polynomial bases on the reference simplices.

Collapsed-coordinate Koornwinder-Dubiner bases, orthonormal with respect
to the plain Lebesgue measure of the bi-unit elements from
:mod:`sbpquad.simplex`, built the same way in every dimension d.  A point
x has the collapsed coordinates

    a_l = 2 (1 + x_l) / ((3 - d + l) - sum_{m>l} x_m) - 1,  a_{d-1} = x_{d-1}

(a_l = -1 where the denominator vanishes), and mode (i_0, ..., i_{d-1}) is

    2^{d(d-1)/4} prod_l P~_{i_l}^{(2 s_l + l, 0)}(a_l) (1 - a_l)^{s_l},
    s_l = i_0 + ... + i_{l-1},

with P~ the orthonormal Jacobi polynomials.  Each level's table comes
from one normalized three-term recurrence run over all alpha of that
level at once, so values and derivatives are stable well past total
degree 40.  Gradients use the product rule, d/dx_m = D_m + sum_{l<m}
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


@lru_cache(maxsize=256)
def _recurrence(alphas: tuple[float, ...], beta: float, n: int):
    """Per-alpha coefficients: P~_0, the terms and norm of P~_1, and the
    a_i, b_i of P~_{i+1} = ((x - b_i) P~_i - a_{i-1} P~_{i-1}) / a_i."""
    cols = []
    for alpha in alphas:
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
    m = len(a)
    return table[0], table[1], table[2], table[3], table[4:4 + m], table[-m:]


def _jacobi_table(x: np.ndarray, alphas: tuple[float, ...], beta: float,
                  n: int) -> np.ndarray:
    """P~_0..P~_n at the points x (1-D) for every alpha at once, shape
    (n+1, len(alphas), len(x))."""
    p0, c1, c0, s1, a, b = _recurrence(alphas, beta, n)
    vals = np.empty((n + 1, len(alphas), len(x)))
    vals[0] = p0
    if n:
        vals[1] = (c1 * x / 2 + c0) / s1
    for i in range(1, n):
        vals[i + 1] = ((x - b[i]) * vals[i] - a[i - 1] * vals[i - 1]) / a[i]
    return vals


def _jacobi_derivative_table(x: np.ndarray, alphas: tuple[float, ...],
                             beta: float, n: int) -> np.ndarray:
    """Derivatives of P~_0..P~_n, laid out as in :func:`_jacobi_table`."""
    out = np.zeros((n + 1, len(alphas), len(x)))
    if n:
        k = np.arange(1, n + 1)[:, None, None]
        al = np.array(alphas)[:, None]
        out[1:] = np.sqrt(k * (k + al + beta + 1)) * _jacobi_table(
            x, tuple(alpha + 1 for alpha in alphas), beta + 1, n - 1)
    return out


# ----------------------------------------------------------------------
# collapsed coordinates and Vandermonde matrices

_SING_TOL = 1e-13


@lru_cache(maxsize=None)
def _plan(q: int, d: int):
    """Per level l: the mode indices i_l, the powers s_l and the level's
    Jacobi alphas 2 s + l for s = 0..max s_l; and the scale 2^{d(d-1)/4}."""
    i = np.array(mode_indices(q, d)).reshape(-1, d).T
    s = np.cumsum(i, axis=0) - i
    i.flags.writeable = s.flags.writeable = False
    levels = tuple((i[l], s[l], tuple(2.0 * k + l for k in range(top + 1)))
                   for l, top in enumerate(s.max(axis=1)))
    return levels, 2.0 ** (d * (d - 1) / 4)


def _levels(coords, q: int, d: int | None, check: bool):
    """Per level: a_l, i_l, s_l, the alphas and the powers (1 - a_l)^0..^max
    s_l (by repeated multiplication); and the scale."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if d is None:
        d = coords.shape[1]
    if check and reference_simplex(d).barycentric(coords).min() < -1e-12:
        raise ValueError("nodes outside the closure of the reference element")
    plan, scale = _plan(q, d)
    x = coords[:, :d].T
    a = x.copy()
    for l in range(d - 1):
        den = (3 - d + l) - x[l + 1:].sum(axis=0)
        ok = np.abs(den) > _SING_TOL
        a[l] = np.where(ok, 2.0 * (1.0 + x[l]) / np.where(ok, den, 1.0) - 1.0,
                        -1.0)
    levels = []
    for al, (i, s, alphas) in zip(a, plan):
        W = np.ones((len(alphas), len(al)))
        W[1:] = 1.0 - al
        levels.append((al, i, s, alphas, np.cumprod(W, axis=0)))
    return levels, scale


def vandermonde(coords: np.ndarray, q: int, d: int | None = None,
                check: bool = True) -> np.ndarray:
    """Basis evaluation matrix, shape (n_nodes, n_basis(q, d)).

    Column j holds mode j of the graded orthonormal basis evaluated at
    every node.
    """
    levels, V = _levels(coords, q, d, check)
    for a, i, s, alphas, W in levels:
        V = V * _jacobi_table(a, alphas, 0.0, q)[i, s] * W[s]
    return np.ascontiguousarray(V.T)


def grad_vandermonde(coords: np.ndarray, q: int, d: int | None = None,
                     check: bool = True) -> list[np.ndarray]:
    """Per-direction derivative Vandermonde matrices [d/dx_k V]."""
    levels, scale = _levels(coords, q, d, check)
    F, G, Fm = [], [], []
    for a, i, s, alphas, W in levels:
        P = _jacobi_table(a, alphas, 0.0, q)[i, s]
        dP = _jacobi_derivative_table(a, alphas, 0.0, q)[i, s]
        w, wm = W[s], W[np.maximum(s - 1, 0)]
        F.append(P * w)
        G.append(dP * w - s[:, None] * P * wm)   # d/da of P (1 - a)^s
        Fm.append(2.0 * P * wm)   # P (1 - a)^s over (1 - a)/2
    grads, chain = [], 0.0
    for m, (a, *_) in enumerate(levels):
        D = math.prod(F[:m] + [G[m]] + Fm[m + 1:], start=scale)
        grads.append(np.ascontiguousarray((D + chain).T))
        chain = chain + 0.5 * (1.0 + a) * D
    return grads


def integral_vector(q: int, d: int) -> np.ndarray:
    """Exact integrals of the basis modes: (sqrt(|Omega|), 0, ..., 0)."""
    f = np.zeros(n_basis(q, d))
    f[0] = math.sqrt(reference_simplex(d).measure)
    return f


# ----------------------------------------------------------------------
# collapsed-coordinate Gauss product rules (exact, strictly interior)


def simplex_gauss_rule(degree: int, d: int):
    """Positive-weight interior rule exact to the given total degree.

    Duffy-type product rule: level l of the collapsed coordinates carries
    the Gauss-Jacobi rule of weight (1 - a_l)^l (Gauss-Legendre at level
    0), mapped back by x_l = 2^{l+1-d} (1 + a_l) prod_{m>l} (1 - a_m) - 1
    and x_{d-1} = a_{d-1}, with the weights scaled by 2^{-d(d-1)/2}; node
    count grows like ceil((degree+1)/2)^d.

    Returns (coords (n, d), weights (n,)).
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
                  start=2.0 ** (-d * (d - 1) / 2))
    x = [math.prod((1.0 - am for am in a[l + 1:]),
                   start=2.0 ** (l + 1 - d) * (1.0 + a[l])) - 1.0
         for l in range(d - 1)]
    return np.column_stack([xl.ravel() for xl in x + [a[-1]]]), w.ravel()
