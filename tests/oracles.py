"""Independent reference values for the test suite.

Everything here is computed by a different route than the package uses,
or stands in for code the package no longer has.  Monomial integrals
come from direct nested antidifferentiation in exact rational
arithmetic; the package itself needs no monomial moments, so these are
the suite's only exact moments.  Jacobi polynomials come through scipy's
unnormalized evaluations plus the explicit norm formula.  The
per-dimension basis evaluator, reference simplex and collapsed Gauss
rule are the ones the package used before each became d-generic (the
rule's Gauss-Jacobi levels come from scipy's roots_jacobi, as the
package's did before it computed them from its own recurrence), the two
orbit-layout enumerators are the ones it used before both search stages
shared one, the shared enumerator after them scans the whole product of
orbit counts, as the package's did before it drew each count from the
node budget left, and the swarm objective at the end scores one design per
call as the package did before it scored whole swarms, the periodic mesh
at the end is built per element, as the package built it before it built
the mesh from one cell, the Bloch symbols after it come from an FFT over
every cell, as the package built them before it summed cell 0's
stencil, and the energy ratios after them are computed at every Bloch
wavenumber, as the package computed them before it certified
one wavenumber of each conjugate pair, and the energy check after them
takes the SVD of every wavenumber's propagator, as the package did before
it screened them by their Frobenius norm; all are kept verbatim as the
exact reference.  The d-generic evaluator after the per-dimension one
runs one recurrence per level and a second per level for derivatives,
as the package did before one recurrence per call ran every level's
value and derivative rows.  Non-negative least squares, finally, is solved by
trying every support, where the package runs an active-set method.  The
damped LMA at the very end makes one solve and one residual per damping
trial, as the package did before it scored each damping ladder in one
stacked evaluation, and scores each trial through the one-design
residual the package kept until only this reference called it; its
positivity guard after it takes one step at a time, as the package's did
before it guarded a whole ladder in one array pass.  The coupled solve at
the end runs every swarm round, as the package did before a sweep ended
at the first round whose polish stalls on the weight floor, and polishes
every converged state with a second LMA solve of small damping, as the
package did before it built a converged state's rule as it stands.  The
antisymmetric part of each SBP operator, next, is solved as one dense
least-squares system over its strictly-lower-triangular entries, as the
package solved it before it built the minimum-norm solution in closed
form.  The symmetry check and
the facet matcher at the very end pair points by rounded keys and by a
per-node loop, as the package did before all its point matching went
through one nearest-point routine.  The random design, last, runs its
200-draw rejection loop on every orbit with free parameters, as the
package did before a facet orbit took its last draw without the loop.
The layout loop after it gives a layout short of unknowns a round-zero
solve on every sweep, as the package did before it gave such a layout
one solve.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb, gamma, sqrt

import numpy as np
import scipy.special

from sbpquad import basis, search, signatures
from sbpquad.advection import (MeshError, _cell_simplices, _sine_modes,
                               _stencil, _unit_responses, build_problem,
                               certification_horizon,
                               energy_ratios as package_energy_ratios,
                               step_matrix)
from sbpquad.operators import (_MATCH_TOL, FacetOperator,
                               SBPConstructionError)
from sbpquad.search import (EPS_WEIGHT, MARGIN, MAX_REJECTS, NU_DEC,
                            NU_INC, NU_MAX, TOL, InfeasibleDesignError,
                            LmaState,
                            QuadratureRule, RuleValidationError,
                            SearchResult, SearchSpec,
                            _record_best,
                            apply_update_with_positivity,
                            init_swarm, lma_solve as package_lma_solve,
                            lma_step, pso_step,
                            residual_and_jacobian,
                            swarm_objective as package_swarm_objective)
from sbpquad.signatures import invariant_moment_count
from sbpquad.simplex import (_SYMMETRY_TOL, CLOSURE_TOL, Facet, NodeSet,
                             NodeSetError,
                             ReferenceSimplex, facet_restriction,
                             orbit_structure, pairwise_distances)


def _even_moment(m: int) -> Fraction:
    """integral of y^m over [-1, 1]."""
    return Fraction(2, m + 1) if m % 2 == 0 else Fraction(0)


def monomial_integral_interval(a: int) -> Fraction:
    return _even_moment(a)


def monomial_integral_tri(a: int, b: int) -> Fraction:
    """x^a y^b over the triangle x,y >= -1, x + y <= 0."""
    sign = Fraction((-1) ** (a + 1))
    return sign / (a + 1) * (_even_moment(a + b + 1) - _even_moment(b))


def monomial_integral_tet(a: int, b: int, c: int) -> Fraction:
    """x^a y^b z^c over the tet x,y,z >= -1, x + y + z <= -1.

    The innermost x-integral gives ((-1-y-z)^{a+1} - (-1)^{a+1})/(a+1);
    the first term is expanded binomially in s = y + z and each piece
    reduced to even-power interval moments.
    """
    sign = Fraction((-1) ** (a + 1))

    def y_then_z(bi: int, zpow: int) -> Fraction:
        # integral over z in [-1,1] of z^zpow * int_{y=-1}^{-z} y^bi dy
        head = Fraction((-1) ** (bi + 1), bi + 1)
        return head * (_even_moment(zpow + bi + 1) - _even_moment(zpow))

    total = Fraction(0)
    for k in range(a + 2):
        for i in range(k + 1):
            coef = comb(a + 1, k) * comb(k, i)
            total += coef * y_then_z(b + i, c + k - i)
    total -= y_then_z(b, c)      # the (-1)^{a+1} constant part
    return sign * total / (a + 1)


def monomial_integral(powers, d: int) -> float:
    """x^a (y^b (z^c)) over the reference d-simplex, rounded once."""
    exact = (monomial_integral_interval, monomial_integral_tri,
             monomial_integral_tet)[d - 1]
    return float(exact(*(int(a) for a in powers)))


def jacobi_normalized(n: int, alpha: float, beta: float,
                      x: np.ndarray) -> np.ndarray:
    """Orthonormal Jacobi polynomial on [-1,1] with weight
    (1-x)^alpha (1+x)^beta, via scipy's classical evaluation."""
    num = 2.0 ** (alpha + beta + 1) / (2 * n + alpha + beta + 1)
    num *= gamma(n + alpha + 1) * gamma(n + beta + 1)
    num /= gamma(n + alpha + beta + 1) * gamma(n + 1)
    return scipy.special.eval_jacobi(n, alpha, beta, x) / sqrt(num)


LOBATTO_3 = (np.array([-1.0, 0.0, 1.0]),
             np.array([1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0]))
LOBATTO_4 = (np.array([-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0]),
             np.array([1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0]))
GAUSS_2 = (np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)]),
           np.array([1.0, 1.0]))

# first-derivative operator of the 3-node Lobatto collocation
D_LOBATTO_3 = np.array([[-1.5, 2.0, -0.5],
                        [-0.5, 0.0, 0.5],
                        [0.5, -2.0, 1.5]])


# ----------------------------------------------------------------------
# collapsed-coordinate basis, one branch per dimension (reference for
# sbpquad.basis)


def mode_indices(q: int, d: int) -> list[tuple[int, ...]]:
    """Graded mode index list; len equals n_basis(q, d)."""
    out: list[tuple[int, ...]] = []
    if d == 1:
        out = [(n,) for n in range(q + 1)]
    elif d == 2:
        for n in range(q + 1):
            for i in range(n + 1):
                out.append((i, n - i))
    elif d == 3:
        for n in range(q + 1):
            for i in range(n + 1):
                for j in range(n - i + 1):
                    out.append((i, j, n - i - j))
    else:
        raise ValueError(f"unsupported dimension {d}")
    return out


def jacobi(x: np.ndarray, alpha: float, beta: float, n: int) -> np.ndarray:
    """Values of the orthonormal Jacobi polynomials P~_0..P~_n at x.

    Orthonormal w.r.t. the weight (1-x)^alpha (1+x)^beta on [-1, 1].
    Returns an array of shape (n+1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    vals = np.empty((n + 1,) + x.shape)
    gamma0 = (2.0 ** (alpha + beta + 1) / (alpha + beta + 1)
              * math.exp(math.lgamma(alpha + 1) + math.lgamma(beta + 1)
                         - math.lgamma(alpha + beta + 1)))
    vals[0] = 1.0 / math.sqrt(gamma0)
    if n == 0:
        return vals
    gamma1 = (alpha + 1) * (beta + 1) / (alpha + beta + 3) * gamma0
    vals[1] = ((alpha + beta + 2) * x / 2 + (alpha - beta) / 2) \
        / math.sqrt(gamma1)
    aold = (2.0 / (2 + alpha + beta)
            * math.sqrt((alpha + 1) * (beta + 1) / (alpha + beta + 3)))
    for i in range(1, n):
        h1 = 2.0 * i + alpha + beta
        anew = (2.0 / (h1 + 2)
                * math.sqrt((i + 1) * (i + 1 + alpha + beta)
                            * (i + 1 + alpha) * (i + 1 + beta)
                            / (h1 + 1) / (h1 + 3)))
        bnew = -(alpha ** 2 - beta ** 2) / h1 / (h1 + 2)
        vals[i + 1] = ((x - bnew) * vals[i] - aold * vals[i - 1]) / anew
        aold = anew
    return vals


def jacobi_derivative(x: np.ndarray, alpha: float, beta: float,
                      n: int) -> np.ndarray:
    """First derivatives of the orthonormal Jacobi polynomials P~_0..P~_n."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((n + 1,) + x.shape)
    if n == 0:
        return out
    shifted = jacobi(x, alpha + 1, beta + 1, n - 1)
    for k in range(1, n + 1):
        out[k] = math.sqrt(k * (k + alpha + beta + 1)) * shifted[k - 1]
    return out


_SING_TOL = 1e-13


def _collapse_tri(x, y):
    denom = 1.0 - y
    a = np.where(np.abs(denom) > _SING_TOL,
                 2.0 * (1.0 + x) / np.where(np.abs(denom) > _SING_TOL,
                                            denom, 1.0) - 1.0,
                 -1.0)
    return a, y.copy()


def _collapse_tet(x, y, z):
    den_a = -(y + z)
    a = np.where(np.abs(den_a) > _SING_TOL,
                 2.0 * (1.0 + x) / np.where(np.abs(den_a) > _SING_TOL,
                                            den_a, 1.0) - 1.0,
                 -1.0)
    den_b = 1.0 - z
    b = np.where(np.abs(den_b) > _SING_TOL,
                 2.0 * (1.0 + y) / np.where(np.abs(den_b) > _SING_TOL,
                                            den_b, 1.0) - 1.0,
                 -1.0)
    return a, b, z.copy()


def _check_closure(coords: np.ndarray, d: int, tol: float = 1e-12):
    elem = reference_simplex(d)
    bary = elem.barycentric(coords)
    if bary.min() < -tol:
        raise ValueError("nodes outside the closure of the reference element")


def vandermonde(coords: np.ndarray, q: int, d: int | None = None,
                check: bool = True) -> np.ndarray:
    """Basis evaluation matrix, shape (n_nodes, n_basis(q, d)).

    Column j holds mode j of the graded orthonormal basis evaluated at
    every node.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if d is None:
        d = coords.shape[1]
    if check:
        _check_closure(coords, d)
    modes = mode_indices(q, d)
    n = coords.shape[0]
    V = np.empty((n, len(modes)))
    if d == 1:
        x = coords[:, 0]
        leg = jacobi(x, 0.0, 0.0, q)
        for col, (i,) in enumerate(modes):
            V[:, col] = leg[i]
        return V
    if d == 2:
        a, b = _collapse_tri(coords[:, 0], coords[:, 1])
        fa = jacobi(a, 0.0, 0.0, q)
        gb = {i: jacobi(b, 2.0 * i + 1.0, 0.0, q) for i in range(q + 1)}
        one_m_b = 1.0 - b
        pow_b = [np.ones_like(b)]
        for _ in range(q):
            pow_b.append(pow_b[-1] * one_m_b)
        for col, (i, j) in enumerate(modes):
            V[:, col] = math.sqrt(2.0) * fa[i] * gb[i][j] * pow_b[i]
        return V
    if d == 3:
        a, b, c = _collapse_tet(coords[:, 0], coords[:, 1], coords[:, 2])
        fa = jacobi(a, 0.0, 0.0, q)
        gb = {i: jacobi(b, 2.0 * i + 1.0, 0.0, q) for i in range(q + 1)}
        hc = {ij: jacobi(c, 2.0 * ij + 2.0, 0.0, q)
              for ij in range(q + 1)}
        pb = [np.ones_like(b)]
        pc = [np.ones_like(c)]
        for _ in range(q):
            pb.append(pb[-1] * (1.0 - b))
            pc.append(pc[-1] * (1.0 - c))
        for col, (i, j, k) in enumerate(modes):
            V[:, col] = (2.0 * math.sqrt(2.0) * fa[i] * gb[i][j]
                         * pb[i] * hc[i + j][k] * pc[i + j])
        return V
    raise ValueError(f"unsupported dimension {d}")


def grad_vandermonde(coords: np.ndarray, q: int, d: int | None = None,
                     check: bool = True) -> list[np.ndarray]:
    """Per-direction derivative Vandermonde matrices [d/dx_k V]."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if d is None:
        d = coords.shape[1]
    if check:
        _check_closure(coords, d)
    modes = mode_indices(q, d)
    n = coords.shape[0]
    if d == 1:
        x = coords[:, 0]
        dleg = jacobi_derivative(x, 0.0, 0.0, q)
        Vx = np.empty((n, len(modes)))
        for col, (i,) in enumerate(modes):
            Vx[:, col] = dleg[i]
        return [Vx]
    if d == 2:
        a, b = _collapse_tri(coords[:, 0], coords[:, 1])
        fa = jacobi(a, 0.0, 0.0, q)
        dfa = jacobi_derivative(a, 0.0, 0.0, q)
        gb = {i: jacobi(b, 2.0 * i + 1.0, 0.0, q) for i in range(q + 1)}
        dgb = {i: jacobi_derivative(b, 2.0 * i + 1.0, 0.0, q)
               for i in range(q + 1)}
        half_1mb = 0.5 * (1.0 - b)
        powh = [np.ones_like(b)]
        for _ in range(q):
            powh.append(powh[-1] * half_1mb)
        Vr = np.empty((n, len(modes)))
        Vs = np.empty((n, len(modes)))
        for col, (i, j) in enumerate(modes):
            scale = 2.0 ** (i + 0.5)
            dmdr = dfa[i] * gb[i][j]
            if i > 0:
                dmdr = dmdr * powh[i - 1]
            dmds = dfa[i] * (gb[i][j] * (0.5 * (1.0 + a)))
            if i > 0:
                dmds = dmds * powh[i - 1]
            tmp = dgb[i][j] * powh[i]
            if i > 0:
                tmp = tmp - 0.5 * i * gb[i][j] * powh[i - 1]
            dmds = dmds + fa[i] * tmp
            Vr[:, col] = scale * dmdr
            Vs[:, col] = scale * dmds
        return [Vr, Vs]
    if d == 3:
        a, b, c = _collapse_tet(coords[:, 0], coords[:, 1], coords[:, 2])
        fa = jacobi(a, 0.0, 0.0, q)
        dfa = jacobi_derivative(a, 0.0, 0.0, q)
        gb = {i: jacobi(b, 2.0 * i + 1.0, 0.0, q) for i in range(q + 1)}
        dgb = {i: jacobi_derivative(b, 2.0 * i + 1.0, 0.0, q)
               for i in range(q + 1)}
        hc = {ij: jacobi(c, 2.0 * ij + 2.0, 0.0, q) for ij in range(q + 1)}
        dhc = {ij: jacobi_derivative(c, 2.0 * ij + 2.0, 0.0, q)
               for ij in range(q + 1)}
        hb = 0.5 * (1.0 - b)
        hcC = 0.5 * (1.0 - c)
        pb = [np.ones_like(b)]
        pc = [np.ones_like(c)]
        for _ in range(q):
            pb.append(pb[-1] * hb)
            pc.append(pc[-1] * hcC)
        Vr = np.empty((n, len(modes)))
        Vs = np.empty((n, len(modes)))
        Vt = np.empty((n, len(modes)))
        for col, (i, j, k) in enumerate(modes):
            scale = 2.0 ** (2 * i + j + 1.5)
            dr = dfa[i] * gb[i][j] * hc[i + j][k]
            if i > 0:
                dr = dr * pb[i - 1]
            if i + j > 0:
                dr = dr * pc[i + j - 1]
            ds = 0.5 * (1.0 + a) * dr
            tmp = dgb[i][j] * pb[i]
            if i > 0:
                tmp = tmp - 0.5 * i * gb[i][j] * pb[i - 1]
            if i + j > 0:
                tmp = tmp * pc[i + j - 1]
            tmp = fa[i] * tmp * hc[i + j][k]
            ds = ds + tmp
            dt = 0.5 * (1.0 + a) * dr + 0.5 * (1.0 + b) * tmp
            tmp2 = dhc[i + j][k] * pc[i + j]
            if i + j > 0:
                tmp2 = tmp2 - 0.5 * (i + j) * hc[i + j][k] * pc[i + j - 1]
            tmp2 = fa[i] * gb[i][j] * tmp2 * pb[i]
            dt = dt + tmp2
            Vr[:, col] = scale * dr
            Vs[:, col] = scale * ds
            Vt[:, col] = scale * dt
        return [Vr, Vs, Vt]
    raise ValueError(f"unsupported dimension {d}")


# ----------------------------------------------------------------------
# the d-generic basis evaluator with one recurrence per level, and the
# derivative tables from a second run per level (reference for
# sbpquad.basis: the same scalar operations, so equal to the bit)


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


def level_vandermonde(coords: np.ndarray, q: int, d: int | None = None,
                check: bool = True) -> np.ndarray:
    """Basis evaluation matrix, shape (n_nodes, n_basis(q, d)).

    Column j holds mode j of the graded orthonormal basis evaluated at
    every node.
    """
    levels, V = _levels(coords, q, d, check)
    for a, i, s, alphas, W in levels:
        V = V * _jacobi_table(a, alphas, 0.0, q)[i, s] * W[s]
    return np.ascontiguousarray(V.T)


def level_grad_vandermonde(coords: np.ndarray, q: int, d: int | None = None,
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



# ----------------------------------------------------------------------
# per-dimension reference simplex and collapsed Gauss rule (reference
# for sbpquad.simplex.reference_simplex and sbpquad.basis.
# simplex_gauss_rule; verbatim but for the simplex cache)


def _facet_geometry(verts: np.ndarray, centroid: np.ndarray):
    """Outward unit normal and measure of the facet spanned by verts."""
    d = centroid.shape[0]
    if d == 1:
        normal = np.array([1.0])
        measure = 1.0
    elif d == 2:
        t = verts[1] - verts[0]
        normal = np.array([t[1], -t[0]])
        measure = float(np.linalg.norm(t))
        normal /= np.linalg.norm(normal)
    else:
        cr = np.cross(verts[1] - verts[0], verts[2] - verts[0])
        measure = 0.5 * float(np.linalg.norm(cr))
        normal = cr / np.linalg.norm(cr)
    if normal @ (verts.mean(axis=0) - centroid) < 0:
        normal = -normal
    return normal, measure


def reference_simplex(d: int) -> ReferenceSimplex:
    """Bi-unit reference simplex of dimension d in {1, 2, 3}."""
    if d == 1:
        verts = np.array([[-1.0], [1.0]])
        measure = 2.0
    elif d == 2:
        verts = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        measure = 2.0
    elif d == 3:
        verts = np.array([[-1.0, -1.0, -1.0], [1.0, -1.0, -1.0],
                          [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        measure = 4.0 / 3.0
    else:
        raise ValueError(f"unsupported dimension {d}")
    centroid = verts.mean(axis=0)
    facets = []
    for f in range(d + 1):
        ids = tuple(i for i in range(d + 1) if i != f)
        normal, fmeas = _facet_geometry(verts[list(ids)], centroid)
        normal.flags.writeable = False
        facets.append(Facet(f, ids, normal, fmeas))
    verts.flags.writeable = False
    elem = ReferenceSimplex(d, verts, measure, tuple(facets))
    return elem


def simplex_gauss_rule(degree: int, d: int):
    """Positive-weight interior rule exact to the given total degree.

    Duffy-type product of Gauss-Legendre and Gauss-Jacobi rules mapped
    through the collapsed coordinates; node count grows like
    ceil((degree+1)/2)^d.

    Returns (coords (n, d), weights (n,)).
    """
    # imported here: scipy.special is slow to import and only this uses it
    from scipy.special import roots_jacobi
    n1 = max(1, (degree + 2) // 2)
    if d == 1:
        x, w = np.polynomial.legendre.leggauss(n1)
        return x[:, None].copy(), w.copy()
    if d == 2:
        xa, wa = np.polynomial.legendre.leggauss(n1)
        xb, wb = roots_jacobi(n1, 1.0, 0.0)
        A, B = np.meshgrid(xa, xb, indexing="ij")
        WA, WB = np.meshgrid(wa, wb, indexing="ij")
        x = 0.5 * (1.0 + A) * (1.0 - B) - 1.0
        y = B
        w = 0.5 * WA * WB
        return (np.column_stack([x.ravel(), y.ravel()]), w.ravel())
    if d == 3:
        xa, wa = np.polynomial.legendre.leggauss(n1)
        xb, wb = roots_jacobi(n1, 1.0, 0.0)
        xc, wc = roots_jacobi(n1, 2.0, 0.0)
        A, B, C = np.meshgrid(xa, xb, xc, indexing="ij")
        WA, WB, WC = np.meshgrid(wa, wb, wc, indexing="ij")
        x = 0.25 * (1.0 + A) * (1.0 - B) * (1.0 - C) - 1.0
        y = 0.5 * (1.0 + B) * (1.0 - C) - 1.0
        z = C
        w = 0.125 * WA * WB * WC
        return (np.column_stack([x.ravel(), y.ravel(), z.ravel()]),
                w.ravel())
    raise ValueError(f"unsupported dimension {d}")


# ----------------------------------------------------------------------
# orbit-layout enumerators, one per search stage (reference for
# sbpquad.signatures)

# interior orbit kinds: (kind, node count, parameter count)
_INTERIOR = {
    2: (("S1", 1, 0), ("S21", 3, 1), ("S111", 6, 2)),
    3: (("S1", 1, 0), ("S31", 4, 1), ("S22", 6, 1),
        ("S211", 12, 2), ("S1111", 24, 3)),
}

# tet volume nodes induced per triangle-facet orbit (vertex/edge orbits
# are shared between faces, interior facet orbits are not)
_TET_COST = {"Svert": 4, "SmidEdge": 6, "Sedge": 12,
             "S1": 4, "S21": 12, "S111": 24}


def interior_candidates(d: int, qv: int, n_facet_orbits: int,
                        max_candidates: int = 60,
                        dof_filter: bool = True):
    """Interior orbit multisets in increasing node count.

    Yields tuples of kind names.  Free unknowns are all orbit weights
    plus the interior parameters; with dof_filter only multisets whose
    unknown count reaches invariant_moment_count(qv, d) survive.
    """
    kinds = _INTERIOR[d]
    need = invariant_moment_count(qv, d)
    node_cap = 3 * need + 24
    combos = []
    maxes = [1 if k == "S1" else node_cap // nn + 1 for k, nn, _ in kinds]
    for counts in itertools.product(*[range(m + 1) for m in maxes]):
        nodes = sum(c * nn for c, (_, nn, _) in zip(counts, kinds))
        if nodes > node_cap:
            continue
        params = sum(c * np_ for c, (_, _, np_) in zip(counts, kinds))
        orbits = sum(counts)
        unknowns = n_facet_orbits + orbits + params
        if dof_filter and unknowns < need:
            continue
        combo = []
        for c, (k, _, _) in zip(counts, kinds):
            combo.extend([k] * c)
        combos.append((nodes, -unknowns, counts, tuple(combo)))
    combos.sort()
    for _, _, _, combo in combos[:max_candidates]:
        yield combo


def _tri_facet_ranking(q: int):
    """(cost, nodes, -unknowns, combo) of every symmetric triangle layout
    of degree q within the node cap, sorted: induced tet cost first."""
    node_cap = 3 * invariant_moment_count(q, 2) + 18
    combos = []
    edge_max = node_cap // 6 + 1
    for n_vert in (0, 1):
        for n_mid in (0, 1):
            for n_edge in range(edge_max):
                for n_s1 in (0, 1):
                    for n_s21 in range(node_cap // 3 + 1):
                        for n_s111 in range(node_cap // 6 + 1):
                            nodes = (3 * n_vert + 3 * n_mid + 6 * n_edge
                                     + n_s1 + 3 * n_s21 + 6 * n_s111)
                            if nodes == 0 or nodes > node_cap:
                                continue
                            combo = (["Svert"] * n_vert
                                     + ["SmidEdge"] * n_mid
                                     + ["Sedge"] * n_edge
                                     + ["S1"] * n_s1
                                     + ["S21"] * n_s21
                                     + ["S111"] * n_s111)
                            cost = sum(_TET_COST[k] for k in combo)
                            params = n_edge + n_s21 + 2 * n_s111
                            unknowns = len(combo) + params
                            combos.append((cost, nodes, -unknowns,
                                           tuple(combo)))
    combos.sort()
    return combos


def _tri_facet_candidates(q: int, max_candidates: int = 24):
    """Symmetric triangle layouts of degree q ordered by induced tet cost."""
    combos = _tri_facet_ranking(q)
    seen = set()
    out = []
    for _, _, _, combo in combos:
        if combo in seen:
            continue
        seen.add(combo)
        out.append(combo)
        if len(out) >= max_candidates:
            break
    # The cheap prefix can consist entirely of underdetermined layouts
    # (fewer unknowns than invariant moments) once q is large; those only
    # work for special consistent cases like the mid-edge rule.  Append a
    # second tier of determined layouts so high degrees stay reachable.
    need = invariant_moment_count(q, 2)
    extra = 0
    for _, _, neg_unknowns, combo in combos:
        if extra >= max_candidates:
            break
        if combo in seen or -neg_unknowns < need:
            continue
        seen.add(combo)
        out.append(combo)
        extra += 1
    return out


# ----------------------------------------------------------------------
# the shared layout enumerator over the whole product of orbit counts
# (reference for sbpquad.signatures._layouts, which draws each count from
# the node budget left; verbatim)


def _layouts(d: int, kinds, node_cap: int):
    """(kinds, nodes, unknowns) of every orbit multiset over `kinds` with
    at most node_cap nodes; a kind without parameters appears at most
    once.  Unknowns are the orbit weights plus the orbit parameters."""
    structs = [orbit_structure(k, d) for k in kinds]
    ranges = [range(node_cap // st.size + 1 if st.n_params else 2)
              for st in structs]
    for counts in itertools.product(*ranges):
        nodes = sum(c * st.size for c, st in zip(counts, structs))
        if nodes <= node_cap:
            combo = tuple(k for c, k in zip(counts, kinds) for _ in range(c))
            unknowns = sum(c * (1 + st.n_params)
                           for c, st in zip(counts, structs))
            yield combo, nodes, unknowns


# ----------------------------------------------------------------------
# one-design swarm objective and best update (reference for
# sbpquad.search.swarm_objective and _record_best); basis evaluation goes
# through the package's own vandermonde, which the basis tests compare
# with the evaluator above


def expand_design(spec, tau: np.ndarray):
    """(bary, coords, node_weights) of a design; raises when
    any node leaves the closed element."""
    bary = spec._base + spec._dbary @ tau[:spec.n_params]
    if bary.min() < -CLOSURE_TOL or bary.max() > 1.0 + CLOSURE_TOL:
        raise InfeasibleDesignError("nodes leave the element")
    coords = bary @ spec._elem.vertices
    w = np.repeat(tau[spec.weight_slice], np.diff(spec.node_starts))
    return bary, coords, w


def residual_design(spec, tau: np.ndarray) -> np.ndarray:
    """Moment residual g = V^T w - f; raises InfeasibleDesignError when
    the design leaves the element."""
    _, coords, w = expand_design(spec, tau)
    V = basis.vandermonde(coords, spec.qv, spec.dim, check=False)
    return V.T @ w - spec._f


def swarm_objective(spec, tau: np.ndarray) -> float:
    """0.5 ||g||^2, +inf for infeasible designs."""
    try:
        g = residual_design(spec, tau)
    except InfeasibleDesignError:
        return np.inf
    return 0.5 * float(g @ g)


def record_best(swarm, i: int, tau: np.ndarray, obj: float) -> None:
    """Make tau particle i's personal best, and the global best, where
    it improves on them.  The global best is never worse than a personal
    best, so it can only improve where particle i's does."""
    if obj < swarm.pbest_obj[i]:
        swarm.pbest_obj[i] = obj
        swarm.pbest_pos[i] = tau.copy()
        if obj < swarm.gbest_obj:
            swarm.gbest_obj = float(obj)
            swarm.gbest_pos = tau.copy()


# ----------------------------------------------------------------------
# the periodic mesh per element: integer lattice, facet pairing by exact
# lattice keys and facet node matching by minimum image (reference for
# the one-cell construction in sbpquad.advection.build_problem)


def lattice(d: int, m: int) -> np.ndarray:
    """(T m^d, d+1, d) integer vertices of the periodic mesh.

    Element k is simplex k % T of cell k // T, cells in lexicographic
    order; physical vertices are these divided by m.
    """
    cells = np.indices((m,) * d).reshape(d, -1).T
    return (cells[:, None, None, :]
            + _cell_simplices(d)).reshape(-1, d + 1, d)


def pair_facets(ivert: np.ndarray, m: int) -> np.ndarray:
    """(K, d+1) flat index k2 (d+1) + f2 of each facet's periodic partner.

    Facet f, opposite vertex f, is keyed by the sum of its integer
    vertices modulo d m: d m times its wrapped centroid, computed
    exactly.  A stable sort of the keys brings the two sides of each
    interface together.
    """
    K, nv, d = ivert.shape
    ksum = np.mod(ivert.sum(axis=1, keepdims=True) - ivert, d * m)
    keys = (ksum @ (d * m) ** np.arange(d)).ravel()
    counts = np.unique(keys, return_counts=True)[1]
    if np.any(counts != 2):
        raise MeshError(
            f"{np.count_nonzero(counts != 2)} facets are not shared by "
            f"exactly two elements (nonconforming split?)")
    order = np.argsort(keys, kind="stable")
    partner = np.empty_like(order)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    return partner.reshape(K, nv)


def affine_maps(verts: np.ndarray):
    """(A, b, J) of the maps x = A xi + b from the reference simplex onto
    each simplex of verts, shape (K, d+1, d)."""
    ref_v = reference_simplex(verts.shape[-1]).vertices
    Minv = np.linalg.inv((ref_v[1:] - ref_v[0]).T)
    A = np.einsum("kix,ij->kxj", verts[:, 1:] - verts[:, :1], Minv)
    b = verts[:, 0] - np.einsum("kxj,j->kx", A, ref_v[0])
    return A, b, np.linalg.det(A)


def periodic_mesh(op, m: int):
    """(phys, partners) of the m-cell mesh: (T m^d, n, d) node
    coordinates from each element's affine map, and (m^d, T (d+1) n_f)
    flat index of each facet node's SAT partner node, matched element by
    element."""
    d, n = op.dim, op.n_nodes
    ivert = lattice(d, m)
    A, bvec, _ = affine_maps(ivert / m)
    phys = np.einsum("kxj,nj->knx", A, op.rule.nodes.coords) \
        + bvec[:, None, :]
    k2, f2 = np.divmod(pair_facets(ivert, m), d + 1)      # (K, d+1)
    vi = np.stack([fop.vol_idx for fop in op.facets])      # (d+1, n_f)
    partner = np.empty((len(ivert), *vi.shape), dtype=np.intp)
    for f in range(d + 1):
        theirs = vi[f2[:, f]]                              # (K, n_f)
        diff = (phys[:, vi[f], None, :]
                - phys[k2[:, f, None], theirs][:, None, :, :])
        diff -= np.round(diff)
        dist = np.linalg.norm(diff, axis=3)                # (K, n_f, n_f)
        match = np.argmin(dist, axis=2)
        srt = np.sort(match, axis=1)
        bad = ((dist.min(axis=2).max(axis=1) > 1e-9)
               | np.any(srt[:, 1:] == srt[:, :-1], axis=1))
        if np.any(bad):
            k = np.flatnonzero(bad)[0]
            raise MeshError(f"facet nodes of elements {k}/{k2[k, f]} do "
                            f"not collocate")
        partner[:, f] = (k2[:, f, None] * n
                         + np.take_along_axis(theirs, match, 1))
    return phys, partner.reshape(m ** d, -1)


# ----------------------------------------------------------------------
# Bloch symbols by an FFT over every cell (reference for
# sbpquad.advection.bloch_symbols, which sums cell 0's stencil; verbatim)


def bloch_symbols(prob) -> np.ndarray:
    """(m^d, T n, T n) Bloch symbols of the operator, T simplices a cell.

    Every cell of the lattice is split alike, so the operator is
    block-circulant over cells: on a Bloch mode u_c = v exp(i theta.c),
    cell c in lattice coordinates, it acts as the symbol Lhat(theta)
    on v.  Column b of Lhat is the discrete Fourier transform over the
    cells of rhs applied to unit vector b of cell 0; row j of the stack
    has theta = 2 pi j / m, j running over the cells' lexicographic
    order.
    """
    d, m = prob.dim, prob.m
    tn = prob.n_dof // m ** d
    cols = np.stack(list(_unit_responses(prob, tn))).reshape(
        tn, *(m,) * d, tn)
    symbols = np.fft.fftn(cols, axes=range(1, d + 1))
    return np.moveaxis(symbols, 0, -1).reshape(m ** d, tn, tn)


# ----------------------------------------------------------------------
# a convergence study's solution on every cell (reference for the Bloch
# steps of sbpquad.advection.run_convergence, which stay on cell 0)


def bloch_solution(prob, t: float, dt: float) -> np.ndarray:
    """run_to_time(prob, initial_condition(prob), t, dt) as a study takes
    it: the sine's modes s (s_0 = 1) on cell 0 go through N = ceil(t / dt)
    RK4 steps of their symbols, those of a 3-cell problem scaled to
    prob's m, and are mapped back onto every cell c, where mode s is
    exp(2 pi i j.c / m) times its cell-0 values, j = omega s / 2; u is
    twice the real part of their sum.
    """
    d, m = prob.dim, prob.m
    symbols = _stencil(build_problem(prob.op, 3, prob.c, flux=prob.flux,
                                     omega=prob.omega))
    s, v = _sine_modes(prob.phys[:len(prob.J)].reshape(-1, d), 0.0, prob.c,
                       prob.omega)
    j = prob.omega // 2 * s
    n_steps = max(1, math.ceil(t / dt))
    G = np.linalg.matrix_power(step_matrix(symbols(m, j), t / n_steps),
                               n_steps)
    cells = np.indices((m,) * d).reshape(d, -1).T
    u = np.exp(2j * np.pi / m * (cells @ j.T)) @ (G @ v[..., None])[..., 0]
    return 2.0 * u.real.reshape(prob.hw.shape)


# ----------------------------------------------------------------------
# energy ratios at every Bloch wavenumber (reference for
# sbpquad.advection.energy_ratios, which certifies one of each conjugate
# pair)


def energy_ratios(prob, dt: float,
                  symbols: np.ndarray | None = None) -> np.ndarray:
    """(m^d,) worst case over initial data of the energy ratio
    E(N dt) / E(0), N = ceil(T / dt) for T the certification horizon,
    per Bloch wavenumber.

    The Bloch modes are orthogonal in the energy norm, so the worst case
    at wavenumber theta is ||H^1/2 Ghat(theta)^N H^-1/2||_2^2, with H
    the norm on one cell; a propagator that overflows scores inf.  The
    scheme keeps the constants' energy exactly, and keeps data
    H-orthogonal to them H-orthogonal, so theta = 0 (row 0) is measured
    on that data alone; with the constants it would read 1 at every dt.
    """
    if symbols is None:
        symbols = bloch_symbols(prob)
    n_steps = max(1, math.ceil(certification_horizon(prob) / dt))
    h = np.sqrt(prob.hw.ravel()[:symbols.shape[-1]])      # cell 0's norm
    e = h / np.linalg.norm(h)          # the constants, scaled by H^1/2
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.linalg.matrix_power(step_matrix(symbols, dt), n_steps)
        G = h[:, None] * G / h
        G[0] -= np.outer(G[0] @ e, e)
        finite = np.isfinite(G).all(axis=(1, 2))
        ratios = np.full(len(G), np.inf)
        ratios[finite] = np.linalg.norm(G[finite], ord=2, axis=(1, 2)) ** 2
    return ratios


# ----------------------------------------------------------------------
# the energy check from every wavenumber's SVD (reference for
# sbpquad.advection.certify_stable, which screens wavenumbers by their
# Frobenius norm; verbatim, its energy_ratios the package's)


def certify_stable(prob, dt: float,
                   symbols: np.ndarray | None = None) -> tuple[bool, float]:
    """(energy at the horizon not above the initial energy for every
    initial datum, worst-case final/initial ratio)."""
    ratio = float(package_energy_ratios(prob, dt, symbols).max())
    return ratio <= 1.0 + 1e-12, ratio


# ----------------------------------------------------------------------
# non-negative least squares by enumerating supports (reference for
# sbpquad.search.nnls and floor_residual)


def nnls_min_norm(A: np.ndarray, b: np.ndarray) -> float:
    """min ||A x - b||_2 over x >= 0.

    Some minimiser has linearly independent columns on its support, and
    there it is the support's unique least-squares solution; so the
    minimum is the smallest residual of a nonnegative least-squares
    solution over every support, the empty one included.
    """
    n = A.shape[1]
    best = float(np.linalg.norm(b))
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            cols = A[:, list(support)]
            x = np.linalg.lstsq(cols, b, rcond=None)[0]
            if x.min() >= 0.0:
                best = min(best, float(np.linalg.norm(cols @ x - b)))
    return best


def floor_residual_norm(spec) -> float:
    """min ||g||_2 over weights >= EPS_WEIGHT of a layout without free
    parameters: each orbit's column sums the evaluator above over its
    nodes, and the floor moves into the right-hand side."""
    _, coords, _ = expand_design(spec, spec.frozen_template())
    V = vandermonde(coords, spec.qv, spec.dim)
    s = spec.node_starts
    A = np.column_stack([V[s[i]:s[i + 1]].sum(axis=0)
                         for i in range(spec.n_orbits)])
    return nnls_min_norm(A, spec._f - A @ np.full(spec.n_orbits, EPS_WEIGHT))


# ----------------------------------------------------------------------
# the damped LMA one trial at a time: one lma_step and one residual per
# damping, and a fresh residual_and_jacobian per iteration (reference for
# the stacked damping ladder of sbpquad.search.lma_solve); every name it
# calls but residual is the package's, and residual scores a design
# through the package's _moments


def residual(spec: SearchSpec, tau: np.ndarray) -> np.ndarray:
    """Moment residual g = V^T w - f; raises InfeasibleDesignError when
    the design leaves the element."""
    _, coords, w = spec.expand(tau)
    return search._moments(spec, coords, w)[1]


def lma_solve(spec: SearchSpec, tau0: np.ndarray, nu_init: float = 1e3,
              max_iters: int = 100, nu_floor: float = 0.0) -> LmaState:
    """Damped LMA from tau0 until ||g||_inf <= TOL or max_iters.

    The damping nu starts at nu_init, shrinks by NU_DEC (not below
    nu_floor) on residual decrease and grows by NU_INC on a rejected
    step; infeasible proposals are rejected the same way.
    """
    tau = np.asarray(tau0, dtype=float).copy()
    try:
        g = residual(spec, tau)
    except InfeasibleDesignError:
        return LmaState(tau, nu_init, np.inf, 0, False, "infeasible start")
    nu = nu_init
    it = 0
    while it < max_iters:
        res_inf = float(np.abs(g).max())
        if res_inf <= TOL:
            return LmaState(tau, nu, res_inf, it, True)
        _, J = residual_and_jacobian(spec, tau)
        gnorm = float(np.linalg.norm(g))
        accepted = False
        for _ in range(MAX_REJECTS):
            h = lma_step(g, J, spec.free_mask, nu)
            tau_try = apply_update_with_positivity(spec, tau, h)
            try:
                g_try = residual(spec, tau_try)
            except InfeasibleDesignError:
                nu = min(nu * NU_INC, NU_MAX)
                continue
            if np.linalg.norm(g_try) < gnorm:
                tau, g = tau_try, g_try
                nu = max(nu * NU_DEC, nu_floor, 1e-300)
                accepted = True
                break
            nu = min(nu * NU_INC, NU_MAX)
            if nu >= NU_MAX:
                break
        it += 1
        if not accepted:
            return LmaState(tau, nu, float(np.abs(g).max()), it, False,
                            "stalled")
    res_inf = float(np.abs(g).max())
    return LmaState(tau, nu, res_inf, it, res_inf <= TOL, "iteration cap")


def positivity_update(spec: SearchSpec, tau: np.ndarray,
                      h: np.ndarray) -> np.ndarray:
    """tau + eta*h with eta shrunk so no weight crosses the floor eps =
    EPS_WEIGHT, for one step h."""
    ws = spec.weight_slice
    w = tau[ws]
    hw = h[ws]
    trial = w + hw
    viol = trial < EPS_WEIGHT
    eta = 1.0
    if viol.any():
        eta = min(1.0, max(0.0, float(np.min((EPS_WEIGHT - w[viol])
                                             / hw[viol]))))
    return tau + eta * h


# ----------------------------------------------------------------------
# the coupled solve through every swarm round, with a polish of every
# converged state (reference for the floor stop of
# sbpquad.search.solve_coupled, and for its rule built straight from a
# converged state); every name it calls but _try_finalize is the
# package's, lma_solve and swarm_objective under a package_ prefix


def _try_finalize(spec: SearchSpec, state: LmaState):
    """(rule or None, final LMA state) after a polish of a converged
    state with small damping."""
    polished = lma_solve(spec, state.tau, nu_init=1e-8, max_iters=40,
                         nu_floor=1e-12)
    final = polished if polished.res_inf <= state.res_inf else state
    try:
        rule = spec.build_rule(final.tau, {"qv": spec.qv,
                                           "residual_inf": final.res_inf})
    except (NodeSetError, RuleValidationError):
        return None, final
    return rule, final


def solve_coupled(spec: SearchSpec, rng: np.random.Generator,
                  max_rounds: int = 10, pso_iters: int = 40) -> SearchResult:
    """Coupled LMA/PSO search for one orbit layout.

    Deterministic for a given (spec, rng state, max_rounds, pso_iters).
    Round zero is a plain LMA solve from a random design; afterwards each
    of up to max_rounds rounds runs pso_iters swarm steps, polishes the
    swarm's global best with LMA and feeds the result back as a particle.
    The swarm's global best never gets worse, so an unconverged search
    reports it (with max_rounds 0, no swarm: round zero's LMA endpoint).
    """
    lma_total = 0
    pso_total = 0

    tau0 = random_design(spec, rng)
    state = package_lma_solve(spec, tau0)
    lma_total += state.iterations
    if state.converged:
        rule, final = _try_finalize(spec, state)
        if rule is not None:
            return SearchResult(rule, True, final.res_inf, 0, lma_total,
                                pso_total, best_tau=final.tau)
    if max_rounds == 0:
        return SearchResult(None, False, state.res_inf, 0, lma_total,
                            pso_total, "no convergence", best_tau=state.tau)

    swarm = init_swarm(spec, rng, seeds=(state.tau, tau0))
    for rnd in range(1, max_rounds + 1):
        for _ in range(pso_iters):
            pso_step(spec, swarm, rng)
        pso_total += pso_iters
        state = package_lma_solve(spec, swarm.gbest_pos.copy())
        lma_total += state.iterations
        if state.converged:
            rule, final = _try_finalize(spec, state)
            if rule is not None:
                return SearchResult(rule, True, final.res_inf, rnd,
                                    lma_total, pso_total,
                                    best_tau=final.tau)
        # feed the LMA endpoint back into the swarm
        obj = package_swarm_objective(spec, state.tau[None])
        worst = np.argmax(swarm.pbest_obj, keepdims=True)
        swarm.positions[worst] = state.tau
        swarm.velocities[worst] = 0.0
        _record_best(swarm, worst, state.tau[None], obj)
    best = swarm.gbest_obj
    res = math.sqrt(2.0 * best) if np.isfinite(best) else np.inf
    return SearchResult(None, False, res, max_rounds, lma_total,
                        pso_total, "no convergence",
                        best_tau=swarm.gbest_pos.copy())


# ----------------------------------------------------------------------
# the antisymmetric S_i as one dense least-squares system over the
# strictly-lower-triangular entries (reference for the closed form of
# sbpquad.operators._solve_antisymmetric)


def _solve_antisymmetric(Vp: np.ndarray, rhs: list[np.ndarray]):
    """Minimum-norm antisymmetric S_i with S_i Vp ~= rhs_i for all i.

    Unknowns are the strictly-lower-triangular entries; every direction
    shares the same coefficient matrix, so the systems are solved
    together.
    """
    n, nb = Vp.shape
    pairs = np.array([(j, k) for j in range(n) for k in range(j)],
                     dtype=int)
    ncols = pairs.shape[0]
    M = np.zeros((n, nb, ncols))
    cols = np.arange(ncols)
    M[pairs[:, 0], :, cols] = Vp[pairs[:, 1]]
    M[pairs[:, 1], :, cols] = -Vp[pairs[:, 0]]
    M = M.reshape(n * nb, ncols)
    B = np.column_stack([r.reshape(n * nb) for r in rhs])
    sol, _, _, _ = np.linalg.lstsq(M, B, rcond=None)
    out = []
    defects = []
    for i in range(len(rhs)):
        S = np.zeros((n, n))
        S[pairs[:, 0], pairs[:, 1]] = sol[:, i]
        S[pairs[:, 1], pairs[:, 0]] = -sol[:, i]
        defects.append(float(np.abs(S @ Vp - rhs[i]).max()))
        out.append(S)
    return out, max(defects)


# ----------------------------------------------------------------------
# point matching by rounded keys and by a per-node loop (reference for
# sbpquad.simplex.node_set_is_symmetric and sbpquad.operators.
# match_facet_nodes, which both pair points with match_points)


def node_set_is_symmetric(nodes: NodeSet) -> bool:
    """Whether the weighted node set is invariant under vertex permutations."""
    m = nodes.dim + 1
    key = {}
    for i in range(len(nodes)):
        key[tuple(np.round(nodes.bary[i], 9))] = i
    for sigma in itertools.permutations(range(m)):
        for i in range(len(nodes)):
            img = nodes.bary[i, list(sigma)]
            j = key.get(tuple(np.round(img, 9)))
            if j is None:
                # fall back to a slow search before declaring failure
                dist = np.abs(nodes.bary - img).sum(axis=1)
                j = int(np.argmin(dist))
                if dist[j] > _SYMMETRY_TOL:
                    return False
            if abs(nodes.weights[i] - nodes.weights[j]) > _SYMMETRY_TOL * (
                    1.0 + abs(nodes.weights[i])):
                return False
    return True


def match_facet_nodes(rule: QuadratureRule, facet_id: int
                      ) -> FacetOperator:
    """Pair the facet rule's nodes with the volume nodes on one facet."""
    facet = reference_simplex(rule.dim).facets[facet_id]
    idx, local = facet_restriction(rule.nodes, facet_id)
    if rule.dim == 1:
        if idx.size != 1:
            raise SBPConstructionError(
                "interval rule lacks a boundary node (need LGL-type)")
        return FacetOperator(facet_id, idx, np.array([1.0]),
                             facet.normal.copy())
    frule = rule.facet_rule
    if frule is None:
        raise SBPConstructionError("rule carries no facet rule")
    fx = frule.nodes.coords
    scale = facet.measure / reference_simplex(rule.dim - 1).measure
    vol_idx = np.empty(frule.n_nodes, dtype=int)
    used = set()
    for q in range(frule.n_nodes):
        dist = np.linalg.norm(local - fx[q], axis=1)
        j = int(np.argmin(dist))
        if dist[j] > _MATCH_TOL or j in used:
            raise SBPConstructionError(
                f"facet {facet_id}: facet-rule node {q} has no matching "
                f"volume node (nearest at distance {dist[j]:.2e})")
        used.add(j)
        vol_idx[q] = idx[j]
    if len(used) != idx.size:
        raise SBPConstructionError(
            f"facet {facet_id}: {idx.size - len(used)} stray volume "
            f"node(s) not in the facet rule")
    return FacetOperator(facet_id, vol_idx,
                         frule.nodes.weights * scale, facet.normal.copy())


# ----------------------------------------------------------------------
# the random design with every orbit's rejection loop (reference for
# sbpquad.search.random_design); the coupled solve above draws from it


def random_design(spec: SearchSpec, rng: np.random.Generator) -> np.ndarray:
    """Random feasible design: interior orbit parameters uniform in the
    feasible box shrunk by MARGIN away from the boundary, weights uniform
    in (0, 2|Omega|/n_nodes] and at least EPS_WEIGHT."""
    tau = spec.frozen_template()
    for i, st in enumerate(spec._structs):
        if i in spec.frozen or st.n_params == 0:
            continue
        sl = spec.param_slices[i]
        ok = False
        for _ in range(200):
            theta = rng.random(st.n_params)
            bary = st.base + st.coeff @ theta
            if bary.min() < MARGIN or bary.max() > 1.0 - MARGIN:
                continue
            if pairwise_distances(bary).min() < 1e-3:
                continue
            tau[sl] = theta
            ok = True
            break
        if not ok:
            tau[sl] = theta  # last draw; solver will sort it out
    wmax = 2.0 * spec._elem.measure / spec.n_nodes
    tau[spec.weight_slice] = np.maximum(
        rng.random(spec.n_orbits) * wmax, EPS_WEIGHT)
    return tau


# ----------------------------------------------------------------------
# the layout loop with a round-zero solve on every sweep of a layout short
# of unknowns (reference for sbpquad.signatures._solve_layouts); every
# name it calls is the package's


def solve_layouts(stage: str, specs, sweeps: int, seed: int, **solve_args):
    """Rule of the first converged solve over specs, or None; each layout
    gets `sweeps` restart seeds, and a layout short of unknowns gets
    round zero only on each of them (screen "count")."""
    run = signatures._RUN.get() or signatures._Run()
    ss = np.random.SeedSequence(seed)
    for spec in specs:
        unknowns = int(spec.free_mask.sum())
        moments = invariant_moment_count(spec.qv, spec.dim)
        screen = "count" if unknowns < moments else None
        args = dict(solve_args, max_rounds=0) if screen else solve_args
        layout = {"stage": stage, "kinds": list(spec.kinds),
                  "unknowns": unknowns, "moments": moments}
        children = ss.spawn(sweeps)
        run.check_budget()
        g = signatures.floor_residual(spec)
        if g is not None and (np.linalg.norm(g)
                              > math.sqrt(spec.n_moments) * TOL):
            run.attempts.append(dict(layout, sweep=None, converged=False,
                                     residual=float(np.abs(g).max()),
                                     screen="floor", reason=None,
                                     rounds=None, lma_iterations=None,
                                     pso_iterations=None))
            continue
        for sweep, child in enumerate(children):
            run.check_budget()
            res = signatures.solve_coupled(spec, np.random.default_rng(child),
                                           **args)
            run.attempts.append(dict(layout, sweep=sweep,
                                     converged=res.converged,
                                     residual=res.residual_inf,
                                     screen=screen,
                                     reason=res.message or None,
                                     rounds=res.rounds,
                                     lma_iterations=res.lma_iterations,
                                     pso_iterations=res.pso_iterations))
            if res.converged:
                return res.rule
    return None
