"""Quadrature on finite intervals with endpoint-singularity support.

Every integral is first tried with a fixed Gauss rule, and only handed to
the adaptive integrator when that rule cannot vouch for its own answer (the
order QUADPACK's non-adaptive QNG and adaptive QAG are tried in).

Fixed-rule front: the integrand is evaluated once on the concatenated nodes
of an n-point and a 2n-point Gauss-Jacobi rule (n = 20) for the weight
``(1+t)**beta`` on [-1, 1].  ``beta = alpha - 1`` carries the endpoint
weight ``(x-a)**(alpha-1)`` (or its mirror ``(b-x)**(alpha-1)``) of
:func:`integrate_singular` exactly; ``beta = 0`` is Gauss-Legendre for
:func:`integrate`.  Nodes and weights come from the Golub-Welsch
eigenvalue problem on the Jacobi matrix and are cached per (n, beta).  The
2n-point value is accepted when both sums are finite and
``|Q_2n - Q_n| <= max(abs_tol, rel_tol * |Q_2n|)``, the same global test the
adaptive loop uses; the difference, floored at the adaptive loop's round-off
level ``100 * eps * sum |w_2n * g|``, is reported as the error estimate and
``subdivisions_used == 0`` marks an accepted fixed rule.
:func:`integrate_cells` runs the same pair on all cells of a grid with one
integrand call and the same per-cell test.

Adaptive fallback: otherwise the integral is recomputed from scratch with
the embedded 7-point Gauss / 15-point Kronrod pair, whose difference is the
panel error.  Adaptivity is by bisection: every round evaluates all
still-active panels in one vectorized batch, accepts those whose error fits
their share of the budget (or is at the round-off floor of the panel), and
bisects the rest.  There, weights ``(x-a)**(alpha-1)`` with ``alpha < 1``
are removed exactly by the power substitution ``x = a + u**(1/alpha)``
(mirrored on the right), which turns the weighted integral into a plain one
with a bounded integrand; for ``alpha >= 1`` the weight is continuous and
is integrated directly.

Integrands are called with a flat numpy array and must return an array of
the same shape; expression trees from :mod:`hypfrac.expressions` satisfy
this directly.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .expressions import Interval

# 7/15 Gauss-Kronrod abscissae and weights on [-1, 1] (positive half).
_XGK_HALF = np.array([
    0.9914553711208126392068546975263285,
    0.9491079123427585245261896840478513,
    0.8648644233597690727897127886409262,
    0.7415311855993944398638647732807884,
    0.5860872354676911302941448382587296,
    0.4058451513773971669066064120769615,
    0.2077849550078984676006894037732449,
    0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292249637320080589695,
    0.0630920926299785532907006631892042,
    0.1047900103222501838398763225415180,
    0.1406532597155259187451895905102379,
    0.1690047266392679028265834265985503,
    0.1903505780647854099132564024210137,
    0.2044329400752988924141619992346491,
    0.2094821410847278280129991748917143,
])
_WG_HALF = np.array([
    0.1294849661688696932706114326790820,
    0.2797053914892766679014677714237796,
    0.3818300505051189449503697754889751,
    0.4179591836734693877551020408163265,
])

_XGK = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])  # 15 nodes ascending
_WGK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])  # Gauss nodes sit at odd slots

_EPS = float(np.finfo(float).eps)

# node count of the smaller fixed rule; the check rule has twice as many
_FIXED_N = 20


@dataclass(frozen=True)
class QuadConfig:
    """Accuracy targets and the subdivision budget."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool = True

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


class Endpoint(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


DEFAULT_QUAD = QuadConfig()


def _panels(f, lo, hi):
    """Kronrod value, error estimate and L1 estimate for a batch of panels."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    xs = c[:, None] + h[:, None] * _XGK[None, :]
    ys = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    k = h * (ys @ _WGK)
    g = h * (ys @ _WG)
    l1 = h * (np.abs(ys) @ _WGK)
    return k, np.abs(k - g), l1


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n: int, beta: float):
    """Nodes (ascending) and weights of the n-point Gauss rule for the weight
    ``(1+t)**beta`` on [-1, 1], ``beta > -1``.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P_k^(0, beta), polished by one Newton step on the
    orthonormal P_n.  The weights are the Christoffel numbers
    ``1 / sum_k q_k(t)**2`` of the orthonormal q_k: a sum of positive terms,
    so the small weights next to the endpoints keep their relative accuracy,
    which squared eigenvector components lose.  The returned arrays are
    read-only because every caller shares them.
    """
    k = np.arange(n + 1, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(n + 1)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s[1:] * (s[1:] + 2.0))
    off = np.zeros(n + 1)  # off[k] couples q_{k-1} and q_k
    off[1:] = 2.0 * k[1:] * (k[1:] + beta) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    jacobi = np.diag(diag[:n]) + np.diag(off[1:n], 1) + np.diag(off[1:n], -1)
    t = np.linalg.eigvalsh(jacobi)
    mu0 = 2.0 ** (beta + 1.0) / (beta + 1.0)
    q, dq, _ = _orthonormal(t, diag, off, mu0)
    t = t - q / dq
    _, _, sumsq = _orthonormal(t, diag, off, mu0)
    weights = 1.0 / sumsq
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def _orthonormal(t, diag, off, mu0):
    """q_n(t), q_n'(t) and sum_{k<n} q_k(t)**2 for the orthonormal
    polynomials of the Jacobi matrix with diagonal ``diag`` and off-diagonal
    ``off``, from the three-term recurrence."""
    q_prev, q = np.zeros_like(t), np.full_like(t, 1.0 / math.sqrt(mu0))
    dq_prev, dq = np.zeros_like(t), np.zeros_like(t)
    sumsq = np.zeros_like(t)
    for j in range(t.size):
        sumsq += q * q
        q_next = ((t - diag[j]) * q - off[j] * q_prev) / off[j + 1]
        dq_next = (q + (t - diag[j]) * dq - off[j] * dq_prev) / off[j + 1]
        q_prev, q, dq_prev, dq = q, q_next, dq, dq_next
    return q, dq, sumsq


@functools.lru_cache(maxsize=64)
def _fixed_pair(beta: float):
    """The shifted nodes ``1 + t`` of the n- and 2n-point Gauss-Jacobi rules,
    concatenated, and the two weight vectors."""
    t1, w1 = _gauss_jacobi(_FIXED_N, beta)
    t2, w2 = _gauss_jacobi(2 * _FIXED_N, beta)
    nodes = 1.0 + np.concatenate([t1, t2])
    nodes.setflags(write=False)
    return nodes, w1, w2


def _fixed_sums(g, a, b, alpha: float, endpoint: Endpoint):
    """The n- and 2n-point Gauss-Jacobi sums, without the ``h**alpha``
    factor, of g times the endpoint weight on the cell [a, b], or on every
    cell when a and b are columns (shape (m, 1)) of cell edges, and the
    2n-point sum of |g|.  g is called once on all nodes."""
    nodes, w1, w2 = _fixed_pair(alpha - 1.0)
    offsets = 0.5 * (b - a) * nodes
    xs = a + offsets if endpoint is Endpoint.LEFT else b - offsets
    ys = np.asarray(g(xs.ravel()), dtype=float).reshape(xs.shape)
    y2 = ys[..., _FIXED_N:]
    return ys[..., :_FIXED_N] @ w1, y2 @ w2, np.abs(y2) @ w2


def _fixed_ok(q1: float, q2: float, cfg: QuadConfig) -> bool:
    """Whether the 2n-point value q2 is vouched for by the n-point value q1."""
    return (math.isfinite(q1) and math.isfinite(q2)
            and abs(q2 - q1) <= max(cfg.abs_tol, cfg.rel_tol * abs(q2)))


def _fixed_rule(g, interval: Interval, alpha: float, endpoint: Endpoint,
                cfg: QuadConfig):
    """The 2n-point Gauss-Jacobi value of g times the endpoint weight
    ``(x-a)**(alpha-1)`` (LEFT) or ``(b-x)**(alpha-1)`` (RIGHT), or None when
    it disagrees with the n-point value past the tolerance.  The error
    estimate is |Q_2n - Q_n|, but never below the round-off floor
    ``100 * eps * sum |w_2n * g|`` that the adaptive loop accepts a panel at:
    when both rules resolve g, their difference is round-off and can sit
    below the true error."""
    try:
        scale = (0.5 * (interval.b - interval.a)) ** alpha
    except OverflowError:  # the adaptive path reports the overflow as inf
        return None
    s1, s2, l1 = _fixed_sums(g, interval.a, interval.b, alpha, endpoint)
    q1 = scale * float(s1)
    q2 = scale * float(s2)
    if _fixed_ok(q1, q2, cfg):
        return QuadResult(q2, max(abs(q2 - q1), 100.0 * _EPS * scale * float(l1)),
                          0, True)
    return None


def integrate_cells(f, edges, cfg: QuadConfig = DEFAULT_QUAD):
    """Integrals of f over the cells [edges[k], edges[k+1]], as an array.

    The fixed Gauss-Legendre pair of :func:`integrate` runs on all cells in
    one evaluation of f, with the same per-cell acceptance test; only the
    cells it rejects are integrated one by one with the adaptive rule.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    h = 0.5 * (b - a)
    s1, s2, _ = _fixed_sums(f, a[:, None], b[:, None], 1.0, Endpoint.LEFT)
    values = h * s2
    for k, (q1, q2) in enumerate(zip((h * s1).tolist(), values.tolist())):
        if not _fixed_ok(q1, q2, cfg):
            values[k] = _integrate_adaptive(f, Interval(a[k], b[k]), cfg).value
    return values


def integrate(f, interval: Interval, cfg: QuadConfig = DEFAULT_QUAD) -> QuadResult:
    """Integrate a vectorized callable over [a, b].

    A fixed Gauss-Legendre pair is tried first; when it is not accepted the
    adaptive integrator runs.  The result is flagged ``converged=False`` when
    the subdivision budget ran out before the error budget was met; the best
    value found is still returned.
    """
    fixed = _fixed_rule(f, interval, 1.0, Endpoint.LEFT, cfg)
    if fixed is not None:
        return fixed
    return _integrate_adaptive(f, interval, cfg)


def _integrate_adaptive(f, interval: Interval, cfg: QuadConfig) -> QuadResult:
    """Bisection-adaptive Gauss-Kronrod 7/15 over [a, b]."""
    a, b = interval.a, interval.b
    span = b - a
    lo = np.array([a])
    hi = np.array([b])
    done_val = 0.0
    done_err = 0.0
    splits = 0
    converged = True
    while True:
        k, err, l1 = _panels(f, lo, hi)
        total = done_val + float(k.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        share = (hi - lo) / span
        accept = (err <= tol * share) | (err <= 100.0 * _EPS * l1)
        # panels narrower than the float grid cannot be refined further
        floor = (hi - lo) <= 64.0 * _EPS * max(abs(a), abs(b), span)
        if np.any(floor & ~accept):
            converged = False
            accept = accept | floor
        if np.all(accept):
            done_val += float(k.sum())
            done_err += float(err.sum())
            break
        done_val += float(k[accept].sum())
        done_err += float(err[accept].sum())
        lo, hi = lo[~accept], hi[~accept]
        if splits + lo.size > cfg.max_subdivisions:
            krem, erem, _ = k[~accept], err[~accept], None
            done_val += float(krem.sum())
            done_err += float(erem.sum())
            converged = False
            break
        splits += lo.size
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
    return QuadResult(done_val, done_err, splits, converged)


def integrate_singular(
    g,
    interval: Interval,
    alpha: float,
    endpoint: Endpoint,
    cfg: QuadConfig = DEFAULT_QUAD,
) -> QuadResult:
    """Integrate g(x) * (x-a)**(alpha-1) (LEFT) or g(x) * (b-x)**(alpha-1) (RIGHT).

    ``g`` must be smooth on [a, b]; ``alpha > 0``.  A fixed Gauss-Jacobi
    pair for the weight is tried first.  When it is not accepted, the
    adaptive integrator runs: for ``alpha < 1`` the weight is removed by the
    power substitution, for ``alpha >= 1`` the weighted integrand is
    integrated unchanged.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    fixed = _fixed_rule(g, interval, alpha, endpoint, cfg)
    if fixed is not None:
        return fixed
    a, b = interval.a, interval.b
    if alpha == 1.0:
        return _integrate_adaptive(g, interval, cfg)
    if alpha > 1.0:
        if endpoint is Endpoint.LEFT:
            f = lambda x: np.asarray(g(x)) * np.power(x - a, alpha - 1.0)
        else:
            f = lambda x: np.asarray(g(x)) * np.power(b - x, alpha - 1.0)
        return _integrate_adaptive(f, interval, cfg)
    span = (b - a) ** alpha
    inv = 1.0 / alpha
    if endpoint is Endpoint.LEFT:
        f = lambda u: np.asarray(g(np.minimum(a + np.power(u, inv), b))) * inv
    else:
        f = lambda u: np.asarray(g(np.maximum(b - np.power(u, inv), a))) * inv
    return _integrate_adaptive(f, Interval(0.0, span), cfg)


def gauss_kronrod_nodes():
    """The 15 Kronrod abscissae and both weight vectors on [-1, 1]."""
    return _XGK.copy(), _WGK.copy(), _WG.copy()
