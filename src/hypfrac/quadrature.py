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
eigenvalue problem on the Jacobi matrix, and each pair of rules is cached
once per alpha.  The 2n-point value is accepted when both sums are finite and
``|Q_2n - Q_n| <= max(abs_tol, rel_tol * |Q_2n|)``, the adaptive loop's
global test (the loop also accepts a panel at its round-off floor, which
the front does not); the difference, floored at the adaptive loop's
round-off level ``100 * eps * sum |w_2n * g|``, is reported as the error
estimate and ``subdivisions_used == 0`` marks an accepted fixed rule.  The
sums are taken in one place, :func:`_fixed_sums`, and the ``h**alpha``
scale and the test are applied in one place, :func:`fixed_rule_accept`, to
the values at :func:`fixed_rule_nodes`: one integral for
:func:`integrate_singular` (which adds the error floor), one per cell for
:func:`integrate_cells`, and one per fixed-weight integral of each instance
of a chunk, each with its own order, for the moment pass of
:mod:`hypfrac.inequalities`.

Adaptive fallback: otherwise the integral is computed by bisection, split
as in QUADPACK's QAWS: the panel at the singular end of a weight with
``alpha != 1`` gets the Gauss-Jacobi pair, scaled by ``(h/2)**alpha``
(value Q_2n, error |Q_2n - Q_n|), and every other panel the embedded
7-point Gauss / 15-point Kronrod pair on the weighted integrand, where the
weight is smooth.  With ``alpha != 1`` the first round's one panel is that
end panel over [a, b], at the front's own nodes, so it reads the front's
values; with ``alpha == 1`` it is one Gauss-Kronrod panel.  Every round
evaluates all still-active panels in one vectorized batch, accepts those
whose error fits their share of the budget (or is at the round-off floor
of the panel), and bisects the rest; each panel's halves are written side
by side, so the panels stay in ascending order.  A round whose panel sum
is inf or nan ends the loop at once with ``converged=False`` and an
infinite error estimate: bisection cannot cure an overflow.

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
        if not self.error_estimate >= 0:
            raise ValueError("error_estimate must be nonnegative, not nan")


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
def _fixed_rule(alpha: float):
    """The n- and 2n-point Gauss-Jacobi rules of the endpoint weight of
    ``alpha`` (beta = alpha - 1): per endpoint, their nodes on a cell of
    half-width 1, measured from that endpoint (``1 + t``, concatenated,
    negated for the right end), and the two weight vectors."""
    t1, w1 = _gauss_jacobi(_FIXED_N, alpha - 1.0)
    t2, w2 = _gauss_jacobi(2 * _FIXED_N, alpha - 1.0)
    left = 1.0 + np.concatenate([t1, t2])
    right = -left
    left.setflags(write=False)
    right.setflags(write=False)
    return {Endpoint.LEFT: left, Endpoint.RIGHT: right}, w1, w2


def fixed_rule_unit(alpha: float, endpoint: Endpoint):
    """The nodes of :func:`fixed_rule_nodes` on a cell of half-width 1,
    measured from the endpoint: ``1 + t``, negated for the right end."""
    return _fixed_rule(alpha)[0][endpoint]


def fixed_rule_nodes(a, b, alpha: float, endpoint: Endpoint):
    """The concatenated nodes of the n- and 2n-point Gauss-Jacobi rules for
    the endpoint weight of ``alpha`` on the cell [a, b], or on every cell
    when a and b are columns (shape (m, 1)) of cell edges: the endpoint
    plus ``0.5 * (b - a)`` times :func:`fixed_rule_unit` (``b + (-d)`` is
    ``b - d`` exactly)."""
    end = a if endpoint is Endpoint.LEFT else b
    return end + 0.5 * (b - a) * fixed_rule_unit(alpha, endpoint)


@functools.lru_cache(maxsize=256)
def _fixed_weights(alphas: tuple):
    """The n- and 2n-point weights of a tuple of per-row orders, as
    (rows, n, 1) stacks."""
    stacks = tuple(np.stack(w)[:, :, None]
                   for w in zip(*(_fixed_rule(a)[1:] for a in alphas)))
    for w in stacks:
        w.setflags(write=False)
    return stacks


def _fixed_sums(ys, alpha):
    """The n- and 2n-point sums, without the ``h**alpha`` factor, of the
    values ``ys`` at :func:`fixed_rule_nodes` (along the last axis).
    ``alpha`` is one order or a tuple of per-row orders, one per row of the
    last two axes of ``ys`` and the same for every leading index (every
    instance of a chunk).

    With a tuple, every row is a (1, n) by (n, 1) product of one stacked
    ``matmul``, the per-row weights broadcast over the leading axes, which
    numpy takes with the dot routine of a 1-D ``dot``, so a row's sums
    equal those of the row alone and do not depend on the rows stacked with
    it; a 2-D ``dot`` per order (BLAS gemv) rounds some sums differently.
    With one order, many rows (the cells of :func:`integrate_cells`) are
    one matrix-vector product."""
    if isinstance(alpha, tuple):
        w1, w2 = _fixed_weights(alpha)
        y1, y2 = ys[..., None, :_FIXED_N], ys[..., None, _FIXED_N:]
        return (y1 @ w1)[..., 0, 0], (y2 @ w2)[..., 0, 0]
    _, w1, w2 = _fixed_rule(alpha)
    # ndarray.dot: the same BLAS sums as @, with less call overhead
    return ys[..., :_FIXED_N].dot(w1), ys[..., _FIXED_N:].dot(w2)


def _fixed_l1(ys, alpha: float):
    """The 2n-point sum of |ys| for one order, taken as :func:`_fixed_sums`
    takes the 2n-point sum of ys: the scale of an error estimate's
    round-off floor."""
    return np.abs(ys[..., _FIXED_N:]).dot(_fixed_rule(alpha)[2])


def fixed_rule_scale(interval: Interval, alpha: float) -> float:
    """The factor ``h**alpha`` of the fixed-rule sums; inf when it overflows
    (every value it scales is then rejected)."""
    try:
        return (0.5 * (interval.b - interval.a)) ** alpha
    except OverflowError:
        return math.inf


def fixed_rule_accept(ys, scale, alpha, cfg: QuadConfig):
    """The 2n-point Gauss-Jacobi values, |Q_2n - Q_n| and whether each value
    is accepted, from the integrand values ``ys`` at
    ``fixed_rule_nodes(a, b, alpha, endpoint)``: one integral, or one per
    row of ``ys`` with ``alpha`` a tuple of per-row orders (rows of the
    last two axes, the orders shared by any leading axes).  ``scale`` is
    ``h**alpha``, one per integral or shared.  A value is accepted when it
    is finite and ``|Q_2n - Q_n| <= max(abs_tol, rel_tol * |Q_2n|)``."""
    s1, s2 = _fixed_sums(ys, alpha)
    q1, q2 = scale * s1, scale * s2
    gap = abs(q2 - q1)
    # a nan or inf q1 fails the comparison, an inf q2 the finiteness test
    accepted = np.isfinite(q2) & (gap <= np.maximum(cfg.abs_tol,
                                                    cfg.rel_tol * abs(q2)))
    return q2, gap, accepted


def integrate_cells(f, edges, cfg: QuadConfig = DEFAULT_QUAD):
    """Integrals of f over the cells [edges[k], edges[k+1]], as an array.

    The fixed Gauss-Legendre pair of :func:`integrate` runs on all cells in
    one evaluation of f, with the same per-cell acceptance test; only the
    cells it rejects are integrated one by one with the adaptive rule.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    xs = fixed_rule_nodes(a[:, None], b[:, None], 1.0, Endpoint.LEFT)
    ys = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    values, _, accepted = fixed_rule_accept(ys, 0.5 * (b - a), 1.0, cfg)
    for k in np.flatnonzero(~accepted):
        values[k] = _integrate_adaptive(f, Interval(a[k], b[k]), cfg).value
    return values


def integrate(f, interval: Interval, cfg: QuadConfig = DEFAULT_QUAD) -> QuadResult:
    """Integrate a vectorized callable over [a, b]: the weight-1 case
    (``alpha == 1``) of :func:`integrate_singular`.

    A fixed Gauss-Legendre pair is tried first; when it is not accepted the
    adaptive integrator runs.  The result is flagged ``converged=False`` when
    the subdivision budget ran out before the error budget was met; the best
    value found is still returned.
    """
    return integrate_singular(f, interval, 1.0, Endpoint.LEFT, cfg)


def _integrate_adaptive(f, interval: Interval, cfg: QuadConfig,
                        end_panel=None) -> QuadResult:
    """Bisection-adaptive Gauss-Kronrod 7/15 over [a, b]; when given,
    end_panel(h) evaluates the panel [a, a+h] in place of the Kronrod pair."""
    a, b = interval.a, interval.b
    span = b - a
    lo = np.array([a])
    hi = np.array([b])
    done_val = 0.0
    done_err = 0.0
    splits = 0
    converged = True
    while True:
        first = 1 if end_panel is not None and lo[0] == a else 0
        k, err, l1 = _panels(f, lo[first:], hi[first:])
        if first:
            k, err, l1 = (np.concatenate(([e], v))
                          for v, e in zip((k, err, l1), end_panel(hi[0] - a)))
        total = done_val + float(k.sum())
        if not math.isfinite(total):  # an overflow that bisection cannot cure
            return QuadResult(total, math.inf, splits, False)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        share = (hi - lo) / span
        accept = (err <= tol * share) | (err <= 100.0 * _EPS * l1)
        # panels narrower than the float grid cannot be refined further
        floor = (hi - lo) <= 64.0 * _EPS * max(abs(a), abs(b), span)
        if np.any(floor & ~accept):
            converged = False
            accept = accept | floor
        done_val += float(k[accept].sum())
        done_err += float(err[accept].sum())
        if np.all(accept):
            break
        lo, hi = lo[~accept], hi[~accept]
        if splits + lo.size > cfg.max_subdivisions:
            done_val += float(k[~accept].sum())
            done_err += float(err[~accept].sum())
            converged = False
            break
        splits += lo.size
        # each panel's halves side by side: the panels stay in ascending order
        edges = np.concatenate([lo, 0.5 * (lo + hi), hi]).reshape(3, -1)
        lo, hi = edges[:2].T.ravel(), edges[1:].T.ravel()
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
    adaptive loop runs in the distance s from the singular end: the panel
    [0, h] gets the same Gauss-Jacobi pair, the others Gauss-Kronrod on
    ``g * s**(alpha-1)``.  For ``alpha == 1`` the weight is 1 and the loop
    is that of :func:`integrate`.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    a, b = interval.a, interval.b
    ys = np.asarray(g(fixed_rule_nodes(a, b, alpha, endpoint)), dtype=float)
    scale = fixed_rule_scale(interval, alpha)
    value, gap, accepted = fixed_rule_accept(ys, scale, alpha, cfg)
    if accepted:
        # |Q_2n - Q_n| is round-off when both rules resolve g, and can sit
        # below the true error: floor it where the adaptive loop accepts
        floor = 100.0 * _EPS * scale * _fixed_l1(ys, alpha)
        return QuadResult(float(value), float(np.maximum(gap, floor)), 0, True)
    if alpha == 1.0:
        return _integrate_adaptive(g, interval, cfg)
    at = (lambda s: a + s) if endpoint is Endpoint.LEFT else (lambda s: b - s)

    def end_panel(h):
        # h == b - a only in the first round: [a, b], at the front's nodes
        vs = ys if h == b - a else np.asarray(
            g(at(fixed_rule_nodes(0.0, h, alpha, Endpoint.LEFT))), dtype=float)
        s1, s2 = _fixed_sums(vs, alpha)
        scale = np.power(0.5 * h, alpha)
        return scale * s2, scale * abs(s2 - s1), scale * _fixed_l1(vs, alpha)

    f = lambda s: np.asarray(g(at(s)), dtype=float) * np.power(s, alpha - 1.0)
    return _integrate_adaptive(f, Interval(0.0, b - a), cfg, end_panel)


def gauss_kronrod_nodes():
    """The 15 Kronrod abscissae and both weight vectors on [-1, 1].  The
    package does not call it: the per-layer benchmark (``perfbench``)
    imports it to time one Gauss-Kronrod round, and the tests check the
    rule with it."""
    return _XGK.copy(), _WGK.copy(), _WG.copy()
