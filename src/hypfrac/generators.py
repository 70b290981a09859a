"""Seeded random factories for property campaigns.

Two construction paths produce hyperbolic p-convex functions that are
correct by construction:

* closed form (default) - nonnegative-coefficient mixtures of members whose
  curvature excess f'' - p**2 f is pointwise nonnegative: cosh(q*(x-c))
  with q >= p, exp(+-mu*x) with mu >= p, and the boundary member
  A*cosh(p*(x-c)) with zero excess.  Nonnegative combinations inherit the
  property because the defining chord inequality is linear in f.
* ODE - solve f'' = p**2 f + psi for a supplied psi >= 0 with random initial
  data; the output satisfies the curvature characterization by construction
  and answers value/derivative queries from a dense interpolant (the second
  derivative is exact: it is the ODE right-hand side).

Positive symmetric weights are built from even atoms about the interval
midpoint, so symmetry is analytic, not approximate.

Randomness comes from numpy's counter-based Philox generator keyed by
(seed, instance index): streams are reproducible byte-for-byte and
independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import (
    FuncExpr,
    Interval,
    add,
    as_callable,
    build_exp,
    compose_affine,
    constant,
    cosh_centered,
    power_of,
    scaled,
    X,
)

_MASK64 = (1 << 64) - 1


def rng_for(seed: int, index: int) -> np.random.Generator:
    """Philox substream keyed by (seed, instance index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class GenConfig:
    """Ranges for the random factories.  A fixed seed fixes the stream."""

    seed: int = 0
    path_weights: tuple = (1.0, 0.0)  # (closed form, ODE)
    p_range: tuple = (0.1, 5.0)
    length_range: tuple = (0.2, 4.0)
    center_range: tuple = (-1.5, 1.5)
    coef_range: tuple = (0.1, 2.0)
    rate_spread: float = 3.0          # q, mu drawn from [p + margin, p + spread]
    rate_margin: float = 0.2
    max_terms: int = 3
    boundary_prob: float = 0.2

    def __post_init__(self):
        for lo, hi in (self.p_range, self.length_range, self.coef_range):
            if not lo <= hi:
                raise ValueError("ranges must be nonempty")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


def draw_interval(cfg: GenConfig, rng: np.random.Generator) -> Interval:
    length = rng.uniform(*cfg.length_range)
    center = rng.uniform(*cfg.center_range)
    return Interval(center - 0.5 * length, center + 0.5 * length)


def gen_p_convex(cfg: GenConfig, p: float, interval: Interval, *,
                 index: int = 0, rng: np.random.Generator | None = None) -> FuncExpr:
    """A hyperbolic p-convex function, convex by construction.

    With probability ``boundary_prob`` the draw is a pure boundary member
    A*cosh(p*(x-c)) (zero curvature excess); otherwise it is a mixture of
    1..max_terms members each with strictly positive excess.
    """
    if p == 0.0:
        raise ValueError("p must be nonzero")
    p = abs(p)
    if rng is None:
        rng = rng_for(cfg.seed, index)
    a, b = interval.a, interval.b
    if rng.uniform() < cfg.boundary_prob:
        A = rng.uniform(*cfg.coef_range)
        c = rng.uniform(a, b)
        return scaled(A, cosh_centered(p, c))
    n_terms = int(rng.integers(1, cfg.max_terms + 1))
    terms = []
    for _ in range(n_terms):
        kind = int(rng.integers(0, 3))
        coef = rng.uniform(*cfg.coef_range)
        rate = p + rng.uniform(cfg.rate_margin, cfg.rate_spread)
        if kind == 0:
            c = rng.uniform(a, b)
            terms.append(scaled(coef, cosh_centered(rate, c)))
        elif kind == 1:
            terms.append(scaled(coef, build_exp(rate)))
        else:
            terms.append(scaled(coef, build_exp(-rate)))
    return add(*terms)


def gen_symmetric_weight(cfg: GenConfig, interval: Interval, *,
                         index: int = 0,
                         rng: np.random.Generator | None = None) -> "WeightSpec":
    """A positive weight symmetric about the midpoint, built from even atoms
    c0 + sum c_i * g_i with g_i in {(x-m)**(2k), cosh(q*(x-m))}."""
    from .inequalities import WeightSpec

    if rng is None:
        rng = rng_for(cfg.seed, index)
    m = interval.mid
    L = interval.length
    terms = [constant(rng.uniform(0.5, 1.5))]
    for _ in range(int(rng.integers(0, 3))):
        coef = rng.uniform(0.1, 1.0)
        if rng.uniform() < 0.5:
            k = int(rng.integers(1, 3))
            atom = compose_affine(power_of(X, 2 * k), 1.0, -m)
        else:
            q = rng.uniform(0.3, min(4.0, 10.0 / L))
            atom = cosh_centered(q, m)
        terms.append(scaled(coef, atom))
    return WeightSpec(add(*terms), symmetric=True)


def gen_positive_weight(cfg: GenConfig, interval: Interval, *, index: int = 0,
                        rng: np.random.Generator | None = None,
                        symmetric: bool = True) -> "WeightSpec":
    """Weight factory; ``symmetric=False`` (for exploring the sinh-corrected
    bounds D8/D9) adds a symmetry-breaking exponential atom and marks the
    returned WeightSpec asymmetric."""
    from .inequalities import WeightSpec

    if symmetric:
        return gen_symmetric_weight(cfg, interval, index=index, rng=rng)
    if rng is None:
        rng = rng_for(cfg.seed, index)
    base = gen_symmetric_weight(cfg, interval, rng=rng)
    m = interval.mid
    L = interval.length
    s = rng.uniform(0.2, min(2.0, 4.0 / L)) * (1 if rng.uniform() < 0.5 else -1)
    skew = compose_affine(build_exp(s), 1.0, -m)
    v = add(base.v, scaled(rng.uniform(0.1, 0.8), skew))
    return WeightSpec(v, symmetric=False)


# ---------------------------------------------------------------------------
# ODE path

@dataclass(frozen=True)
class SampledFunction:
    """Dense solution of f'' = p**2 f + psi with cubic Hermite interpolation.

    ``second_derivative`` evaluates the ODE right-hand side, so it is exact
    given the interpolated value; the interpolant itself carries the stored
    node values and slopes of the fixed-step integrator.
    """

    xs: np.ndarray
    fs: np.ndarray
    dfs: np.ndarray
    p: float
    psi: FuncExpr

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.xs[0], self.xs[-1]
        if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
            raise ValueError("evaluation outside the sampled interval")
        xc = np.clip(x, lo, hi)
        idx = np.clip(np.searchsorted(self.xs, xc, side="right") - 1,
                      0, len(self.xs) - 2)
        h = self.xs[idx + 1] - self.xs[idx]
        t = (xc - self.xs[idx]) / h
        return idx, h, t

    def value(self, x):
        scalar = np.ndim(x) == 0
        idx, h, t = self._locate(x)
        f0, f1 = self.fs[idx], self.fs[idx + 1]
        d0, d1 = self.dfs[idx], self.dfs[idx + 1]
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        out = h00 * f0 + h10 * h * d0 + h01 * f1 + h11 * h * d1
        return float(out) if scalar else out

    def derivative(self, x):
        scalar = np.ndim(x) == 0
        idx, h, t = self._locate(x)
        f0, f1 = self.fs[idx], self.fs[idx + 1]
        d0, d1 = self.dfs[idx], self.dfs[idx + 1]
        g00 = (6 * t * t - 6 * t) / h
        g10 = 3 * t * t - 4 * t + 1
        g01 = (6 * t - 6 * t * t) / h
        g11 = 3 * t * t - 2 * t
        out = g00 * f0 + g10 * d0 + g01 * f1 + g11 * d1
        return float(out) if scalar else out

    def second_derivative(self, x):
        scalar = np.ndim(x) == 0
        out = self.p * self.p * self.value(x) + self.psi.eval(x)
        return float(out) if scalar else out


def solve_p_convex_ode(p: float, interval: Interval, psi: FuncExpr,
                       f0: float, df0: float, steps: int = 4096) -> SampledFunction:
    """Classical fourth-order fixed-step integration of f'' = p**2 f + psi."""
    a, b = interval.a, interval.b
    h = (b - a) / steps
    # psi on the half-step lattice, evaluated once
    lattice = a + 0.5 * h * np.arange(2 * steps + 1)
    psiv = psi.eval(lattice)
    p2 = p * p
    fs = np.empty(steps + 1)
    dfs = np.empty(steps + 1)
    f, df = float(f0), float(df0)
    fs[0], dfs[0] = f, df
    for k in range(steps):
        w0, w1, w2 = psiv[2 * k], psiv[2 * k + 1], psiv[2 * k + 2]
        k1f, k1d = df, p2 * f + w0
        k2f, k2d = df + 0.5 * h * k1d, p2 * (f + 0.5 * h * k1f) + w1
        k3f, k3d = df + 0.5 * h * k2d, p2 * (f + 0.5 * h * k2f) + w1
        k4f, k4d = df + h * k3d, p2 * (f + h * k3f) + w2
        f += h / 6.0 * (k1f + 2 * k2f + 2 * k3f + k4f)
        df += h / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
        fs[k + 1], dfs[k + 1] = f, df
    xs = a + h * np.arange(steps + 1)
    return SampledFunction(xs, fs, dfs, float(p), psi)


def gen_p_convex_ode(cfg: GenConfig, p: float, interval: Interval,
                     psi: FuncExpr, *, f0: float | None = None,
                     df0: float | None = None, index: int = 0,
                     rng: np.random.Generator | None = None,
                     steps: int = 4096) -> SampledFunction:
    """ODE-path generator.  psi must be >= 0 on the interval (grid-checked)."""
    if p == 0.0:
        raise ValueError("p must be nonzero")
    vals = as_callable(psi)(interval.grid(101))
    if np.any(vals < -1e-12):
        raise ValueError("psi must be nonnegative on the interval")
    if rng is None:
        rng = rng_for(cfg.seed, index)
    if f0 is None:
        f0 = rng.uniform(0.2, 1.5)
    if df0 is None:
        df0 = rng.uniform(-1.0, 1.0)
    return solve_p_convex_ode(abs(p), interval, psi, f0, df0, steps)
