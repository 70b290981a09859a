"""Fractional integral operators on finite intervals, and the kernel table
behind every fractional integral of the package.

Two families:

* ``rl`` - Riemann-Liouville: kernel ``(t-s)**(alpha-1) / Gamma(alpha)``
  (left) and the mirrored ``(s-t)**(alpha-1) / Gamma(alpha)`` (right),
  order ``alpha > 0`` with Gamma(alpha) and Gamma(alpha+1) finite (so
  ``alpha <= 170.62``); singular at the evaluation point for ``alpha < 1``.
* ``exp`` - bounded exponential kernel
  ``exp(-(1-alpha)/alpha * distance) / alpha``, order ``alpha`` in (0, 1).

A kernel is one value: a :class:`FracParams`, whose alpha is checked once,
when it is made, or ``None`` for K = 1.  :func:`kernel_parts` alone writes a
kernel down, as endpoint-weight integrals with an optional kernel factor and
the norm they are divided by; the parts do not depend on the interval (an
EXP factor is called as ``factor(x, a, b)``).  The operators, the two-sided
:func:`kernel_moment` and the moment bank of the inequalities all read them;
:func:`kernel_mass` is the closed form of the moment of 1.

The closed forms used as test oracles: for ``f(s) = (s-a)**k`` the left
Riemann-Liouville integral at ``t`` is
``Gamma(k+1)/Gamma(k+1+alpha) * (t-a)**(k+alpha)``; for ``f == 1`` the left
exponential-kernel integral at ``t`` is ``(1 - exp(-rho)) / (1-alpha)`` with
``rho = (1-alpha)*(t-a)/alpha``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .expressions import Interval
from .quadrature import Endpoint, QuadConfig, QuadResult, integrate_singular

# Operators feed inequality slacks checked at 1e-8, so they run much tighter
# than the general-purpose quadrature defaults.
OPERATOR_QUAD = QuadConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)


class Family(enum.Enum):
    RL = "rl"
    EXP = "exp"


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class FracParams:
    alpha: float
    family: Family

    def __post_init__(self):
        if self.family is Family.RL:
            if not self.alpha > 0:
                raise ValueError("alpha must be positive for family rl")
            # Gamma(alpha), the kernel's norm, and Gamma(alpha+1), its mass's
            for shift, name in ((0.0, "alpha"), (1.0, "alpha+1")):
                try:  # inf for alpha = inf
                    if math.isfinite(math.gamma(self.alpha + shift)):
                        continue
                except OverflowError:
                    pass
                raise ValueError(f"alpha {self.alpha!r} is out of range for "
                                 f"family rl: Gamma({name}) overflows a double")
        elif self.family is not Family.EXP:
            raise ValueError(f"unknown kernel family {self.family!r}")
        elif not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1) for family exp")


def kernel_parts(kernel: FracParams | None, side: Side | None = None):
    """The operator of ``kernel`` as fixed-weight integrals, and its norm: a
    tuple of (alpha of the endpoint weight, endpoint, kernel factor or None)
    whose integrals over [a, b] of g times the factor add up to the operator
    of g times ``norm``.  The parts do not depend on the interval: a factor
    is called as ``factor(x, a, b)``.

    ``side`` LEFT is the left operator at b, RIGHT the right operator at a,
    and None the symmetric two-sided kernel, their sum; for EXP that stays
    one integral of the summed factor, so that a moment bank needs one dot
    product per node set.  ``kernel`` is a :class:`FracParams`, whose alpha
    was checked once, when it was made, or None for K = 1 (norm 1)."""
    if kernel is None:
        return ((1.0, Endpoint.LEFT, None),), 1.0
    alpha = kernel.alpha
    if kernel.family is Family.RL:
        parts = ()
        if side is not Side.LEFT:  # (x-a)**(alpha-1): the right operator at a
            parts += ((alpha, Endpoint.LEFT, None),)
        if side is not Side.RIGHT:  # (b-x)**(alpha-1): the left operator at b
            parts += ((alpha, Endpoint.RIGHT, None),)
        return parts, math.gamma(alpha)
    lam = (1.0 - alpha) / alpha
    if side is Side.LEFT:
        factor = lambda x, a, b: np.exp(-lam * (b - x))
    elif side is Side.RIGHT:
        factor = lambda x, a, b: np.exp(-lam * (x - a))
    else:
        factor = lambda x, a, b: np.exp(-lam * (b - x)) + np.exp(-lam * (x - a))
    return ((1.0, Endpoint.LEFT, factor),), alpha


def _integrate_parts(g, interval: Interval, parts, norm: float) -> QuadResult:
    """The integrals of g over the parts of :func:`kernel_parts`, summed
    and divided by the norm."""
    a, b = interval.a, interval.b
    res = [integrate_singular(g if k is None else (lambda x, k=k: g(x) * k(x, a, b)),
                              interval, weight_alpha, endpoint, OPERATOR_QUAD)
           for weight_alpha, endpoint, k in parts]
    value = sum([r.value for r in res[1:]], res[0].value)
    return QuadResult(value / norm, sum(r.error_estimate for r in res) / norm,
                      sum(r.subdivisions_used for r in res),
                      all(r.converged for r in res))


def fractional_integral(f, interval: Interval, params: FracParams, side: Side,
                        t: float) -> QuadResult:
    """Evaluate one of the four operators at the point ``t``."""
    a, b = interval.a, interval.b
    if not a <= t <= b:
        raise ValueError(f"evaluation point {t} outside [{a}, {b}]")
    if t == (a if side is Side.LEFT else b):
        if params.family is Family.RL:
            raise ValueError("left operator needs t > a" if side is Side.LEFT
                             else "right operator needs t < b")
        return QuadResult(0.0, 0.0, 0)  # a bounded kernel on an empty interval
    sub = Interval(a, t) if side is Side.LEFT else Interval(t, b)
    return _integrate_parts(f, sub, *kernel_parts(params, side))


def kernel_moment(g, interval: Interval, kernel: FracParams | None) -> float:
    """integral of g(x) * K(x) over [a, b] for the symmetric two-sided
    kernel: 1 for ``kernel=None``, ((b-x)**(alpha-1) + (x-a)**(alpha-1)) /
    Gamma(alpha) for RL, (exp(-lam*(b-x)) + exp(-lam*(x-a))) / alpha with
    lam = (1-alpha)/alpha for EXP.  This is the left operator of g at b
    plus the right operator at a."""
    return _integrate_parts(g, interval, *kernel_parts(kernel)).value


def rl_left(f, interval: Interval, alpha: float, t: float) -> float:
    return fractional_integral(f, interval, FracParams(alpha, Family.RL),
                               Side.LEFT, t).value


def rl_right(f, interval: Interval, alpha: float, t: float) -> float:
    return fractional_integral(f, interval, FracParams(alpha, Family.RL),
                               Side.RIGHT, t).value


def exp_left(f, interval: Interval, alpha: float, t: float) -> float:
    return fractional_integral(f, interval, FracParams(alpha, Family.EXP),
                               Side.LEFT, t).value


def exp_right(f, interval: Interval, alpha: float, t: float) -> float:
    return fractional_integral(f, interval, FracParams(alpha, Family.EXP),
                               Side.RIGHT, t).value


def rl_monomial_left(k: int, a: float, alpha: float, t: float) -> float:
    """Closed form of the left RL integral of (s-a)**k, the operator oracle."""
    return math.gamma(k + 1) / math.gamma(k + 1 + alpha) * (t - a) ** (k + alpha)


def exp_unit_left(a: float, alpha: float, t: float) -> float:
    """Closed form of the left exponential-kernel integral of f == 1."""
    rho = (1.0 - alpha) * (t - a) / alpha
    return -math.expm1(-rho) / (1.0 - alpha)


def kernel_mass(interval: Interval, kernel: FracParams | None) -> float:
    """Closed form of the kernel moment of g == 1 (:func:`kernel_moment`),
    the p -> 0 value of the unit-weight cosh moment.  An RL mass whose
    2 * L**alpha overflows a double is nan: as inf, a finite moment over
    it would read as 0."""
    if kernel is None:
        return interval.length
    if kernel.family is Family.RL:
        try:
            mass = 2.0 * interval.length ** kernel.alpha / math.gamma(
                kernel.alpha + 1.0)
        except OverflowError:  # L**alpha
            return math.nan
        return mass if mass < math.inf else math.nan
    return 2.0 * exp_unit_left(interval.a, kernel.alpha, interval.b)


def exp_flat_limit_alternative(interval: Interval, alpha: float) -> float:
    """The alternative closed form 2*exp(-rho)/(1-alpha) sometimes quoted for
    the EXP kernel mass; it does not match the computed integral and is
    surfaced only for comparison."""
    rho = (1.0 - alpha) * interval.length / alpha
    return 2.0 * math.exp(-rho) / (1.0 - alpha)
