"""Fractional integral operators on finite intervals, and the kernel table
behind every fractional integral of the package.

Every kernel is k(s) = s**(beta-1) * exp(-lam*s) / N of the distance s
from the end it is anchored at, in one of two families:

* ``rl`` - Riemann-Liouville, (beta, lam, N) = (alpha, 0, Gamma(alpha)),
  order ``alpha > 0`` with Gamma(alpha) and Gamma(alpha+1) finite (so
  ``alpha <= 170.62``); singular at the evaluation point for ``alpha < 1``.
* ``exp`` - the bounded exponential kernel, (1, (1-alpha)/alpha, alpha),
  order ``alpha`` in (0, 1).

A kernel is one value: a :class:`FracParams`, whose alpha is checked once,
when it is made, or ``None`` for K = 1.  :func:`kernel_parts` alone writes a
kernel down, as plain data: the fixed-weight parts that make up an operator
or the two-sided kernel, which the operators, :func:`kernel_moment` and the
moment bank of the inequalities all read; :func:`kernel_factor` evaluates a
part's exponential factor, and :func:`kernel_mass` is the closed form of the
moment of 1.

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


# each end of [a, b] and the operator whose kernel measures distance from it
_OPERATOR_AT = {Endpoint.LEFT: Side.RIGHT, Endpoint.RIGHT: Side.LEFT}


def kernel_parts(kernel: FracParams | None, side: Side | None = None):
    """The parts of the operator of ``kernel`` (None: K = 1), and its norm N:
    each part, (node set (beta, endpoint), lam, ends), integrates g times
    :func:`kernel_factor` against that endpoint weight, and the parts sum to
    N times the operator.  ``side`` LEFT is the left operator at b, RIGHT the
    right operator at a, None their sum."""
    if kernel is None:
        return (((1.0, Endpoint.LEFT), 0.0, ()),), 1.0
    alpha = kernel.alpha
    beta, lam, norm = ((alpha, 0.0, math.gamma(alpha)) if kernel.family is Family.RL
                       else (1.0, (1.0 - alpha) / alpha, alpha))
    ends = tuple(end for end, op in _OPERATOR_AT.items() if side in (None, op))
    if lam:  # a bounded kernel: one Legendre part sums its ends' factors
        return (((beta, Endpoint.LEFT), lam, ends),), norm
    return tuple(((beta, end), lam, ()) for end in ends), norm


def kernel_factor(x, a, b, lam: float, ends: tuple):
    """exp(-lam * distance) from each of ``ends``, summed: a part's factor.
    a and b are floats, or columns that broadcast against x (one interval
    per row, as in the chunks of the moment pass)."""
    return sum(np.exp(-lam * (x - a if end is Endpoint.LEFT else b - x))
               for end in ends)


def _integrate_parts(g, interval: Interval, parts, norm: float) -> QuadResult:
    """The integrals of g over the parts of :func:`kernel_parts`, summed
    and divided by the norm."""
    a, b = interval.a, interval.b
    res = []
    for (beta, endpoint), lam, ends in parts:
        f = (lambda x: g(x) * kernel_factor(x, a, b, lam, ends)) if ends else g
        res.append(integrate_singular(f, interval, beta, endpoint, OPERATOR_QUAD))
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
    """integral of g(x) * K(x) over [a, b] for the two-sided kernel K(x) =
    k(x-a) + k(b-x) (1 for ``kernel=None``): the left operator of g at b
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
