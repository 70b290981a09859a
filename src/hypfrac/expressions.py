"""Immutable expression trees for real functions of one variable.

Functions are assembled from a closed node set: constants, the identity,
sums, products, scalar multiples, real powers, exp, cosh, sinh, and affine
argument substitution ``x -> f(scale*x + shift)``.  Because the node set is
closed, first and second derivatives are exact symbolic trees and every
downstream check (convexity, quadrature oracles) is free of
finite-difference noise.

Evaluation accepts a float or a numpy array and is free of side effects,
so trees can be shared across threads and processes.  cosh/sinh evaluate
through numpy's scaled exponential forms and stay finite for arguments up
to ~700 in magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A function was evaluated outside its domain."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b, both finite."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def length(self) -> float:
        return self.b - self.a

    def grid(self, n: int) -> np.ndarray:
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        return np.linspace(self.a, self.b, n)


@dataclass(frozen=True)
class FuncExpr:
    """Base node.  Subclasses are immutable and hashable."""

    def eval(self, x):
        """Evaluate at a float (returns float) or ndarray (returns ndarray)."""
        if np.ndim(x) == 0:
            return float(self._eval(float(x)))
        arr = np.asarray(x, dtype=float)
        out = self._eval(arr)
        if np.ndim(out) == 0:
            out = np.full(arr.shape, float(out))
        return out

    __call__ = eval

    def _eval(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _deriv(self) -> "FuncExpr":  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(FuncExpr):
    value: float

    def _eval(self, x):
        return self.value

    def _deriv(self):
        return Constant(0.0)


@dataclass(frozen=True)
class Identity(FuncExpr):
    def _eval(self, x):
        return x

    def _deriv(self):
        return Constant(1.0)


@dataclass(frozen=True)
class Sum(FuncExpr):
    terms: tuple

    def _eval(self, x):
        acc = self.terms[0]._eval(x)
        for t in self.terms[1:]:
            acc = acc + t._eval(x)
        return acc

    def _deriv(self):
        return add(*(t._deriv() for t in self.terms))


@dataclass(frozen=True)
class Product(FuncExpr):
    factors: tuple

    def _eval(self, x):
        acc = self.factors[0]._eval(x)
        for f in self.factors[1:]:
            acc = acc * f._eval(x)
        return acc

    def _deriv(self):
        # n-ary product rule
        parts = []
        for i, fi in enumerate(self.factors):
            rest = self.factors[:i] + self.factors[i + 1:]
            parts.append(product(fi._deriv(), *rest))
        return add(*parts)


@dataclass(frozen=True)
class Scaled(FuncExpr):
    coef: float
    child: FuncExpr

    def _eval(self, x):
        return self.coef * self.child._eval(x)

    def _deriv(self):
        return scaled(self.coef, self.child._deriv())


@dataclass(frozen=True)
class Power(FuncExpr):
    """child(x) ** exponent.  Non-integer exponents require child(x) > 0."""

    exponent: float
    child: FuncExpr

    def _eval(self, x):
        base = self.child._eval(x)
        r = self.exponent
        if float(r).is_integer():
            if r < 0 and np.any(np.asarray(base) == 0.0):
                raise DomainError(f"pow(.., {r}) evaluated at a zero of its base")
            return np.power(base, r)
        if np.any(np.asarray(base) <= 0.0):
            raise DomainError(
                f"pow(.., {r}) with non-integer exponent requires a positive base"
            )
        return np.power(base, r)

    def _deriv(self):
        r = self.exponent
        return scaled(r, product(power_of(self.child, r - 1.0), self.child._deriv()))


@dataclass(frozen=True)
class Exp(FuncExpr):
    child: FuncExpr

    def _eval(self, x):
        return np.exp(self.child._eval(x))

    def _deriv(self):
        return product(Exp(self.child), self.child._deriv())


@dataclass(frozen=True)
class Cosh(FuncExpr):
    child: FuncExpr

    def _eval(self, x):
        return np.cosh(self.child._eval(x))

    def _deriv(self):
        return product(Sinh(self.child), self.child._deriv())


@dataclass(frozen=True)
class Sinh(FuncExpr):
    child: FuncExpr

    def _eval(self, x):
        return np.sinh(self.child._eval(x))

    def _deriv(self):
        return product(Cosh(self.child), self.child._deriv())


@dataclass(frozen=True)
class Affine(FuncExpr):
    """Affine argument substitution: evaluates child(scale*x + shift)."""

    scale: float
    shift: float
    child: FuncExpr

    def _eval(self, x):
        return self.child._eval(self.scale * x + self.shift)

    def _deriv(self):
        return scaled(self.scale, Affine(self.scale, self.shift, self.child._deriv()))


X = Identity()


# ---------------------------------------------------------------------------
# smart constructors (light constant folding, no general simplification)

def _const_value(f: FuncExpr):
    return f.value if isinstance(f, Constant) else None


def constant(c: float) -> FuncExpr:
    return Constant(float(c))


def add(*terms: FuncExpr) -> FuncExpr:
    flat = []
    const_acc = 0.0
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    kept = []
    for t in flat:
        c = _const_value(t)
        if c is None:
            kept.append(t)
        else:
            const_acc += c
    if const_acc != 0.0 or not kept:
        kept.append(Constant(const_acc))
    if len(kept) == 1:
        return kept[0]
    return Sum(tuple(kept))


def scaled(coef: float, f: FuncExpr) -> FuncExpr:
    coef = float(coef)
    if coef == 0.0:
        return Constant(0.0)
    c = _const_value(f)
    if c is not None:
        return Constant(coef * c)
    if isinstance(f, Scaled):
        return scaled(coef * f.coef, f.child)
    if coef == 1.0:
        return f
    return Scaled(coef, f)


def product(*factors: FuncExpr) -> FuncExpr:
    flat = []
    coef = 1.0
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        elif isinstance(f, Scaled):
            coef *= f.coef
            flat.append(f.child)
        else:
            flat.append(f)
    kept = []
    for f in flat:
        c = _const_value(f)
        if c is None:
            kept.append(f)
        else:
            coef *= c
    if coef == 0.0 or not kept:
        return Constant(coef)
    core = kept[0] if len(kept) == 1 else Product(tuple(kept))
    return scaled(coef, core)


def power_of(f: FuncExpr, r: float) -> FuncExpr:
    r = float(r)
    if r == 0.0:
        return Constant(1.0)
    if r == 1.0:
        return f
    return Power(r, f)


def compose_affine(f: FuncExpr, scale: float, shift: float) -> FuncExpr:
    """Tree computing f(scale*x + shift)."""
    scale, shift = float(scale), float(shift)
    if scale == 1.0 and shift == 0.0:
        return f
    if isinstance(f, Constant):
        return f
    if isinstance(f, Affine):
        return compose_affine(f.child, f.scale * scale, f.scale * shift + f.shift)
    return Affine(scale, shift, f)


def deriv(f) -> FuncExpr:
    """Exact symbolic first derivative."""
    return f._deriv()


def deriv2(f) -> FuncExpr:
    """Exact symbolic second derivative (deriv applied twice)."""
    return deriv(deriv(f))


# ---------------------------------------------------------------------------
# named families

def build_power(r: float) -> FuncExpr:
    """x**r on its natural domain ((0, inf) when r is not an integer)."""
    return power_of(X, r)


def build_exp(mu: float) -> FuncExpr:
    """exp(mu*x)."""
    return compose_affine(Exp(X), mu, 0.0)


def build_hyperbolic(A: float, B: float, p: float) -> FuncExpr:
    """A*cosh(p*x) + B*sinh(p*x)."""
    return add(
        scaled(A, compose_affine(Cosh(X), p, 0.0)),
        scaled(B, compose_affine(Sinh(X), p, 0.0)),
    )


def cosh_centered(p: float, center: float) -> FuncExpr:
    """cosh(p*(x - center))."""
    return compose_affine(Cosh(X), p, -p * center)


def sinh_centered(p: float, center: float) -> FuncExpr:
    """sinh(p*(x - center))."""
    return compose_affine(Sinh(X), p, -p * center)


def line(intercept: float, slope: float) -> FuncExpr:
    """intercept + slope*x."""
    return add(constant(intercept), scaled(slope, X))


def as_callable(f):
    """Vectorized evaluation callable for a FuncExpr, an ODE-sampled
    function (anything with a ``.value`` method), or a bare callable."""
    if isinstance(f, FuncExpr):
        return f.eval
    value = getattr(f, "value", None)
    if callable(value):
        return value
    if callable(f):
        return f
    raise TypeError(f"cannot evaluate object of type {type(f).__name__}")
