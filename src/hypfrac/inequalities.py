"""Two-sided mean-value inequality evaluators and their weight constants.

Every supported inequality is evaluated as an LHS / MID / RHS triple (MID
is absent for the three pure upper bounds D3, D8, D9) with slack
diagnostics: ``slack_left = mid - lhs``, ``slack_right = rhs - mid`` (or
``rhs - lhs`` when MID is absent).  A verdict *holds* when every slack is
at least ``-tol * max(1, |rhs|)``.

Theorem ids
-----------
HH_1_1      classical midpoint / endpoint-average sandwich of the mean value
FEJER_1_2   its weighted version (positive symmetric weight)
FHH / FHHF  Riemann-Liouville fractional analogues (plain / weighted)
FHH2/FHHF2  exponential-kernel analogues
D1          hyperbolic p-convex sandwich of the plain integral
D2 / D3     hyperbolic weighted sandwich / sinh-corrected upper bound
D4 .. D9    fractional hyperbolic analogues (RL and exponential kernels,
            plain and weighted, plus the two sinh-corrected upper bounds)

One primitive
-------------
Every integral is a kernel moment ``integral of g * K over [a, b]``
(:func:`kernel_moment`): K = 1 for the plain theorems, and for the
fractional ones the two-sided kernel, so that the moment is the left
operator at b plus the right operator at a.  ``g`` is u, v, u*v or
cosh(p*(x-m)), or v times cosh(p*(x-m)), sinh(p*(x-m)) or x-m.  The
fifteen theorems are five shapes over the family of K, read from
``_REQUIRES`` (M is the moment, m the midpoint, L = b - a):

* HH_1_1 / FHH / FHH2:        u(m) <= M(u) / M(1) <= (u(a)+u(b))/2
* FEJER_1_2 / FHHF / FHHF2:   u(m) M(v) <= M(uv) <= (u(a)+u(b))/2 M(v)
* D1 / D4 / D5:               u(m) C <= M(u) <= (u(a)+u(b))/2 sech(pL/2) C,
                              C = M(cosh(p(x-m)))
* D2 / D6 / D7:               the same with C = M(cosh(p(x-m)) v), mid M(uv)
* D3 / D8 / D9:               M(uv) <= (u(a)+u(b))/2 sech(pL/2) C
                              + (u(a)-u(b))/2 csch(pL/2) M(sinh(p(x-m)) v)

Two printed-formula corrections are applied throughout (both forced by the
equality case u = cosh(p*(x-m)) being tight): ``cosh^-1``/``sinh^-1``
factors are the reciprocals sech/csch, and the D4/D5 right-hand constant is
sech(p*(b-a)/2).  The as-printed constant sech(p*(b-a)) remains available
behind ``strict_printed=True`` for comparison runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import FuncExpr, Interval, as_callable
from .fractional import OPERATOR_QUAD, Family, FracParams
from .grammar import to_grammar
from .quadrature import Endpoint, QuadConfig, integrate, integrate_singular

DEFAULT_SLACK_TOL = 1e-8
_SYMMETRY_TOL = 1e-10
_CHECK_GRID_N = 101


class InvalidWeightError(ValueError):
    """Weight failed its positivity or symmetry contract."""


class TheoremId(str, enum.Enum):
    HH_1_1 = "HH_1_1"
    FEJER_1_2 = "FEJER_1_2"
    FHH = "FHH"
    FHHF = "FHHF"
    FHH2 = "FHH2"
    FHHF2 = "FHHF2"
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"
    D7 = "D7"
    D8 = "D8"
    D9 = "D9"


# (needs_p, needs_weight, family, has_mid); alpha is needed iff family is set
_REQUIRES = {
    TheoremId.HH_1_1: (False, False, None, True),
    TheoremId.FEJER_1_2: (False, True, None, True),
    TheoremId.FHH: (False, False, Family.RL, True),
    TheoremId.FHHF: (False, True, Family.RL, True),
    TheoremId.FHH2: (False, False, Family.EXP, True),
    TheoremId.FHHF2: (False, True, Family.EXP, True),
    TheoremId.D1: (True, False, None, True),
    TheoremId.D2: (True, True, None, True),
    TheoremId.D3: (True, True, None, False),
    TheoremId.D4: (True, False, Family.RL, True),
    TheoremId.D5: (True, False, Family.EXP, True),
    TheoremId.D6: (True, True, Family.RL, True),
    TheoremId.D7: (True, True, Family.EXP, True),
    TheoremId.D8: (True, True, Family.RL, False),
    TheoremId.D9: (True, True, Family.EXP, False),
}

# upper-bound theorems where an asymmetric weight may be admitted on request
_ASYMMETRIC_OK = (TheoremId.D8, TheoremId.D9)


# ---------------------------------------------------------------------------
# stable hyperbolic helpers

def sech(t: float) -> float:
    """1/cosh(t) in an exponential-scaled form that never overflows."""
    t = abs(t)
    e = math.exp(-t)
    return 2.0 * e / (1.0 + e * e)


def csch(t: float) -> float:
    """1/sinh(t) in an exponential-scaled form that never overflows."""
    if t == 0.0:
        raise ZeroDivisionError("csch(0)")
    s = math.copysign(1.0, t)
    t = abs(t)
    return s * 2.0 * math.exp(-t) / -math.expm1(-2.0 * t)


# ---------------------------------------------------------------------------
# weights

@dataclass(frozen=True)
class WeightSpec:
    """A weight function asserted positive (and, by default, symmetric
    about the interval midpoint).  ``verify`` checks both claims on a grid."""

    v: FuncExpr
    symmetric: bool = True

    def verify(self, interval: Interval, grid_n: int = _CHECK_GRID_N) -> None:
        xs = interval.grid(grid_n)
        vals = as_callable(self.v)(xs)
        if not np.all(vals > 0.0):
            worst = float(np.min(vals))
            raise InvalidWeightError(
                f"weight must be positive on [{interval.a}, {interval.b}]; "
                f"minimum on the check grid is {worst:.6g}"
            )
        if self.symmetric:
            mirrored = as_callable(self.v)(interval.a + interval.b - xs)
            gap = float(np.max(np.abs(mirrored - vals)))
            if gap > _SYMMETRY_TOL:
                raise InvalidWeightError(
                    f"weight flagged symmetric but |v(a+b-x) - v(x)| reaches {gap:.3g}"
                )


def unit_weight() -> WeightSpec:
    from .expressions import constant

    return WeightSpec(constant(1.0), symmetric=True)


# ---------------------------------------------------------------------------
# kernel moments

def kernel_moment(g, interval: Interval, family: Family | None, alpha,
                  cfg: QuadConfig = OPERATOR_QUAD) -> float:
    """integral of g(x) * K(x) over [a, b] for the symmetric two-sided kernel
    K of the family: 1 for ``family=None``, ((b-x)**(alpha-1) +
    (x-a)**(alpha-1)) / Gamma(alpha) for RL, (exp(-lam*(b-x)) +
    exp(-lam*(x-a))) / alpha with lam = (1-alpha)/alpha for EXP.  This is
    the left operator of g at b plus the right operator at a."""
    if family is None:
        return integrate(g, interval, cfg).value
    FracParams(alpha, family)  # range check with the family's message
    if family is Family.RL:
        left = integrate_singular(g, interval, alpha, Endpoint.LEFT, cfg).value
        right = integrate_singular(g, interval, alpha, Endpoint.RIGHT, cfg).value
        return (left + right) / math.gamma(alpha)
    a, b = interval.a, interval.b
    lam = (1.0 - alpha) / alpha
    gk = lambda x: g(x) * (np.exp(-lam * (b - x)) + np.exp(-lam * (x - a)))
    return integrate(gk, interval, cfg).value / alpha


def rl_flat_limit_constant(interval: Interval, alpha: float) -> float:
    """p -> 0 value of the unit-weight RL cosh moment: 2*(b-a)**alpha/Gamma(alpha+1)."""
    return 2.0 * interval.length ** alpha / math.gamma(alpha + 1.0)


def exp_flat_limit_constant(interval: Interval, alpha: float) -> float:
    """p -> 0 value of the unit-weight exponential cosh moment:
    2*(1 - exp(-rho))/(1 - alpha) with rho = (1-alpha)*(b-a)/alpha."""
    rho = (1.0 - alpha) * interval.length / alpha
    return 2.0 * -math.expm1(-rho) / (1.0 - alpha)


def kernel_mass(interval: Interval, family: Family | None, alpha) -> float:
    """Closed form of the kernel moment of g == 1."""
    if family is None:
        return interval.length
    if family is Family.RL:
        return rl_flat_limit_constant(interval, alpha)
    return exp_flat_limit_constant(interval, alpha)


def kernel_cosh_moment(v: WeightSpec, interval: Interval, alpha: float, p: float,
                       family: Family = Family.RL,
                       cfg: QuadConfig = OPERATOR_QUAD) -> float:
    """integral of cosh(p*(x - midpoint)) * kernel(x) * v(x) over [a, b],
    where kernel is the symmetric two-sided fractional kernel of the family."""
    m, vf = interval.mid, as_callable(v.v)
    return kernel_moment(lambda x: np.cosh(p * (x - m)) * vf(x), interval,
                         family, alpha, cfg)


def kernel_sinh_moment(v: WeightSpec, interval: Interval, alpha: float, p: float,
                       family: Family = Family.RL,
                       cfg: QuadConfig = OPERATOR_QUAD) -> float:
    """Same as kernel_cosh_moment with sinh in place of cosh; vanishes for
    symmetric v because the integrand is odd about the midpoint."""
    m, vf = interval.mid, as_callable(v.v)
    return kernel_moment(lambda x: np.sinh(p * (x - m)) * vf(x), interval,
                         family, alpha, cfg)


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class InequalityVerdict:
    theorem_id: TheoremId
    lhs: float
    mid: float | None
    rhs: float
    slack_left: float | None
    slack_right: float
    holds: bool
    tol: float
    params: dict = field(default_factory=dict)

    def sides(self) -> tuple:
        if self.mid is None:
            return (self.lhs, self.rhs)
        return (self.lhs, self.mid, self.rhs)


def _make_verdict(tid, lhs, mid, rhs, tol, params) -> InequalityVerdict:
    scale = max(1.0, abs(rhs))
    if mid is None:
        slack_left = None
        slack_right = rhs - lhs
        holds = slack_right >= -tol * scale
    else:
        slack_left = mid - lhs
        slack_right = rhs - mid
        holds = min(slack_left, slack_right) >= -tol * scale
    return InequalityVerdict(tid, lhs, mid, rhs, slack_left, slack_right,
                             holds, tol, params)


class TheoremEvaluator:
    """Evaluates any of the fifteen inequalities for one (u, v, interval, p)
    quadruple, memoizing every integral so families of theorems sharing
    operators (a whole campaign cell) pay for each integral once."""

    def __init__(self, u, interval: Interval, p: float | None = None,
                 weight: WeightSpec | None = None, tol: float = DEFAULT_SLACK_TOL,
                 quad: QuadConfig = OPERATOR_QUAD, allow_asymmetric: bool = False,
                 check_weight: bool = True):
        self.u = u
        self.uf = as_callable(u)
        self.interval = interval
        self.p = None if p is None else float(p)
        self.weight = weight
        self.vf = as_callable(weight.v) if weight is not None else None
        self.tol = tol
        self.quad = quad
        self.allow_asymmetric = allow_asymmetric
        self._weight_checked = not check_weight
        self._cache: dict = {}

    # -- cached primitives ---------------------------------------------------

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _u_ends(self):
        def make():
            interval = self.interval
            return (float(self.uf(interval.a)), float(self.uf(interval.mid)),
                    float(self.uf(interval.b)))

        return self._memo("u_ends", make)

    def _moment(self, which, family: Family | None = None, alpha=None) -> float:
        """Kernel moment of one integrand: u, v, uv, cosh, or cosh_v, sinh_v
        and xm_v (cosh(p*(x-m)), sinh(p*(x-m)) and x-m times v)."""

        def make():
            uf, vf, m, p = self.uf, self.vf, self.interval.mid, self.p
            g = {
                "u": uf,
                "v": vf,
                "uv": lambda x: uf(x) * vf(x),
                "cosh": lambda x: np.cosh(p * (x - m)),
                "cosh_v": lambda x: np.cosh(p * (x - m)) * vf(x),
                "sinh_v": lambda x: np.sinh(p * (x - m)) * vf(x),
                "xm_v": lambda x: (x - m) * vf(x),
            }[which]
            return kernel_moment(g, self.interval, family, alpha, self.quad)

        return self._memo((which, family, alpha), make)

    # -- validation ----------------------------------------------------------

    def _validate(self, tid: TheoremId, alpha):
        needs_p, needs_weight, family, _ = _REQUIRES[tid]
        if needs_p and self.p is None:
            raise ValueError(f"{tid.value} requires the hyperbolic parameter p")
        if family is not None:
            if alpha is None:
                raise ValueError(f"{tid.value} requires a fractional order alpha")
            FracParams(alpha, family)  # range check with the family's message
        if needs_weight:
            if self.weight is None:
                raise ValueError(f"{tid.value} requires a weight function")
            if not self._weight_checked:
                self.weight.verify(self.interval)
                self._weight_checked = True
            if not self.weight.symmetric and not (
                    tid in _ASYMMETRIC_OK and self.allow_asymmetric):
                raise InvalidWeightError(
                    f"{tid.value} requires a symmetric weight "
                    "(asymmetric weights are admitted only for D8/D9 with "
                    "allow_asymmetric=True)"
                )

    # -- the evaluators ------------------------------------------------------

    def evaluate(self, tid: TheoremId, alpha: float | None = None,
                 strict_printed: bool = False) -> InequalityVerdict:
        tid = TheoremId(tid)
        self._validate(tid, alpha)
        needs_p, weighted, family, has_mid = _REQUIRES[tid]
        interval, p = self.interval, self.p
        a, b, L = interval.a, interval.b, interval.length
        ua, um, ub = self._u_ends()
        avg = 0.5 * (ua + ub)
        fn, weight = self._memo("descr", lambda: (
            self._descr(self.u),
            self._descr(self.weight.v) if self.weight else None,
        ))
        params = {"a": a, "b": b, "p": p, "alpha": alpha,
                  "fn": fn, "weight": weight}
        M = lambda which: self._moment(which, family, alpha)

        if not needs_p and not weighted:  # HH_1_1, FHH, FHH2
            mid = M("u") / kernel_mass(interval, family, alpha)
            return self._done(tid, um, mid, avg, params)

        if not needs_p:  # FEJER_1_2, FHHF, FHHF2
            B = M("v")
            return self._done(tid, um * B, M("uv"), avg * B, params)

        rc = sech(0.5 * p * L)
        if not has_mid:  # D3, D8, D9
            if p == 0.0:  # the limit of csch(p*L/2) * sinh moment
                tilt = (2.0 / L) * M("xm_v")
            else:
                tilt = csch(0.5 * p * L) * M("sinh_v")
            rhs = avg * rc * M("cosh_v") + 0.5 * (ua - ub) * tilt
            return self._done(tid, M("uv"), None, rhs, params)

        if weighted:  # D2, D6, D7
            C = M("cosh_v")
            return self._done(tid, um * C, M("uv"), avg * rc * C, params)

        C = M("cosh")  # D1, D4, D5
        if family is not None:
            if strict_printed:
                rc = sech(p * L)
            params = dict(params)
            params["constant_mode"] = "printed" if strict_printed else "proof"
        return self._done(tid, um * C, M("u"), avg * rc * C, params)

    def _done(self, tid, lhs, mid, rhs, params) -> InequalityVerdict:
        return _make_verdict(tid, lhs, mid, rhs, self.tol, params)

    @staticmethod
    def _descr(f) -> str:
        if isinstance(f, FuncExpr):
            return to_grammar(f)
        return f"<{type(f).__name__}>"


def eval_theorem(theorem_id, u, interval: Interval, *, v: WeightSpec | None = None,
                 alpha: float | None = None, p: float | None = None,
                 tol: float = DEFAULT_SLACK_TOL, strict_printed: bool = False,
                 allow_asymmetric: bool = False,
                 quad: QuadConfig = OPERATOR_QUAD) -> InequalityVerdict:
    """One-shot evaluation of a single inequality."""
    ev = TheoremEvaluator(u, interval, p=p, weight=v, tol=tol, quad=quad,
                          allow_asymmetric=allow_asymmetric)
    return ev.evaluate(TheoremId(theorem_id), alpha=alpha,
                       strict_printed=strict_printed)


# ---------------------------------------------------------------------------
# limit sweeps

def exp_flat_limit_alternative(interval: Interval, alpha: float) -> float:
    """The alternative closed form 2*exp(-rho)/(1-alpha) sometimes quoted for
    the same limit; it does not match the computed integral and is surfaced
    only for comparison."""
    rho = (1.0 - alpha) * interval.length / alpha
    return 2.0 * math.exp(-rho) / (1.0 - alpha)


# pairing -> (swept axis, baseline scale factor as fn(interval, alpha))
_LIMIT_PAIRINGS = {
    (TheoremId.D4, TheoremId.FHH): ("p", rl_flat_limit_constant),
    (TheoremId.D5, TheoremId.FHH2): ("p", exp_flat_limit_constant),
    (TheoremId.D6, TheoremId.FHHF): ("p", lambda I, a: 1.0),
    (TheoremId.D7, TheoremId.FHHF2): ("p", lambda I, a: 1.0),
    (TheoremId.D8, TheoremId.D3): ("alpha", lambda I, a: 2.0),
    (TheoremId.D9, TheoremId.D3): ("alpha", lambda I, a: 2.0),
}


@dataclass(frozen=True)
class LimitRow:
    p: float
    alpha: float | None
    sides: tuple
    baseline_sides: tuple
    deltas: tuple
    max_delta: float


@dataclass
class LimitSweepResult:
    theorem_id: TheoremId
    baseline_id: TheoremId
    axis: str
    rows: list
    decay_rate: float | None
    notes: list


def limit_sweep(theorem_id, to_id, u, interval: Interval, *,
                weight: WeightSpec | None = None,
                alphas=(0.5,), ps=(1e-2, 1e-4, 1e-6),
                tol: float = DEFAULT_SLACK_TOL,
                quad: QuadConfig = OPERATOR_QUAD) -> LimitSweepResult:
    """Evaluate a theorem along its documented limit toward a baseline and
    report componentwise gaps.

    Supported pairings: D4->FHH, D5->FHH2, D6->FHHF, D7->FHHF2 (p -> 0 for
    each alpha in ``alphas``), and D8->D3, D9->D3 (alpha -> 1 at fixed
    ``ps[0]``).  Baseline sides are rescaled to the theorem's normalization;
    the scale is the theorem's limiting kernel constant.
    """
    tid, bid = TheoremId(theorem_id), TheoremId(to_id)
    key = (tid, bid)
    if key not in _LIMIT_PAIRINGS:
        known = ", ".join(f"{t.value}->{b.value}" for t, b in _LIMIT_PAIRINGS)
        raise ValueError(f"no documented limit {tid.value}->{bid.value}; "
                         f"supported: {known}")
    if not alphas or not ps:
        raise ValueError("alphas and ps must be nonempty")
    axis, scale_fn = _LIMIT_PAIRINGS[key]
    needs_weight = _REQUIRES[tid][1]
    if needs_weight and weight is None:
        raise ValueError(f"{tid.value} requires a weight function")

    rows = []
    notes = []
    if axis == "p":
        for alpha in alphas:
            base_ev = TheoremEvaluator(u, interval, p=None, weight=weight,
                                       tol=tol, quad=quad)
            baseline = base_ev.evaluate(bid, alpha=alpha)
            scale = scale_fn(interval, alpha)
            scaled_base = tuple(scale * s for s in baseline.sides())
            for p in ps:
                ev = TheoremEvaluator(u, interval, p=p, weight=weight,
                                      tol=tol, quad=quad)
                verdict = ev.evaluate(tid, alpha=alpha)
                sides = verdict.sides()
                deltas = tuple(abs(s - t) for s, t in zip(sides, scaled_base))
                rows.append(LimitRow(p, alpha, sides, scaled_base, deltas,
                                     max(deltas)))
            if tid is TheoremId.D5:
                got = exp_flat_limit_constant(interval, alpha)
                alt = exp_flat_limit_alternative(interval, alpha)
                notes.append(
                    f"alpha={alpha:g}: p->0 kernel constant computes to "
                    f"2*(1-exp(-rho))/(1-alpha) = {got:.9g}; the alternative "
                    f"closed form 2*exp(-rho)/(1-alpha) = {alt:.9g} does not "
                    f"match the integral and is not used"
                )
    else:
        p = ps[0]
        base_ev = TheoremEvaluator(u, interval, p=p, weight=weight,
                                   tol=tol, quad=quad)
        baseline = base_ev.evaluate(bid)
        for alpha in alphas:
            scale = scale_fn(interval, alpha)
            scaled_base = tuple(scale * s for s in baseline.sides())
            ev = TheoremEvaluator(u, interval, p=p, weight=weight,
                                  tol=tol, quad=quad)
            verdict = ev.evaluate(tid, alpha=alpha)
            sides = verdict.sides()
            deltas = tuple(abs(s - t) for s, t in zip(sides, scaled_base))
            rows.append(LimitRow(p, alpha, sides, scaled_base, deltas,
                                 max(deltas)))

    decay = _fit_decay(rows, axis)
    return LimitSweepResult(tid, bid, axis, rows, decay, notes)


def _fit_decay(rows, axis) -> float | None:
    if axis == "p":
        first_alpha = rows[0].alpha
        pts = [(r.p, r.max_delta) for r in rows if r.alpha == first_alpha]
    else:
        pts = [(1.0 - r.alpha, r.max_delta) for r in rows]
    pts = [(x, d) for x, d in pts if d > 0.0 and x > 0.0]
    if len(pts) < 2:
        return None
    xs = np.log([x for x, _ in pts])
    ds = np.log([d for _, d in pts])
    return float(np.polyfit(xs, ds, 1)[0])
