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

One inequality
--------------
Every integral is a kernel moment ``integral of g * K over [a, b]``
(:func:`hypfrac.fractional.kernel_moment`): K = 1 for the plain theorems,
and for the fractional ones the two-sided kernel, so that the moment is the
left operator at b plus the right operator at a.  As the paper says, every
theorem is the Hermite-Hadamard-Fejer inequality for a p-hyperbolic convex
u, read off one row of ``_REQUIRES`` (hyperbolic, weighted, family of K,
has_mid).  With M the moment, m the midpoint and L = b - a, the sandwich

    u(m) C <= M(u v) <= (u(a)+u(b))/2 sech(pL/2) C,   C = M(cosh(p(x-m)) v)

is every theorem with a MID.  A row without p takes p = 0, so that the
sech factor is 1 and C = M(v); a row without a weight takes v = 1; a row
with neither (HH_1_1, FHH, FHH2) divides all three sides by the kernel
mass M(1).  The three rows without a MID (D3, D8, D9) are the tilt bound

    M(u v) <= (u(a)+u(b))/2 sech(pL/2) C
              + (u(a)-u(b))/2 csch(pL/2) M(sinh(p(x-m)) v),

where D8 and D9 admit an asymmetric v on request.

The kernels, their norms and masses live in :mod:`hypfrac.fractional`,
whose :func:`~hypfrac.fractional.kernel_parts` writes each moment as one or
two fixed-weight integrals: the plain and EXP moments one Gauss-Legendre
integral (EXP with its kernel as a factor of g), the RL moments one
Gauss-Jacobi integral at each end, all at ``OPERATOR_QUAD``.
A :class:`TheoremEvaluator` shares one interval among all its moments, so
it keeps a moment bank: on the first request for a node set it evaluates
only the columns that moment needs (u, v, cosh(p(x-m)), sinh(p(x-m)),
x-m, the EXP kernel) and caches them; every moment is then a product of
columns and the n/2n-point dot products of the fixed rule.  A moment whose
fixed rule is rejected is recomputed alone by :func:`kernel_moment`, so its
value never depends on which other moments were asked for.

Two printed-formula corrections are applied throughout (both forced by the
equality case u = cosh(p*(x-m)) being tight): ``cosh^-1``/``sinh^-1``
factors are the reciprocals sech/csch, and the D4/D5 right-hand constant is
sech(p*(b-a)/2).  The as-printed constant sech(p*(b-a)) remains available
behind ``strict_printed=True`` for comparison runs.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .expressions import FuncExpr, Interval, as_callable
from .fractional import (
    OPERATOR_QUAD,
    Family,
    FracParams,
    exp_flat_limit_alternative,
    kernel_mass,
    kernel_moment,
    kernel_parts,
)
from .grammar import to_grammar
from .quadrature import fixed_rule_nodes, fixed_rule_result

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


class _Row(NamedTuple):
    """One theorem; alpha is needed iff family is set (None: K = 1)."""

    hyperbolic: bool
    weighted: bool
    family: Family | None
    has_mid: bool

    @property
    def printed_constant(self) -> bool:
        """The paper prints sech(p*L) as the rhs constant (D4, D5)."""
        return self.hyperbolic and not self.weighted and self.family is not None


_REQUIRES = {
    TheoremId.HH_1_1: _Row(False, False, None, True),
    TheoremId.FEJER_1_2: _Row(False, True, None, True),
    TheoremId.FHH: _Row(False, False, Family.RL, True),
    TheoremId.FHHF: _Row(False, True, Family.RL, True),
    TheoremId.FHH2: _Row(False, False, Family.EXP, True),
    TheoremId.FHHF2: _Row(False, True, Family.EXP, True),
    TheoremId.D1: _Row(True, False, None, True),
    TheoremId.D2: _Row(True, True, None, True),
    TheoremId.D3: _Row(True, True, None, False),
    TheoremId.D4: _Row(True, False, Family.RL, True),
    TheoremId.D5: _Row(True, False, Family.EXP, True),
    TheoremId.D6: _Row(True, True, Family.RL, True),
    TheoremId.D7: _Row(True, True, Family.EXP, True),
    TheoremId.D8: _Row(True, True, Family.RL, False),
    TheoremId.D9: _Row(True, True, Family.EXP, False),
}

# moment integrands that are products of two others, factor by factor
_PRODUCTS = {"uv": ("u", "v"), "cosh_v": ("cosh", "v"),
             "sinh_v": ("sinh", "v"), "xm_v": ("xm", "v")}

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

def kernel_cosh_moment(v: WeightSpec, interval: Interval, alpha: float, p: float,
                       family: Family = Family.RL) -> float:
    """integral of cosh(p*(x - midpoint)) * kernel(x) * v(x) over [a, b],
    where kernel is the symmetric two-sided fractional kernel of the family."""
    m, vf = interval.mid, as_callable(v.v)
    return kernel_moment(lambda x: np.cosh(p * (x - m)) * vf(x), interval,
                         family, alpha)


def kernel_sinh_moment(v: WeightSpec, interval: Interval, alpha: float, p: float,
                       family: Family = Family.RL) -> float:
    """Same as kernel_cosh_moment with sinh in place of cosh; vanishes for
    symmetric v because the integrand is odd about the midpoint."""
    m, vf = interval.mid, as_callable(v.v)
    return kernel_moment(lambda x: np.sinh(p * (x - m)) * vf(x), interval,
                         family, alpha)


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
                 allow_asymmetric: bool = False):
        self.u = u
        self.uf = as_callable(u)
        self.interval = interval
        self.p = None if p is None else float(p)
        self.weight = weight
        self.vf = as_callable(weight.v) if weight is not None else None
        self.tol = tol
        self.allow_asymmetric = allow_asymmetric
        self._weight_checked = False
        self._cache: dict = {}
        self._bank: dict = {}

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
        key = (which, family, alpha)
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = self._bank_moment(which, family, alpha)
        return value

    def _bank_moment(self, which, family, alpha) -> float:
        """The moment from the moment bank: each fixed-rule integral of
        :func:`kernel_moment` is a dot product of the integrand's values on
        the node set of its endpoint weight, and those values are computed
        once per evaluator.  A moment whose fixed rule is rejected is
        recomputed alone by :func:`kernel_moment`, so no value depends on
        which other moments were requested."""
        kernel = None if family is None else FracParams(alpha, family)
        parts, norm = kernel_parts(kernel, self.interval)
        values = []
        for weight_alpha, endpoint, factor in parts:
            bank = self._node_set(weight_alpha, endpoint)
            ys = self._column(bank, which)
            if factor is not None:
                ys = ys * self._column(bank, (family, alpha), factor)
            fixed = fixed_rule_result(ys, self.interval, weight_alpha,
                                      OPERATOR_QUAD)
            if fixed is None:
                return kernel_moment(self._integrand(which), self.interval,
                                     family, alpha)
            values.append(fixed.value)
        return sum(values[1:], values[0]) / norm

    def _node_set(self, weight_alpha, endpoint) -> dict:
        """The bank's columns on the fixed-rule nodes of one endpoint weight,
        by integrand name; the nodes themselves are the column "x"."""
        key = (weight_alpha, endpoint)
        bank = self._bank.get(key)
        if bank is None:
            bank = self._bank[key] = {"x": fixed_rule_nodes(
                self.interval.a, self.interval.b, weight_alpha, endpoint)}
        return bank

    def _column(self, bank, name, f=None):
        """The values on a node set of the integrand ``name`` (or of the
        callable f, filed under ``name``), computed once; a product is the
        product of its factors' columns."""
        col = bank.get(name)
        if col is None:
            if name in _PRODUCTS:
                first, second = _PRODUCTS[name]
                col = self._column(bank, first) * self._column(bank, second)
            else:
                col = np.asarray((f or self._integrand(name))(bank["x"]),
                                 dtype=float)
            bank[name] = col
        return col

    def _integrand(self, name):
        """The integrand of a moment (see ``_moment``) as a callable."""
        if name in _PRODUCTS:
            f, h = (self._integrand(n) for n in _PRODUCTS[name])
            return lambda x: f(x) * h(x)
        m, p = self.interval.mid, self.p
        return {
            "u": self.uf,
            "v": self.vf,
            "cosh": lambda x: np.cosh(p * (x - m)),
            "sinh": lambda x: np.sinh(p * (x - m)),
            "xm": lambda x: x - m,
        }[name]

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
        row = _REQUIRES[tid]
        interval = self.interval
        a, b, L = interval.a, interval.b, interval.length
        ua, um, ub = self._u_ends()
        avg = 0.5 * (ua + ub)
        fn, weight = self._memo("descr", lambda: (
            self._descr(self.u),
            self._descr(self.weight.v) if self.weight else None,
        ))
        params = {"a": a, "b": b, "p": self.p, "alpha": alpha,
                  "fn": fn, "weight": weight}
        M = lambda which: self._moment(which, row.family, alpha)

        # M(u v) and C = M(cosh(p(x-m)) v) of the sandwich
        p = self.p if row.hyperbolic else 0.0
        mid = M("uv" if row.weighted else "u")
        if row.hyperbolic:
            C = M("cosh_v" if row.weighted else "cosh")
        elif row.weighted:
            C = M("v")
        else:  # C = M(1) is the kernel mass: divide it out of every side
            mid, C = mid / kernel_mass(interval, row.family, alpha), 1.0
        rc = sech(0.5 * p * L)
        if not row.has_mid:  # the tilt bound
            if p == 0.0:  # the limit of csch(p*L/2) * sinh moment
                tilt = (2.0 / L) * M("xm_v")
            else:
                tilt = csch(0.5 * p * L) * M("sinh_v")
            rhs = avg * rc * C + 0.5 * (ua - ub) * tilt
            return _make_verdict(tid, mid, None, rhs, self.tol, params)
        if row.printed_constant:
            if strict_printed:
                rc = sech(p * L)
            params["constant_mode"] = "printed" if strict_printed else "proof"
        return _make_verdict(tid, um * C, mid, avg * rc * C, self.tol, params)

    @staticmethod
    def _descr(f) -> str:
        if isinstance(f, FuncExpr):
            return to_grammar(f)
        return f"<{type(f).__name__}>"


def eval_theorem(theorem_id, u, interval: Interval, *, v: WeightSpec | None = None,
                 alpha: float | None = None, p: float | None = None,
                 tol: float = DEFAULT_SLACK_TOL, strict_printed: bool = False,
                 allow_asymmetric: bool = False) -> InequalityVerdict:
    """One-shot evaluation of a single inequality."""
    ev = TheoremEvaluator(u, interval, p=p, weight=v, tol=tol,
                          allow_asymmetric=allow_asymmetric)
    return ev.evaluate(TheoremId(theorem_id), alpha=alpha,
                       strict_printed=strict_printed)


# ---------------------------------------------------------------------------
# limit sweeps

# the documented limits; the two rows give the swept axis and the scale
_LIMIT_PAIRINGS = (
    (TheoremId.D4, TheoremId.FHH),
    (TheoremId.D5, TheoremId.FHH2),
    (TheoremId.D6, TheoremId.FHHF),
    (TheoremId.D7, TheoremId.FHHF2),
    (TheoremId.D8, TheoremId.D3),
    (TheoremId.D9, TheoremId.D3),
)


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
    notes: list

    def groups(self) -> list:
        """The rows in runs that share a baseline: one run per alpha of a p
        sweep, one per p of an alpha sweep."""
        key = (lambda r: r.alpha) if self.axis == "p" else (lambda r: r.p)
        return [list(run) for _, run in itertools.groupby(self.rows, key)]

    @property
    def decay_rate(self) -> float | None:
        """The smallest log-log slope of max |delta| against p (p axis) or
        1 - alpha (alpha axis) over the groups; None if none has two points."""
        rates = []
        for run in self.groups():
            pts = [(r.p if self.axis == "p" else 1.0 - r.alpha, r.max_delta)
                   for r in run]
            pts = [(x, d) for x, d in pts if d > 0.0 and x > 0.0]
            if len(pts) >= 2:
                rates.append(float(np.polyfit(*np.log(pts).T, 1)[0]))
        return min(rates, default=None)


def limit_sweep(theorem_id, to_id, u, interval: Interval, *,
                weight: WeightSpec | None = None,
                alphas=(0.5,), ps=(1e-2, 1e-4, 1e-6),
                tol: float = DEFAULT_SLACK_TOL) -> LimitSweepResult:
    """Evaluate a theorem along its documented limit toward a baseline and
    report componentwise gaps.

    Supported pairings: D4->FHH, D5->FHH2, D6->FHHF, D7->FHHF2 (p -> 0 for
    each alpha in ``alphas``), and D8->D3, D9->D3 (alpha -> 1 for each p in
    ``ps``, each against its own D3 baseline).  Baseline sides are rescaled
    to the theorem's normalization; the scale is the theorem's limiting
    kernel constant.
    """
    tid, bid = TheoremId(theorem_id), TheoremId(to_id)
    if (tid, bid) not in _LIMIT_PAIRINGS:
        known = ", ".join(f"{t.value}->{b.value}" for t, b in _LIMIT_PAIRINGS)
        raise ValueError(f"no documented limit {tid.value}->{bid.value}; "
                         f"supported: {known}")
    if not alphas or not ps:
        raise ValueError("alphas and ps must be nonempty")
    row, base_row = _REQUIRES[tid], _REQUIRES[bid]
    if row.weighted and weight is None:
        raise ValueError(f"{tid.value} requires a weight function")
    # p -> 0 toward the same kernel's theorem without p, whose sides are
    # over the kernel mass when it is unweighted; alpha -> 1 toward the
    # plain theorem, where both kernels are the constant 2
    axis = "p" if base_row.family is row.family else "alpha"

    evs = {p: TheoremEvaluator(u, interval, p=p, weight=weight, tol=tol)
           for p in ps}
    # (baseline, scale, the (p, alpha) points that approach it)
    groups, notes = [], []
    if axis == "alpha":
        groups = [(evs[p].evaluate(bid), 2.0, [(p, alpha) for alpha in alphas])
                  for p in ps]
    else:
        for alpha in alphas:
            scale = 1.0
            if not base_row.weighted:
                scale = kernel_mass(interval, base_row.family, alpha)
                if base_row.family is Family.EXP:
                    alt = exp_flat_limit_alternative(interval, alpha)
                    notes.append(
                        f"alpha={alpha:g}: p->0 kernel constant computes to "
                        f"2*(1-exp(-rho))/(1-alpha) = {scale:.9g}; the "
                        f"alternative closed form 2*exp(-rho)/(1-alpha) = "
                        f"{alt:.9g} does not match the integral and is not "
                        "used")
            groups.append((evs[ps[0]].evaluate(bid, alpha=alpha), scale,
                           [(p, alpha) for p in ps]))
    rows = []
    for baseline, scale, points in groups:
        scaled_base = tuple(scale * s for s in baseline.sides())
        for p, alpha in points:
            sides = evs[p].evaluate(tid, alpha=alpha).sides()
            deltas = tuple(abs(s - t) for s, t in zip(sides, scaled_base))
            rows.append(LimitRow(p, alpha, sides, scaled_base, deltas,
                                 max(deltas)))
    return LimitSweepResult(tid, bid, axis, rows, notes)
