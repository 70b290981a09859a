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
whose :func:`~hypfrac.fractional.kernel_parts` writes each moment as one
or two fixed-weight parts, each a node set, a rate lam and the ends whose
exp(-lam * distance) multiplies g: one Gauss-Legendre part for the plain
and EXP moments, one Gauss-Jacobi part at each end for RL.

One stacked pass
----------------
:meth:`TheoremEvaluator.evaluate_plan` evaluates a plan of rows (theorem,
alpha, strict_printed) at once, and :meth:`~TheoremEvaluator.evaluate` is
its one-row case.  A layout built once per plan checks the plan's alphas
and lists its weighted theorems, its moments, the node sets of their
fixed-weight parts and, per row, which moments it reads; the evaluator
checks p and the weight once per theorem.  u, v, cosh(p(x-m)),
sinh(p(x-m)) and x-m are each evaluated once on all the node sets the plan
needs, stacked; the products and kernel factors, one per (lam, ends, node
set), are formed on that stack, and every part is one row of it, in moment
order.  :func:`~hypfrac.quadrature.fixed_rule_values` sums and tests all
parts at once, each with the rule of its own endpoint weight, in one
stacked ``matmul`` that rounds every part as if it were summed alone.  A
moment is the ``np.add.reduceat`` of its parts (two for RL, one otherwise)
over its norm, accepted when all its parts are; a moment the fixed rule
rejects is recomputed alone by :func:`kernel_moment`.  The sides, slacks
and verdicts are then one loop over the rows in Python floats, in the
operation order of the formulas above, so every row equals, bit for bit,
the same row evaluated alone (numpy's fixed cost per operation would exceed
the loop for a campaign's 53 rows, and be most of a one-row ``verify``).
The pass returns one tuple (lhs, mid, rhs, slack_left, slack_right, holds)
per row, in plan order.  A verdict with a nan slack does not hold.

Two printed-formula corrections are applied throughout (both forced by the
equality case u = cosh(p*(x-m)) being tight): ``cosh^-1``/``sinh^-1``
factors are the reciprocals sech/csch, and the D4/D5 right-hand constant is
sech(p*(b-a)/2).  The as-printed constant sech(p*(b-a)) remains available
behind ``strict_printed=True`` for comparison runs.
"""

from __future__ import annotations

import enum
import functools
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
    kernel_factor,
    kernel_mass,
    kernel_moment,
    kernel_parts,
)
from .quadrature import fixed_rule_nodes, fixed_rule_scale, fixed_rule_values

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

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown theorem id {value!r}; expected one of "
                         + ", ".join(t.value for t in cls))


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
                         FracParams(alpha, family))


def kernel_sinh_moment(v: WeightSpec, interval: Interval, alpha: float, p: float,
                       family: Family = Family.RL) -> float:
    """Same as kernel_cosh_moment with sinh in place of cosh; vanishes for
    symmetric v because the integrand is odd about the midpoint."""
    m, vf = interval.mid, as_callable(v.v)
    return kernel_moment(lambda x: np.sinh(p * (x - m)) * vf(x), interval,
                         FracParams(alpha, family))


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


class _Moments(NamedTuple):
    """The moments of a batch and the fixed-rule integrals (columns) that
    make them up, built by :func:`_moment_layout` once per plan (the
    cached :func:`_plan_layout`)."""

    keys: tuple            # the moments, as (integrand, kernel)
    sets: tuple            # node sets, as (alpha of the endpoint weight, endpoint)
    bases: tuple           # integrands evaluated on every node set
    products: tuple        # integrands formed as products of two bases
    names: tuple           # the integrands of the columns
    factors: tuple         # (lam, ends, node set index) of each kernel factor
    column_name: np.ndarray    # per column: index into names
    column_set: np.ndarray     # per column: index into sets
    column_alpha: tuple    # per column: the alpha of its endpoint weight
    factored: np.ndarray   # the columns times a kernel factor
    factor_of: np.ndarray  # and the index of that factor
    first: np.ndarray      # per moment: its first column (RL has two)
    norms: np.ndarray      # per moment: the kernel norm


class _Plan(NamedTuple):
    """A plan's moments and, per row, where its factors sit in the table of
    :meth:`TheoremEvaluator.evaluate_plan`, built once per plan by
    :func:`_plan_layout`."""

    moments: _Moments
    masses: tuple          # the kernels whose masses are divided out
    # per row: M(u v) or M(u), mass, C, sech factor (-1: the constant 1.0),
    # and the tilt moment of a row without a MID (else None)
    rows: tuple
    tilt: bool             # whether any row is a tilt bound
    weighted: tuple        # the weighted theorems, each once


def _constant(values, dtype=None) -> np.ndarray:
    """A read-only array: the layouts are cached and shared by every call."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def _moment_layout(keys: tuple) -> _Moments:
    """The layout of a batch of moment keys (which, kernel): one column per
    fixed-weight part of each moment, in moment order."""
    sets, factors, columns, first, norms = {}, {}, [], [], []
    for which, kernel in keys:
        parts, norm = kernel_parts(kernel)
        first.append(len(columns))
        for nodes, lam, ends in parts:
            at = sets.setdefault(nodes, len(sets))
            factor = factors.setdefault((lam, ends, at), len(factors)) if ends else None
            columns.append((nodes[0], which, at, factor))
        norms.append(norm)
    names = tuple(dict.fromkeys(col[1] for col in columns))
    factored = [i for i, col in enumerate(columns) if col[3] is not None]
    return _Moments(
        keys, tuple(sets),
        tuple(dict.fromkeys(b for n in names for b in _PRODUCTS.get(n, (n,)))),
        tuple(n for n in names if n in _PRODUCTS), names,
        tuple(factors),
        _constant([names.index(col[1]) for col in columns], int),
        _constant([col[2] for col in columns], int),
        tuple(col[0] for col in columns),
        _constant(factored, int),
        _constant([columns[i][3] for i in factored], int),
        _constant(first, int),
        _constant(norms))


@functools.lru_cache(maxsize=256)
def _plan_layout(plan: tuple, p_zero: bool) -> _Plan:
    """The layout of a plan of (theorem, alpha, strict_printed) rows, whose
    alphas it checks (a plan that fails is not cached, so it fails on every
    call).  It depends on u, v and the interval not at all and on p only
    through ``p_zero``, so a campaign builds it once."""
    keys = {}
    index = lambda key: keys.setdefault(key, len(keys))
    masses, rows, weighted = {}, [], {}
    for tid, alpha, strict_printed in plan:
        tid = TheoremId(tid)
        row = _REQUIRES[tid]
        if row.family is None:
            kernel = None
        elif alpha is None:
            raise ValueError(f"{tid.value} requires a fractional order alpha")
        else:  # the range check, with the family's message
            kernel = FracParams(alpha, row.family)
        if row.weighted:
            weighted[tid] = None
        mid = index(("uv" if row.weighted else "u", kernel))
        c, mass, tilt = -1, -1, None
        if row.hyperbolic:
            c = index(("cosh_v" if row.weighted else "cosh", kernel))
        elif row.weighted:
            c = index(("v", kernel))
        else:  # C = M(1) is the kernel mass: divide it out of every side
            mass = masses.setdefault(kernel, len(masses))
        if not row.has_mid:  # the tilt bound; at p = 0, csch * sinh -> 2/L * (x - m)
            tilt = index(("xm_v" if p_zero else "sinh_v", kernel))
        rc = 0 if not row.hyperbolic else (
            2 if strict_printed and row.printed_constant else 1)
        rows.append((mid, mass, c, rc, tilt))
    # the table is [moments..., masses..., the three rc, 1.0]
    n = len(keys)
    rows = tuple((mid, -1 if mass < 0 else n + mass, c, n + len(masses) + rc,
                  tilt) for mid, mass, c, rc, tilt in rows)
    return _Plan(_moment_layout(tuple(keys)), tuple(masses), rows,
                 any(tilt is not None for *_, tilt in rows), tuple(weighted))


class TheoremEvaluator:
    """Evaluates any of the fifteen inequalities for one (u, v, interval, p)
    quadruple: a plan of rows in one stacked pass, so that theorems sharing
    moments (a whole campaign instance) pay for each moment once.  Sharing
    happens within one plan only: the evaluator keeps no values between
    calls, so a caller that wants moments shared puts the rows in one plan."""

    def __init__(self, u, interval: Interval, p: float | None = None,
                 weight: WeightSpec | None = None, tol: float = DEFAULT_SLACK_TOL,
                 allow_asymmetric: bool = False):
        self.uf = as_callable(u)
        self.interval = interval
        self.p = None if p is None else float(p)
        self.weight = weight
        self.vf = as_callable(weight.v) if weight is not None else None
        self.tol = tol
        self.allow_asymmetric = allow_asymmetric
        self._weight_checked = False

    def _moment_values(self, layout: _Moments) -> np.ndarray:
        """The kernel moments of a layout (which is u, v, uv, cosh, or
        cosh_v, sinh_v and xm_v: cosh(p*(x-m)), sinh(p*(x-m)) and x-m times
        v), in one stacked pass (module docstring).  A moment whose fixed
        rule is rejected is recomputed alone by :func:`kernel_moment`, so no
        value depends on which other moments were requested."""
        interval = self.interval
        x = np.array([fixed_rule_nodes(interval.a, interval.b, *nodes)
                      for nodes in layout.sets])
        scale = np.array([fixed_rule_scale(interval, alpha)
                          for alpha, _ in layout.sets])
        stack = {name: np.asarray(self._integrand(name)(x.ravel()),
                                  dtype=float).reshape(x.shape)
                 for name in layout.bases}
        for name in layout.products:
            first, second = _PRODUCTS[name]
            stack[name] = stack[first] * stack[second]
        ys = np.array([stack[name] for name in layout.names])[
            layout.column_name, layout.column_set]
        if layout.factors:
            factors = [kernel_factor(x[at], interval.a, interval.b, lam, ends)
                       for lam, ends, at in layout.factors]
            ys[layout.factored] *= np.array(factors)[layout.factor_of]
        q, _, ok = fixed_rule_values(ys, scale[layout.column_set],
                                     layout.column_alpha, OPERATOR_QUAD)
        values = np.add.reduceat(q, layout.first) / layout.norms
        good = np.logical_and.reduceat(ok, layout.first)
        for k in () if good.all() else np.flatnonzero(~good):
            which, kernel = layout.keys[k]
            values[k] = kernel_moment(self._integrand(which), interval, kernel)
        return values

    def _integrand(self, name):
        """The integrand of a moment (see ``_moment_values``) as a callable."""
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

    def _validate(self, plan: tuple) -> _Plan:
        """The layout of a plan, once its rows' requirements hold: p first,
        then each alpha (checked by the cached layout), then the weight of
        each weighted theorem, whose grid check runs once per evaluator.
        A one-row plan fails in that order, with the first failing check's
        message."""
        if self.p is None:
            for tid, _, _ in plan:
                if _REQUIRES[TheoremId(tid)].hyperbolic:
                    raise ValueError(f"{TheoremId(tid).value} requires the "
                                     "hyperbolic parameter p")
        layout = _plan_layout(plan, self.p == 0.0)
        for tid in layout.weighted:
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
        return layout

    # -- the evaluators ------------------------------------------------------

    def evaluate_plan(self, plan) -> list:
        """The verdicts of the rows (theorem, alpha, strict_printed) of
        ``plan``: one tuple (lhs, mid, rhs, slack_left, slack_right, holds)
        per row, where a row without a MID has None for ``mid`` and
        ``slack_left``, and ``holds`` is false when a slack is nan.  The
        plan's moments come from one stacked pass (``_moment_values``); the
        sides and slacks of each row are then the sandwich or the tilt bound
        (module docstring) in that operation order, over a table of the
        moments and the per-instance scalars (sech, csch, the kernel masses,
        from ``math``).  Overflow shows in the verdicts as inf or nan, so
        the whole evaluation, the weight check included, runs with numpy's
        floating-point warnings off: every caller gets one policy."""
        with np.errstate(all="ignore"):
            layout = self._validate(tuple(map(tuple, plan)))
            p, L, tol = self.p, self.interval.length, self.tol
            moments = self._moment_values(layout.moments)
            ua, um, ub = (float(self.uf(x)) for x in
                          (self.interval.a, self.interval.mid, self.interval.b))
            avg, half_diff = 0.5 * (ua + ub), 0.5 * (ua - ub)
            q = 0.0 if p is None else p  # rows without p take sech(0)
            table = moments.tolist() + [kernel_mass(self.interval, kernel)
                                        for kernel in layout.masses]
            table += [sech(0.0), sech(0.5 * q * L), sech(q * L), 1.0]
            if layout.tilt:  # at p = 0 the limit of csch(p*L/2) * sinh
                coef = 2.0 / L if p == 0.0 else csch(0.5 * p * L)
            verdicts = []
            for m, mass, c, rc, tilt in layout.rows:
                M, C = table[m], table[c]
                lhs, rhs = um * C, avg * table[rc] * C
                if tilt is None:
                    mid = M / table[mass]
                    slack_left, slack_right = mid - lhs, rhs - mid
                    holds = slack_left >= -tol * max(1.0, abs(rhs))  # nan: false
                else:  # the tilt bound: lhs is M(u v), and there is no MID
                    lhs, mid, slack_left = M, None, None
                    rhs += half_diff * (coef * table[tilt])
                    slack_right, holds = rhs - lhs, True
                holds = holds and slack_right >= -tol * max(1.0, abs(rhs))
                verdicts.append((lhs, mid, rhs, slack_left, slack_right, holds))
            return verdicts

    def evaluate(self, tid: TheoremId, alpha: float | None = None,
                 strict_printed: bool = False) -> InequalityVerdict:
        """One inequality: the one-row case of :meth:`evaluate_plan`."""
        tid = TheoremId(tid)
        (lhs, mid, rhs, slack_left, slack_right, holds), = self.evaluate_plan(
            [(tid, alpha, strict_printed)])
        params = {"a": self.interval.a, "b": self.interval.b, "p": self.p,
                  "alpha": alpha}
        if mid is not None and _REQUIRES[tid].printed_constant:
            params["constant_mode"] = "printed" if strict_printed else "proof"
        return InequalityVerdict(tid, lhs, mid, rhs, slack_left, slack_right,
                                 holds, self.tol, params)


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
                alphas=(0.5,), ps=(1e-2, 1e-4, 1e-6)) -> LimitSweepResult:
    """Evaluate a theorem along its documented limit toward a baseline and
    report componentwise gaps.

    Supported pairings: D4->FHH, D5->FHH2, D6->FHHF, D7->FHHF2 (p -> 0 for
    each alpha in ``alphas``), and D8->D3, D9->D3 (alpha -> 1 for each p in
    ``ps``, each against its own D3 baseline).  Baseline sides are rescaled
    to the theorem's normalization; the scale is the theorem's limiting
    kernel constant.  Each p is one plan: each alpha's baseline row (an
    alpha sweep's one D3, without alpha), then the theorem's; a p sweep's
    baselines take no p, so they have the same bits at every p.  The rows
    run alpha by alpha (p sweep) or p by p (alpha sweep).
    """
    tid, bid = TheoremId(theorem_id), TheoremId(to_id)
    if (tid, bid) not in _LIMIT_PAIRINGS:
        known = ", ".join(f"{t.value}->{b.value}" for t, b in _LIMIT_PAIRINGS)
        raise ValueError(f"no documented limit {tid.value}->{bid.value}; "
                         f"supported: {known}")
    if not alphas or not ps:
        raise ValueError("alphas and ps must be nonempty")
    for name, values in (("ps", ps), ("alphas", alphas)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat a value, got "
                             f"{', '.join(map(repr, values))}")
    row, base_row = _REQUIRES[tid], _REQUIRES[bid]
    if row.weighted and weight is None:
        raise ValueError(f"{tid.value} requires a weight function")
    # p -> 0 toward the same kernel's theorem without p, whose sides are
    # over the kernel mass when it is unweighted; alpha -> 1 toward the
    # plain theorem, where both kernels are the constant 2
    axis = "p" if base_row.family is row.family else "alpha"

    # the baselines' scales (the theorem's limiting kernel constant), by
    # the alpha of the baseline row: D3 has none
    scales, notes = {None: 2.0}, []
    for alpha in alphas if axis == "p" else ():
        kernel = FracParams(alpha, base_row.family)  # the range check
        scales[alpha] = (1.0 if base_row.weighted else
                         kernel_mass(interval, kernel))
        if base_row.family is Family.EXP and not base_row.weighted:
            alt = exp_flat_limit_alternative(interval, alpha)
            notes.append(
                f"alpha={alpha:g}: p->0 kernel constant computes to "
                f"2*(1-exp(-rho))/(1-alpha) = {scales[alpha]:.9g}; the "
                f"alternative closed form 2*exp(-rho)/(1-alpha) = "
                f"{alt:.9g} does not match the integral and is not used")
    bases = alphas if axis == "p" else (None,)
    rows = []
    for p in ps:
        plan = [(bid, alpha, False) for alpha in bases] + \
            [(tid, alpha, False) for alpha in alphas]
        verdicts = TheoremEvaluator(u, interval, p=p,
                                    weight=weight).evaluate_plan(plan)
        sides = [(lhs, rhs) if mid is None else (lhs, mid, rhs)
                 for lhs, mid, rhs, *_ in verdicts]
        for k, alpha in enumerate(alphas):
            j = k if axis == "p" else 0  # the plan row of its baseline
            base = tuple(scales[plan[j][1]] * s for s in sides[j])
            found = sides[len(bases) + k]
            deltas = tuple(abs(s - t) for s, t in zip(found, base))
            rows.append(LimitRow(p, alpha, found, base, deltas, max(deltas)))
    if axis == "p":  # alpha by alpha, each run in the order of ps
        rows.sort(key=lambda r: list(alphas).index(r.alpha))
    return LimitSweepResult(tid, bid, axis, rows, notes)
