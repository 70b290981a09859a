"""Hyperbolic p-convexity: chord majorants, four verdict methods, families.

A function is hyperbolic p-convex on an interval when, on every closed
subinterval, it lies below the hyperbolic chord ``A*cosh(p*x) + B*sinh(p*x)``
matching it at the subinterval's endpoints.  Equivalent characterizations
implemented here for C^2 functions:

* chord test        - f(x) <= H(x; a', b', f) on all grid subintervals;
* curvature test    - f''(x) - p**2 * f(x) >= 0;
* gradient test     - f(y) >= f(x)*cosh(p*(y-x)) + f'(x)/p * sinh(p*(y-x));
* accumulation test - phi(x) = f'(x) - p**2 * integral_a^x f is nondecreasing.

``p == 0`` selects the classical-convexity limit of each test (straight
chord, ``f'' >= 0``, tangent-line inequality, ``phi = f'``).  Verdicts are
decided on a grid; violations are normalized by the magnitude of the
quantities compared, so pure boundary members of any amplitude classify as
BOUNDARY instead of drowning in round-off.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .expressions import (
    FuncExpr,
    Interval,
    as_callable,
    build_hyperbolic,
    deriv,
    line,
)
from .fractional import OPERATOR_QUAD
from .quadrature import integrate_cells

DEFAULT_GRID_N = 101
DEFAULT_TOL = 1e-9

# check_chord and check_gradient take grid rows in blocks of about
# _ROW_BLOCK and _GRADIENT_BLOCK elements (32 and 64 KB a float temporary),
# but never fewer than _MIN_ROWS rows: at grid 1001, blocks of 4 rows made
# check_chord about 28% slower from the numpy calls each block pays
# (BENCH_29.json).  check_gradient has no triangle to skip; at grids 101,
# 201 and 401 its twice larger blocks ran 5-16% faster (BENCH_32.json)
_ROW_BLOCK = 1 << 12
_GRADIENT_BLOCK = 1 << 13
_MIN_ROWS = 16


def _block_rows(n: int, block: int) -> int:
    """Grid rows per block of about ``block`` elements, n columns wide."""
    return max(_MIN_ROWS, block // n)


class Verdict(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"
    NEITHER = "neither"
    BOUNDARY = "boundary"


class Method(enum.Enum):
    CHORD = "chord"
    SECOND_ORDER = "second_order"
    GRADIENT = "gradient"
    PHI = "phi"


@dataclass(frozen=True)
class ConvexityReport:
    verdict: Verdict
    worst_violation: float
    witness_x: float
    method: Method

    @property
    def is_convex(self) -> bool:
        return self.verdict in (Verdict.CONVEX, Verdict.BOUNDARY)

    @property
    def is_concave(self) -> bool:
        return self.verdict in (Verdict.CONCAVE, Verdict.BOUNDARY)


def _c2_callables(f):
    """(value, first derivative, second derivative) as vectorized callables;
    a tree's second derivative is built only when it is called."""
    if isinstance(f, FuncExpr):
        d1 = deriv(f)
        return f.eval, d1.eval, lambda x: deriv(d1).eval(x)
    return f.value, f.derivative, f.second_derivative


def _settle(conv_violation, conc_violation, tol, x_conv, x_conc, method):
    convex_ok = conv_violation <= tol
    concave_ok = conc_violation <= tol
    if convex_ok and concave_ok:
        worst = max(0.0, conv_violation, conc_violation)
        witness = x_conv if conv_violation >= conc_violation else x_conc
        return ConvexityReport(Verdict.BOUNDARY, worst, float(witness), method)
    if convex_ok:
        return ConvexityReport(Verdict.CONVEX, max(0.0, conv_violation),
                               float(x_conv), method)
    if concave_ok:
        return ConvexityReport(Verdict.CONCAVE, max(0.0, conc_violation),
                               float(x_conc), method)
    if conv_violation <= conc_violation:
        return ConvexityReport(Verdict.NEITHER, conv_violation, float(x_conv), method)
    return ConvexityReport(Verdict.NEITHER, conc_violation, float(x_conc), method)


# ---------------------------------------------------------------------------
# hyperbolic chord

def chord_majorant(f, interval: Interval, p: float) -> FuncExpr:
    """The A*cosh(px) + B*sinh(px) (or straight line when p == 0)
    interpolating f at both endpoints of the interval."""
    fa = as_callable(f)(interval.a)
    fb = as_callable(f)(interval.b)
    a, b = interval.a, interval.b
    if p == 0.0:
        slope = (fb - fa) / (b - a)
        return line(fa - slope * a, slope)
    mat = np.array([
        [math.cosh(p * a), math.sinh(p * a)],
        [math.cosh(p * b), math.sinh(p * b)],
    ])
    A, B = np.linalg.solve(mat, np.array([fa, fb]))
    return build_hyperbolic(float(A), float(B), p)


def _ex_of_gaps(d, p: float):
    """E = expm1(-2p*d) (d itself at p == 0) and X = exp(-p*d) of the gaps d."""
    E = d if p == 0.0 else np.expm1(-2.0 * p * d)
    return E, np.exp(-p * d)


def check_chord(f, interval: Interval, p: float, grid_n: int = DEFAULT_GRID_N,
                tol: float = DEFAULT_TOL) -> ConvexityReport:
    """Grid chord test over every subinterval pair drawn from the grid.

    For grid triples i < k < j the chord through (x_i, f_i) and (x_j, f_j)
    takes at x_k the value

        H = (sinh(p*(x_j-x_k))*f_i + sinh(p*(x_k-x_i))*f_j) / sinh(p*(x_j-x_i)).

    With the gaps D[r, c] = x_c - x_r, E = expm1(-2p*D) and X = exp(-p*D)
    every sinh ratio factors into pairwise entries, e.g.
    sinh(p*(x_j-x_k))/sinh(p*(x_j-x_i)) = X[i, k]*E[k, j]/E[i, j], which
    stays finite for any p > 0; p == 0 has the same form with E = D and
    X = exp(-0.0*D) = 1 (``_ex_of_gaps``).

    The worst chord at each (i, k) is found without visiting every j.
    {cosh(px), sinh(px)} is a Chebyshev system: in the coordinates
    (E[i, c], f_c*X[i, c]) every chord from x_i is a straight line, so

        H = (f_i + E[i, k]*s[i, j]) / X[i, k],  s[i, j] = (f_j*X[i, j] - f_i)/E[i, j],

    and for fixed (i, k) the excess f_k - H is monotone in the slope
    s[i, j].  The selection key X[i, j]*(f_i*X[i, j] - f_j)/|E[i, j]| equals
    s - f_i for p > 0 and -s for p == 0, so the excess rises with it in both
    cases, and it carries no cancellation against f_i.  A suffix arg-max
    and a suffix arg-min of the key along each row (smallest j on ties) give
    the j of the largest and of the smallest excess for every k at once:
    O(n**2) time.  H is then evaluated at those triples as above, never
    through the slope, which would lose about exp(p*(x_k-x_i))*eps.

    No n x n array is held.  Chord starts are taken in blocks of rows
    (``_block_rows``), and each block forms E and X for its own rows only,
    from the block's diagonal on; the key, E[i, k], X[i, k] and the
    gathered E[i, j] are read from them.  E[k, j] and X[k, j] are formed
    from the gaps x_j - x_k at the selected j only.  Every entry is made
    by the same operations from the same gap as in a whole table, so the
    report has the same bits, and memory is O(n) beside one block.
    Maxima are reduced in row-major (i, k) order, so ties resolve to the
    first triple in (i, k, j) order whatever the block.
    """
    if grid_n < 3:
        raise ValueError("grid_n must be >= 3")
    p = abs(float(p))
    xs = interval.grid(grid_n)
    fv = as_callable(f)(xs)
    n = grid_n
    cols = np.arange(n)
    tops, top_k, lows, low_k = [], [], [], []
    # the unused lower triangle of a block may overflow and the key divides
    # by E's zero diagonal; neither reaches a used entry
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        step = _block_rows(n, _ROW_BLOCK)
        for r0 in range(0, n - 2, step):
            r1 = min(r0 + step, n - 2)
            i = cols[r0:r1, None]
            k = cols[r0 + 1:n - 1]  # j runs over cols[r0 + 1:], one ahead
            Eb, Xb = _ex_of_gaps(xs[r0 + 1:] - xs[i], p)
            # the excess at every x_k inside (x_i, x_j) rises with key[i, j]
            key = Xb * (fv[i] * Xb - fv[r0 + 1:]) / np.abs(Eb)
            fX_ik = fv[i] * Xb[:, :-1]
            E_ik = Eb[:, :-1]
            outside = k <= i
            for extreme, pick, sink, vals, wits in (
                    (np.maximum, np.argmax, -np.inf, tops, top_k),
                    (np.minimum, np.argmin, np.inf, lows, low_k)):
                # the extreme of each suffix of a row sits at the nearest
                # column, at or after the suffix start, that attains it
                run = extreme.accumulate(key[:, ::-1], axis=1)[:, ::-1]
                first = np.where(key == run, cols[r0 + 1:], n - 1)
                # for each k, the suffix j > k
                j = np.minimum.accumulate(first[:, ::-1], axis=1)[:, -2::-1]
                E_kj, fX_kj = _ex_of_gaps(xs.take(j) - xs[k], p)
                H = fX_ik * E_kj
                fX_kj *= fv.take(j)  # X[k, j] * f_j
                fX_kj *= E_ik
                H += fX_kj
                H /= Eb.take((i - r0) * Eb.shape[1] + j - (r0 + 1))  # E[i, j]
                excess = np.subtract(fv[k], H, out=H)  # > 0 violates convexity
                excess[outside] = sink
                at = int(pick(excess))
                vals.append(excess.flat[at])
                wits.append(k[at % len(k)])
    scale = 1.0 + float(np.max(np.abs(fv)))
    i1 = int(np.argmax(tops))
    i2 = int(np.argmin(lows))
    return _settle(float(tops[i1]) / scale, -float(lows[i2]) / scale, tol,
                   xs[top_k[i1]], xs[low_k[i2]], Method.CHORD)


def check_second_order(f, interval: Interval, p: float,
                       grid_n: int = DEFAULT_GRID_N,
                       tol: float = DEFAULT_TOL) -> ConvexityReport:
    """Sign test of f'' - p**2 * f on the grid."""
    p = abs(float(p))
    xs = interval.grid(grid_n)
    val, _, d2 = _c2_callables(f)
    fv, d2v = val(xs), d2(xs)
    g = d2v - p * p * fv
    scale = 1.0 + max(float(np.max(np.abs(d2v))),
                      p * p * float(np.max(np.abs(fv))))
    conv_v = float(np.max(-g)) / scale
    conc_v = float(np.max(g)) / scale
    return _settle(conv_v, conc_v, tol,
                   xs[int(np.argmax(-g))], xs[int(np.argmax(g))],
                   Method.SECOND_ORDER)


def check_gradient(f, interval: Interval, p: float,
                   grid_n: int = DEFAULT_GRID_N,
                   tol: float = DEFAULT_TOL) -> ConvexityReport:
    """Hyperbolic tangent-line test over all ordered grid pairs (x, y).

    Tangent points x run in blocks of rows and only row extremes are kept,
    so memory is O(n) beside one block; ties and nans go to the first row."""
    p = abs(float(p))
    xs = interval.grid(grid_n)
    val, d1, _ = _c2_callables(f)
    fv = val(xs)
    dv = d1(xs)
    n = xs.size
    top, low, big = np.empty(n), np.empty(n), np.empty(n)  # of g, -g, mag
    step = _block_rows(n, _GRADIENT_BLOCK)
    for r0 in range(0, n, step):
        rows = slice(r0, r0 + step)
        delta = xs[None, :] - xs[rows, None]  # y - x with x down rows
        # p == 0 takes the limits cosh -> 1 and sinh(p*d)/p -> d
        ch, sh = ((1.0, delta) if p == 0.0 else
                  (np.cosh(p * delta), np.sinh(p * delta) / p))
        support = fv[rows, None] * ch + dv[rows, None] * sh
        mag = np.abs(fv[rows, None]) * ch + np.abs(dv[rows, None] * sh)
        g = support - fv[None, :]  # > 0 violates convexity
        top[rows] = g.max(axis=1)
        low[rows] = np.negative(g, out=g).max(axis=1)
        big[rows] = mag.max(axis=1)
    scale = 1.0 + float(np.max(big))
    iv = int(np.argmax(top))
    ic = int(np.argmax(low))
    return _settle(float(top[iv]) / scale, float(low[ic]) / scale, tol,
                   xs[iv], xs[ic], Method.GRADIENT)


def check_phi_monotone(f, interval: Interval, p: float,
                       grid_n: int = DEFAULT_GRID_N,
                       tol: float = DEFAULT_TOL) -> ConvexityReport:
    """Monotonicity test of phi(x) = f'(x) - p**2 * integral_a^x f."""
    p = abs(float(p))
    xs = interval.grid(grid_n)
    val, d1, _ = _c2_callables(f)
    dv = d1(xs)
    if p == 0.0:
        phi = dv
        scale = 1.0 + float(np.max(np.abs(dv)))
    else:
        cum = np.concatenate([[0.0], np.cumsum(integrate_cells(val, xs, OPERATOR_QUAD))])
        phi = dv - p * p * cum
        scale = 1.0 + float(np.max(np.abs(dv))) + p * p * float(np.max(np.abs(cum)))
    run_max = np.maximum.accumulate(phi)
    run_min = np.minimum.accumulate(phi)
    drop = run_max - phi   # > 0 where phi decreased: violates nondecreasing
    rise = phi - run_min   # > 0 where phi increased: violates nonincreasing
    conv_v = float(np.max(drop)) / scale
    conc_v = float(np.max(rise)) / scale
    return _settle(conv_v, conc_v, tol,
                   xs[int(np.argmax(drop))], xs[int(np.argmax(rise))],
                   Method.PHI)


def check_all(f, interval: Interval, p: float, grid_n: int = DEFAULT_GRID_N,
              tol: float = DEFAULT_TOL) -> dict:
    """All four checks; key extra: reports agree iff verdicts are identical."""
    reports = {
        Method.CHORD: check_chord(f, interval, p, grid_n, tol),
        Method.SECOND_ORDER: check_second_order(f, interval, p, grid_n, tol),
        Method.GRADIENT: check_gradient(f, interval, p, grid_n, tol),
        Method.PHI: check_phi_monotone(f, interval, p, grid_n, tol),
    }
    return reports


def methods_agree(reports: dict) -> bool:
    verdicts = {r.verdict for r in reports.values()}
    return len(verdicts) == 1


# ---------------------------------------------------------------------------
# example families

@dataclass(frozen=True)
class PowerClassification:
    """Where x**r is hyperbolic p-convex / p-concave on (0, inf)."""

    boundary: float | None
    convex_region: tuple | None
    concave_region: tuple


def classify_power(r: float, p: float) -> PowerClassification:
    """Curvature regions of x**r on (0, inf) for p != 0.

    For r outside (0, 1) the curvature excess r*(r-1)*x**(r-2) - p**2 * x**r
    changes sign at sqrt(r*(r-1))/|p|; for r in (0, 1) (and the degenerate
    r in {0, 1}) the function is hyperbolic p-concave on all of (0, inf).
    """
    if p == 0.0:
        raise ValueError("p must be nonzero")
    rr = r * (r - 1.0)
    if rr <= 0.0:
        return PowerClassification(None, None, (0.0, math.inf))
    x_star = math.sqrt(rr) / abs(p)
    return PowerClassification(x_star, (0.0, x_star), (x_star, math.inf))


def classify_exponential(mu: float, p: float) -> Verdict:
    """exp(mu*x): convex when |mu| > |p|, concave when |mu| < |p|."""
    if mu == 0.0 or p == 0.0:
        raise ValueError("mu and p must be nonzero")
    if abs(mu) > abs(p):
        return Verdict.CONVEX
    if abs(mu) < abs(p):
        return Verdict.CONCAVE
    return Verdict.BOUNDARY

