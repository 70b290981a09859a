"""hypfrac: fractional integral operators, hyperbolic p-convexity machinery,
and numerical verification of the hyperbolic Hermite-Hadamard / Fejer
inequality family.

Every public name is imported from its home module on first use (PEP 562),
so ``import hypfrac`` loads no submodule and no numpy, and a program loads
only the modules whose names it reads.
"""

import importlib

__version__ = "0.1.0"

# home module -> its public names, in the order of __all__
_PUBLIC = {
    "expressions": "DomainError FuncExpr Interval build_exp build_hyperbolic "
                   "build_power cosh_centered sinh_centered deriv deriv2",
    "grammar": "GrammarError parse_function to_grammar",
    "quadrature": "Endpoint QuadConfig QuadResult integrate integrate_singular",
    "fractional": "FracParams Family Side rl_left rl_right exp_left exp_right "
                  "fractional_integral",
    "convexity": "ConvexityReport Method Verdict check_all check_chord "
                 "check_gradient check_phi_monotone check_second_order "
                 "chord_majorant classify_exponential classify_power "
                 "methods_agree",
    "inequalities": "InequalityVerdict InvalidWeightError TheoremEvaluator "
                    "TheoremId WeightSpec eval_theorem kernel_cosh_moment "
                    "kernel_sinh_moment limit_sweep unit_weight",
    "generators": "GenConfig SampledFunction gen_p_convex gen_p_convex_ode "
                  "gen_positive_weight gen_symmetric_weight rng_for",
    "campaign": "CampaignConfig CampaignReport run_campaign",
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names.split()}
_SUBMODULES = {*_PUBLIC, "cli"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
