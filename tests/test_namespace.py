"""The package namespace: every public name keeps its home module's object
and its place in ``__all__``, though it is imported only on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import hypfrac

# home module -> public names, in the order of __all__ since 0.1.0
_PUBLIC = {
    "expressions": ["DomainError", "FuncExpr", "Interval",
                    "build_exp", "build_hyperbolic", "build_power",
                    "cosh_centered", "sinh_centered", "deriv", "deriv2"],
    "grammar": ["GrammarError", "parse_function", "to_grammar"],
    "quadrature": ["Endpoint", "QuadConfig", "QuadResult", "integrate",
                   "integrate_singular"],
    "fractional": ["FracParams", "Family", "Side",
                   "rl_left", "rl_right", "exp_left", "exp_right",
                   "fractional_integral"],
    "convexity": ["ConvexityReport", "Method", "Verdict",
                  "check_all", "check_chord", "check_gradient",
                  "check_phi_monotone", "check_second_order", "chord_majorant",
                  "classify_exponential", "classify_power", "methods_agree"],
    "inequalities": ["InequalityVerdict", "InvalidWeightError",
                     "TheoremEvaluator", "TheoremId", "WeightSpec",
                     "eval_theorem", "kernel_cosh_moment", "kernel_sinh_moment",
                     "limit_sweep", "unit_weight"],
    "generators": ["GenConfig", "SampledFunction", "gen_p_convex",
                   "gen_p_convex_ode", "gen_positive_weight",
                   "gen_symmetric_weight", "rng_for"],
    "campaign": ["CampaignConfig", "CampaignReport", "run_campaign"],
}


def test_all_keeps_every_public_name_in_its_order():
    assert hypfrac.__all__ == ["__version__",
                               *(n for names in _PUBLIC.values() for n in names)]


def test_each_public_name_is_its_home_modules_object():
    for module, names in _PUBLIC.items():
        home = importlib.import_module(f"hypfrac.{module}")
        for name in names:
            assert getattr(hypfrac, name) is getattr(home, name), name


def test_an_unknown_name_raises_pythons_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'hypfrac' has no attribute 'no_such_name'$"):
        hypfrac.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from hypfrac import no_such_name  # noqa: F401


_FRESH_PROBE = """
import sys
import hypfrac
listed = set(hypfrac.__all__) <= set(dir(hypfrac))
campaign = hypfrac.campaign
print(listed, campaign is sys.modules["hypfrac.campaign"], campaign.__name__)
names = {}
exec("from hypfrac import *", names)
print(all(names[n] is getattr(hypfrac, n) for n in hypfrac.__all__))
"""


def test_star_import_dir_and_submodules_in_a_fresh_process():
    # before any name is read: dir lists them all, a submodule attribute
    # imports the submodule, and a star import binds every name
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(hypfrac.__file__)))
    done = subprocess.run([sys.executable, "-c", _FRESH_PROBE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "True True hypfrac.campaign\nTrue\n", "")
