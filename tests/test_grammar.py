import ast
import hashlib
import math

import re

import numpy as np
import pytest

from hypfrac.expressions import build_hyperbolic, cosh_centered
from hypfrac.generators import (
    GenConfig,
    draw_interval,
    gen_p_convex,
    gen_symmetric_weight,
    rng_for,
)
from hypfrac.grammar import MAX_NODES, GrammarError, parse_function, to_grammar


@pytest.mark.parametrize("text,x,expected", [
    ("1", 0.7, 1.0),
    ("x", 0.7, 0.7),
    ("cosh(1.0*x)", 0.0, 1.0),
    ("pow(x,2.5)", 4.0, 32.0),
    ("exp(2*x)+0.5*sinh(x)", 1.0, math.exp(2.0) + 0.5 * math.sinh(1.0)),
    ("2*cosh(3*(x-0.25))-1.5", 0.25, 0.5),
    ("x**2", 3.0, 9.0),
    ("-x+1", 0.25, 0.75),
    ("x/4", 2.0, 0.5),
    ("(x+1)*(x-1)", 3.0, 8.0),
])
def test_parse_examples(text, x, expected):
    f = parse_function(text)
    assert f.eval(x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("text,folded", [
    ("x**2**2", "pow(x,4)"),
    ("x/(2**2)", "x/4"),
    ("pow(x,2**2)", "pow(x,4)"),
    ("x/exp(1)", f"x/{math.e!r}"),
    ("pow(x,cosh(0))", "x"),
])
def test_constant_sub_expressions_fold_where_a_constant_is_wanted(text, folded):
    assert parse_function(text) == parse_function(folded)


@pytest.mark.parametrize("bad,message", [
    ("x/(1-1)", "division by zero"),
    ("x/sinh(0)", "division by zero"),
    ("pow(x,pow(-1,0.5))", "requires a positive base"),
    ("x**cosh(1000)", "cosh(1000) = inf is not finite"),
    ("x/(x+1-x)", "division is only supported by a constant"),
])
def test_folded_constants_must_be_finite_and_nonzero_divisors(bad, message):
    with pytest.raises(GrammarError, match=re.escape(message)):
        parse_function(bad)


@pytest.mark.parametrize("bad", [
    "",
    "y",
    "cosh(x,2)",
    "pow(x)",
    "pow(x, x)",
    "1/(x)",
    "sin(x)",
    "x ** x",
    "import os",
    "cosh(",
])
def test_parse_rejects(bad):
    with pytest.raises(GrammarError):
        parse_function(bad)


@pytest.mark.parametrize("f", [
    build_hyperbolic(1.5, -0.3, 2.0),
    cosh_centered(2.0, 0.37),
    parse_function("0.5*exp(-1.2*x)+pow(x,2.5)*0.1"),
    parse_function("1+pow(x-0.5,2)"),
])
def test_round_trip(f):
    text = to_grammar(f)
    g = parse_function(text)
    xs = np.linspace(0.1, 1.9, 23)
    assert g.eval(xs) == pytest.approx(f.eval(xs), rel=1e-14)


def test_round_trip_preserves_exact_floats():
    f = parse_function("0.30000000000000004*x")
    text = to_grammar(f)
    assert "0.30000000000000004" in text
    assert parse_function(text).eval(1.0) == f.eval(1.0)


def _product(n):
    return "*".join(["x"] * n)


def _nest(n):
    return "cosh(" * n + "x" + ")" * n


@pytest.mark.parametrize("at_bound,past_bound", [
    (_product(38), _product(39)),    # 150 and 154 nodes
    (_nest(49), _nest(50)),          # 149 and 152 nodes
    ("-" * 74 + "x", "-" * 75 + "x"),  # 150 and 152 nodes
])
def test_parse_bounds_the_node_count(at_bound, past_bound):
    assert MAX_NODES == 150
    parse_function(at_bound)
    with pytest.raises(GrammarError, match=f"more than {MAX_NODES} syntax nodes"):
        parse_function(past_bound)


@pytest.mark.parametrize("text", [
    "+".join(["x"] * 1500),   # deeper than the converter could recurse
    "-" * 3000 + "x",         # too deep for the parser's AST construction
    "-" * 10000 + "x",        # overflows the parser's own stack
])
def test_parse_rejects_huge_strings_as_grammar_errors(text):
    with pytest.raises(GrammarError):
        parse_function(text)


def _generated_texts():
    """``to_grammar`` of the u and v of 200 seed-42 generated instances."""
    cfg = GenConfig(seed=42)
    for index in range(200):
        rng = rng_for(cfg.seed, index)
        interval = draw_interval(cfg, rng)
        p = rng.uniform(0.05, 5.0) / interval.length
        u = gen_p_convex(cfg, p, interval, rng=rng)
        w = gen_symmetric_weight(cfg, interval, rng=rng)
        yield to_grammar(u)
        yield to_grammar(w.v)


def test_generated_functions_parse_within_the_bound():
    for text in _generated_texts():
        size = sum(1 for _ in ast.walk(ast.parse(text, mode="eval").body))
        assert size <= MAX_NODES // 3, text
        parse_function(text)


_ACCEPTED = [
    "1", "x", "cosh(1.0*x)", "pow(x,2.5)", "exp(2*x)+0.5*sinh(x)",
    "2*cosh(3*(x-0.25))-1.5", "x**2", "-x+1", "x/4", "(x+1)*(x-1)",
    "0.5*exp(-1.2*x)+pow(x,2.5)*0.1", "1+pow(x-0.5,2)", "0.30000000000000004*x",
    "x/(1+1)", "x**(2*2)", "x/(x*0+2)", "x**(x*0)", "exp(1)+x+x*x",
    "pow(x,-1)*2/3",
]


def test_accepted_strings_parse_to_the_trees_they_parsed_to_before_folding():
    # constants fold only where the grammar used to reject a subtree, so a
    # string accepted before parses to the same tree; the digest is of the
    # trees the grammar gave before it folded constant sub-expressions
    texts = _ACCEPTED + list(_generated_texts())
    assert hashlib.sha1(repr(texts).encode()).hexdigest() == \
        "2cbcac27522c8c1e8f22953d4ea9c45755ab7eb5"
    trees = [parse_function(text) for text in texts]
    assert hashlib.sha1(repr(trees).encode()).hexdigest() == \
        "d74ec747ec3427e05c534f7c9ee08e40fd60ba0e"
