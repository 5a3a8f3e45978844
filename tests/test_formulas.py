"""Formula AST, parser, lasso evaluation, and attainable-value sets."""

import random
from fractions import Fraction

import pytest

from hqsynth.booleanize import AtLeast, booleanize
from hqsynth.formulas import (
    Atom,
    FALSE,
    Factor,
    LassoWord,
    MAX_NESTING,
    Max,
    Min,
    Next,
    Not,
    ParseError,
    TRUE,
    Until,
    WAvg,
    candidate_values,
    conj,
    disj,
    eval_lasso,
    eventually,
    globally,
    implies,
    is_boolean,
    parse,
    values,
)

from oracles import oracle_eval, random_formula, random_lasso

F12 = Fraction(1, 2)


def lasso(prefix, period, atoms):
    return LassoWord.make(prefix, period, frozenset(atoms))


class TestParser:
    def test_precedence_implies_weakest(self):
        f = parse("a -> b | c & d")
        assert isinstance(f, Max)  # implies desugars to max(1-a, ...)

    def test_unary_binds_tighter_than_until(self):
        f = parse("! a U X b")
        assert isinstance(f, Until)
        assert f.left == Not(Atom("a"))
        assert f.right == Next(Atom("b"))

    def test_factor_and_wavg(self):
        f = parse("factor{3/4} p")
        assert f == Factor(Fraction(3, 4), Atom("p"))
        g = parse("wavg{1/3}(p, q)")
        assert g == WAvg(Fraction(1, 3), Atom("p"), Atom("q"))

    def test_min_max_lists(self):
        f = parse("min(a, b, c)")
        assert isinstance(f, Min) and len(f.args) == 3

    def test_constants(self):
        assert parse("true") is TRUE
        assert parse("false") is FALSE

    def test_sugar(self):
        assert parse("F a") == eventually(Atom("a"))
        assert parse("G a") == globally(Atom("a"))

    @pytest.mark.parametrize("bad", [
        "", "(a", "a &", "factor{2} p", "factor{1/0} p", "wavg{1/2}(a)",
        "a b", "U a",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_lambda_outside_unit_interval(self):
        with pytest.raises(ParseError):
            parse("factor{5/4} p")


def _nest(text: str, levels: int) -> str:
    """`text` with the `{}` in it filled by itself `levels` times over."""
    out = "a"
    for _ in range(levels):
        out = text.format(out)
    return out


# (text, error message before " in {text!r}") of malformed formulas
PARSE_ERRORS = [
    ("(a & b", "expected ')' at position 6"),
    ("((a)", "expected ')' at position 4"),
    ("factor{1/2 a", "expected '}' at position 11"),
    ("factor{12ab} a", "expected '}' at position 9"),
    ("wavg{1/2}(a b)", "expected ',' at position 12"),
    ("wavg{1/2}(a, b", "expected ')' at position 14"),
    ("factor{2} a", "coefficient 2 outside [0, 1] at position 9"),
    ("wavg{1/0}(a, b)", "bad rational literal '1/0': Fraction(1, 0) at position 8"),
    ("factor{1/2/3} a",
     "bad rational literal '1/2/3': Invalid literal for Fraction: '1/2/3' at position 12"),
    ("factor{ } a", "expected a rational literal at position 8"),
    ("factor{x} a", "expected a rational literal at position 7"),
    ("factor a", "expected '{' at position 7"),
    ("U", "operator 'U' used as an atom at position 1"),
    ("a U U", "operator 'U' used as an atom at position 5"),
    ("G U a", "operator 'U' used as an atom at position 3"),
    ("min & a", "expected '(' at position 4"),
    ("min(a)", "min/max need at least two arguments at position 6"),
    ("max(a, b,", "expected an identifier at position 9"),
    ("a b", "trailing input at position 2"),
    ("a & (b | c))", "trailing input at position 11"),
    ("a -->b", "trailing input at position 2"),
    ("", "expected an identifier at position 0"),
    (" \t\n", "expected an identifier at position 3"),
    ("a\tU\nb &", "expected an identifier at position 7"),
    ("@", "expected an identifier at position 0"),
    ("(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1),
     f"formula nests deeper than {MAX_NESTING} levels at position {MAX_NESTING + 1}"),
    ("!" * (MAX_NESTING + 1) + "a",
     f"formula nests deeper than {MAX_NESTING} levels at position {MAX_NESTING + 1}"),
    ("X " * (MAX_NESTING + 1) + "a",
     f"formula nests deeper than {MAX_NESTING} levels at position {2 * MAX_NESTING + 1}"),
    ("a U " * (MAX_NESTING + 1) + "b",
     f"formula nests deeper than {MAX_NESTING} levels at position {4 * MAX_NESTING + 3}"),
    ("a -> " * (MAX_NESTING + 1) + "b",
     f"formula nests deeper than {MAX_NESTING} levels at position {5 * MAX_NESTING + 4}"),
    # within the parser's levels, but `&` and `|` take levels of their own
    # in the measure applied to the result
    (_nest("(b & {} | c)", 60), f"formula nests deeper than {MAX_NESTING} levels"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS,
                         ids=[f"{i}-{t[:12]}" for i, (t, _) in enumerate(PARSE_ERRORS)])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} in {text!r}"


def _wrapped(text, first):
    """A prefix operator's operand as printed: the innermost atom bare."""
    return text if first else f"({text})"


# (text to repeat, innermost operand, one more level of str, one more level
# of repr) of the chains `parse` accepts MAX_NESTING times over
CHAINS = {
    "G": ("G ", "a", lambda t, first: f"!((true U !{_wrapped(t, first)}))",
          lambda r: f"Not(child=Until(left=TrueFormula(), right=Not(child={r})))"),
    "X": ("X ", "a", lambda t, first: f"X {_wrapped(t, first)}", lambda r: f"Next(child={r})"),
    "!": ("! ", "a", lambda t, first: f"!{_wrapped(t, first)}", lambda r: f"Not(child={r})"),
    "U": ("a U ", "b", lambda t, first: f"(a U {t})",
          lambda r: f"Until(left=Atom(name='a'), right={r})"),
    "->": ("a -> ", "b", lambda t, first: f"max(!a, {t})",
           lambda r: f"Max(args=(Not(child=Atom(name='a')), {r}))"),
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_deepest_formulas_print(chain):
    # str and repr do not recurse, so every formula `parse` accepts prints,
    # with the text of the nested calls.
    repeat, inner, str_level, repr_level = CHAINS[chain]
    f = parse(repeat * MAX_NESTING + inner)
    with pytest.raises(ParseError):
        parse(repeat * (MAX_NESTING + 1) + inner)
    text, rep = inner, f"Atom(name='{inner}')"
    for i in range(MAX_NESTING):
        text, rep = str_level(text, i == 0), repr_level(rep)
    assert str(f) == text
    assert repr(f) == rep
    beta = booleanize(f, AtLeast(Fraction(1, 2)))
    assert str(beta) and repr(beta)
    if chain == "G":
        # !!x is x, so G...G a is !(true U (true U ... !a))
        assert str(beta) == "!(" + "(true U " * MAX_NESTING + "!(a)" + ")" * MAX_NESTING + ")"


def _next_chain(depth, leaf):
    f = Atom(leaf)
    for _ in range(depth):
        f = Next(f)
    return f


def test_deep_formulas_hash_size_and_compare():
    # Built through the constructors, a formula may nest deeper than the
    # recursion limit; hashing, `size` and `==` still walk it.
    f, g, h = _next_chain(1200, "a"), _next_chain(1200, "a"), _next_chain(1200, "b")
    assert hash(f) == hash(g)
    assert f.size() == 1201
    assert f == g and not f != g
    assert f != h and not f == h
    # Each node's cached hash is the hash of its key (class tag and fields),
    # as when it was computed recursively, so hash values did not change.
    rng = random.Random(17)
    for _ in range(50):
        stack = [random_formula(rng, ["a", "b"], rng.randint(1, 12))]
        hash(stack[0])
        while stack:
            node = stack.pop()
            assert node._hash == hash(node._key(node))
            stack.extend(node.children())


class TestLassoWord:
    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            LassoWord.make([], [], frozenset({"a"}))

    def test_letters_outside_atoms_rejected(self):
        with pytest.raises(ValueError):
            LassoWord.make([{"b"}], [{"a"}], frozenset({"a"}))

    def test_letter_indexing(self):
        w = lasso([{"a"}], [set(), {"a"}], {"a"})
        seen = [w.letter(j) for j in range(5)]
        assert seen == [frozenset({"a"}), frozenset(), frozenset({"a"}),
                        frozenset(), frozenset({"a"})]


class TestEvalLasso:
    def test_weighted_average_both_cycles(self):
        f = parse("wavg{2/3}(g, X g)")
        w = lasso([{"g"}, {"g"}], [set()], {"g"})
        assert eval_lasso(f, w) == 1

    def test_weighted_average_first_cycle_only(self):
        f = parse("wavg{2/3}(g, X g)")
        w = lasso([{"g"}], [set()], {"g"})
        assert eval_lasso(f, w) == Fraction(2, 3)

    def test_true_everywhere(self):
        w = lasso([], [{"p"}], {"p"})
        assert eval_lasso(TRUE, w) == 1

    def test_factor(self):
        w = lasso([], [{"p"}], {"p"})
        assert eval_lasso(parse("factor{3/4} p"), w) == Fraction(3, 4)

    def test_until_sup_attained_past_prefix(self):
        # best split lies inside the period, not the prefix
        f = parse("a U b")
        w = lasso([{"a"}], [{"a"}, {"a", "b"}], {"a", "b"})
        assert eval_lasso(f, w) == 1

    def test_matches_oracle_on_random_formulas(self):
        rng = random.Random(101)
        for _ in range(300):
            f = random_formula(rng, ["a", "b"], rng.randint(1, 8))
            w = random_lasso(rng, ["a", "b"])
            assert eval_lasso(f, w) == oracle_eval(f, w), (f, w)

    def test_next_shifts_the_word(self):
        rng = random.Random(102)
        for _ in range(100):
            f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
            w = random_lasso(rng, ["a", "b"])
            if w.prefix:
                s = LassoWord.make(w.prefix[1:], w.period, w.atoms)
            else:
                s = LassoWord.make([], w.period[1:] + w.period[:1], w.atoms)
            assert eval_lasso(Next(f), w) == eval_lasso(f, s)

    def test_desugared_operators_pointwise(self):
        rng = random.Random(103)
        for _ in range(60):
            fa = random_formula(rng, ["a", "b"], rng.randint(1, 4))
            fb = random_formula(rng, ["a", "b"], rng.randint(1, 4))
            w = random_lasso(rng, ["a", "b"])
            va, vb = eval_lasso(fa, w), eval_lasso(fb, w)
            assert eval_lasso(conj(fa, fb), w) == min(va, vb)
            assert eval_lasso(disj(fa, fb), w) == max(va, vb)
            assert eval_lasso(implies(fa, fb), w) == max(1 - va, vb)
            assert eval_lasso(Not(fa), w) == 1 - va


class TestValues:
    def test_atom(self):
        assert values(Atom("p")) == [0, 1]

    def test_weighted_average(self):
        assert values(parse("wavg{1/2}(p, q)")) == [0, F12, 1]

    def test_eval_always_lands_in_values(self):
        rng = random.Random(104)
        for _ in range(25):
            f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
            vs = values(f)
            for _ in range(10):
                w = random_lasso(rng, ["a", "b"])
                assert eval_lasso(f, w) in vs

    def test_cardinality_bound(self):
        rng = random.Random(105)
        for _ in range(40):
            size = rng.randint(1, 8)
            f = random_formula(rng, ["a", "b"], size)
            assert len(values(f)) <= 2 ** max(size, f.size())

    def test_values_subset_of_candidates_and_sorted(self):
        rng = random.Random(106)
        for _ in range(25):
            f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
            vs = values(f)
            assert vs == sorted(vs)
            assert set(vs) <= set(candidate_values(f))

    def test_unattainable_candidate_filtered(self):
        # min(p, !p) can never reach 1 even though 1 is a candidate
        f = conj(Atom("p"), Not(Atom("p")))
        assert 1 in candidate_values(f)
        assert values(f) == [0]


class TestIsBoolean:
    def test_classical_connectives_qualify(self):
        assert is_boolean(parse("G (a -> X b) & (a U b)"))

    def test_graded_operators_do_not(self):
        assert not is_boolean(parse("factor{1/2} a"))
        assert not is_boolean(parse("G wavg{1/2}(a, b)"))
