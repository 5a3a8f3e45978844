"""Value semantics of the immutable AST and predicate nodes, and of the
synthesis spec and result classes: construction, equality, hashing,
immutability and repr text."""

import copy
import pickle
from fractions import Fraction

import pytest

from hqsynth.booleanize import (
    B_TRUE,
    AtLeast,
    BAnd,
    BAtom,
    BNot,
    BUntil,
    EqualTo,
    GreaterThan,
    band,
    bnext,
    bor,
)
from hqsynth.formulas import (
    TRUE,
    Atom,
    FalseFormula,
    LassoWord,
    Min,
    Next,
    Not,
    TrueFormula,
    Until,
    WAvg,
    parse,
)
from hqsynth.synthesis import SynthesisResult, SynthesisSpec, Unrealizable


def test_equal_structure_is_equal_and_hashes_equal():
    f = parse("(a U wavg{1/3}(!b, min(true, X a)))")
    g = parse("(a U wavg{1/3}(!b, min(true, X a)))")
    assert f is not g
    assert f == g and not f != g
    assert hash(f) == hash(g)
    assert len({f, g, BAtom("a"), BAtom("a")}) == 2
    assert TrueFormula() == TRUE and hash(TrueFormula()) == hash(TRUE)


@pytest.mark.parametrize("x, y", [
    (Not(Atom("a")), Next(Atom("a"))),
    (Atom("a"), BAtom("a")),
    (AtLeast(Fraction(1)), EqualTo(Fraction(1))),
    (AtLeast(Fraction(1)), GreaterThan(Fraction(1))),
    (TrueFormula(), FalseFormula()),
], ids=["not-next", "atom-batom", "atleast-equalto", "atleast-greaterthan",
        "true-false"])
def test_different_classes_are_unequal(x, y):
    assert x != y and y != x
    assert not x == y
    assert x.__eq__(y) is NotImplemented


def test_nodes_are_immutable():
    a = Atom("a")
    with pytest.raises(AttributeError):
        a.name = "b"
    with pytest.raises(AttributeError):
        del a.name
    with pytest.raises(AttributeError):
        AtLeast(Fraction(1, 2)).bound = Fraction(1)
    with pytest.raises(AttributeError):
        TRUE.extra = 1
    assert a.name == "a"


def test_repr_text():
    f = Until(Atom("a"), WAvg(Fraction(1, 3), Not(Atom("b")),
                              Min((TRUE, Next(Atom("a"))))))
    assert repr(f) == (
        "Until(left=Atom(name='a'), right=WAvg(lam=Fraction(1, 3), "
        "left=Not(child=Atom(name='b')), "
        "right=Min(args=(TrueFormula(), Next(child=Atom(name='a'))))))")
    e = BAnd((BAtom("a"), BUntil(B_TRUE, BNot(BAtom("b")))))
    assert repr(e) == ("BAnd(args=(BAtom(name='a'), "
                       "BUntil(left=BTrue(), right=BNot(child=BAtom(name='b')))))")
    assert repr(AtLeast(Fraction(1, 2))) == "AtLeast(bound=Fraction(1, 2))"


def test_deep_boolean_formula_text():
    # str and repr of a Boolean formula deeper than the recursion limit
    e, text, rep = BAtom("a"), "a", "BAtom(name='a')"
    for i in range(1500):
        if i % 2 == 0:
            e = band(bnext(BAtom("a")), e)
            text, rep = f"(X (a) & {text})", f"BAnd(args=(BNext(child=BAtom(name='a')), {rep}))"
        else:
            e = bor(BAtom("b"), e)
            text, rep = f"(b | {text})", f"BOr(args=(BAtom(name='b'), {rep}))"
    assert str(e) == text
    assert repr(e) == rep


def test_keyword_and_positional_construction():
    assert Atom(name="a") == Atom("a")
    half = Fraction(1, 2)
    w = WAvg(half, Atom("a"), Atom("b"))
    assert WAvg(lam=half, left=Atom("a"), right=Atom("b")) == w
    assert WAvg(half, right=Atom("b"), left=Atom("a")) == w
    assert (w.lam, w.left, w.right) == (half, Atom("a"), Atom("b"))
    match w:
        case WAvg(lam, Atom(left), Atom(right)):
            assert (lam, left, right) == (half, "a", "b")
        case _:
            pytest.fail("positional class pattern did not match")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    (("a", "b"), {}),
    (("a",), {"name": "b"}),
    ((), {"nom": "a"}),
], ids=["missing", "too-many", "twice", "unknown"])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Atom(*args, **kwargs)


def test_copy_and_pickle_round_trip():
    f = parse("(a U wavg{1/3}(!b, min(true, X a)))")
    h = hash(f)  # a formula keeps its hash; copies compute their own
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and repr(g) == repr(f) and hash(g) == h
    assert pickle.loads(pickle.dumps(TRUE)) == TRUE


def test_lasso_word_validation():
    with pytest.raises(ValueError, match="period must be nonempty"):
        LassoWord.make([{"a"}], [])
    with pytest.raises(ValueError, match="period must be nonempty"):
        LassoWord(prefix=(), period=(), atoms=frozenset())
    with pytest.raises(ValueError, match="outside"):
        LassoWord((frozenset({"b"}),), (frozenset(),), frozenset({"a"}))
    w = LassoWord.make([{"a"}], [set()])
    assert w == LassoWord.make([{"a"}], [set()])
    assert repr(w) == ("LassoWord(prefix=(frozenset({'a'}),), "
                       "period=(frozenset(),), atoms=frozenset({'a'}))")


def test_spec_keyword_construction_and_validation():
    phi = parse("(X data) -> !close")
    spec = SynthesisSpec(inputs={"data"}, outputs=["close"], formula=phi)
    assert (spec.inputs, spec.outputs, spec.formula) == (
        frozenset({"data"}), frozenset({"close"}), phi)
    assert (spec.assumption, spec.threshold, spec.hard_constraint,
            spec.distribution) == (None, None, None, None)
    spec = SynthesisSpec(frozenset({"data"}), frozenset({"close"}), phi, threshold="1/2")
    assert spec.threshold == Fraction(1, 2)
    spec.threshold = Fraction(1)  # specs stay mutable
    assert spec.threshold == 1
    with pytest.raises(ValueError, match="threshold must lie"):
        SynthesisSpec(inputs={"data"}, outputs={"close"}, formula=phi, threshold=2)
    # a string threshold follows the CLI's rational rule: "num/den", an
    # integer or a plain decimal; exponent notation is refused before any
    # power of ten is expanded
    for text, want in (("1/2", Fraction(1, 2)), ("1", Fraction(1)), ("0.25", Fraction(1, 4))):
        assert SynthesisSpec({"data"}, {"close"}, phi, threshold=text).threshold == want
    for text in ("1e-3", "1e999999999", "1E0"):
        with pytest.raises(ValueError, match="exponent notation"):
            SynthesisSpec({"data"}, {"close"}, phi, threshold=text)
    with pytest.raises(ValueError, match="bad rational literal"):
        SynthesisSpec({"data"}, {"close"}, phi, threshold="half")
    # an int or a Fraction is exact; a float or a bool is not taken
    assert SynthesisSpec({"data"}, {"close"}, phi, threshold=0).threshold == 0
    assert SynthesisSpec({"data"}, {"close"}, phi,
                         threshold=Fraction(3, 4)).threshold == Fraction(3, 4)
    for t in (0.5, 1.0, True, False):
        with pytest.raises(ValueError, match="not an int, a Fraction"):
            SynthesisSpec({"data"}, {"close"}, phi, threshold=t)


def test_result_defaults():
    r = SynthesisResult(transducer=None, expected_value=Fraction(1))
    assert (r.almost_sure_floor, r.assumption_probability, r.stats) == (None, None, {})
    u = Unrealizable(Fraction(1), ())
    assert u.stats == {}
    assert u.stats is not Unrealizable(Fraction(1), ()).stats
