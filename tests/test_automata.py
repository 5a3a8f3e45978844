"""LTL -> NBW -> DPW pipeline, products, lasso runs, nonemptiness."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from hqsynth.automata import (
    DPW,
    ProductPreAutomaton,
    accepting_lasso_from,
    determinize,
    dpw_for,
    dpw_nonempty_from,
    dpw_to_dot,
    ltl_to_nbw,
    nbw_accepts_lasso,
    product,
    run_lasso,
)
from hqsynth.booleanize import (
    AtLeast,
    B_TRUE,
    BAtom,
    EqualTo,
    GreaterThan,
    band,
    bnext,
    booleanize,
    bor,
)
from hqsynth.common import StateLimitExceeded, all_letters
from hqsynth.evaluation import product_chain
from hqsynth.formulas import Atom, LassoWord, eval_lasso, parse, values
from hqsynth.mdp import DistributionMDP, UniformInputs, induced_pre_mdp
from hqsynth.transducers import Transducer

from oracles import oracle_eval, random_formula, random_lasso


def lassos_up_to(atoms, max_pre, max_per):
    letters = all_letters(atoms)
    for np in range(max_pre + 1):
        for nv in range(1, max_per + 1):
            for pre in itertools.product(letters, repeat=np):
                for per in itertools.product(letters, repeat=nv):
                    yield LassoWord.make(pre, per, frozenset(atoms))


class TestNBW:
    def test_true_accepts_everything(self):
        nbw = ltl_to_nbw(B_TRUE, atoms=frozenset({"p"}))
        rng = random.Random(301)
        for _ in range(10):
            assert nbw_accepts_lasso(nbw, random_lasso(rng, ["p"]))

    def test_safety_language(self):
        nbw = ltl_to_nbw(booleanize(parse("G p"), AtLeast(Fraction(1))))
        assert nbw_accepts_lasso(nbw, LassoWord.make([], [{"p"}], {"p"}))
        assert not nbw_accepts_lasso(
            nbw, LassoWord.make([{"p"}], [{"p"}, set()], {"p"}))

    def test_copersistence_vs_oracle(self):
        f = parse("F G !req")
        nbw = ltl_to_nbw(booleanize(f, AtLeast(Fraction(1))))
        rng = random.Random(302)
        for _ in range(50):
            w = random_lasso(rng, ["req"])
            assert nbw_accepts_lasso(nbw, w) == (oracle_eval(f, w) == 1)


class TestDeterminize:
    def test_true_gives_tiny_all_accepting_automaton(self):
        # no minimization pass is promised, only the language; the trivial
        # formula still must not balloon
        dpw = determinize(ltl_to_nbw(B_TRUE, atoms=frozenset({"p"})))
        assert dpw.n_states <= 2
        rng = random.Random(305)
        for _ in range(10):
            assert run_lasso(dpw, random_lasso(rng, ["p"]))

    def test_agrees_with_nbw_on_all_short_lassos(self):
        nbw = ltl_to_nbw(booleanize(parse("G p"), AtLeast(Fraction(1))))
        dpw = determinize(nbw)
        for w in lassos_up_to(["p"], 3, 3):
            assert run_lasso(dpw, w) == nbw_accepts_lasso(nbw, w)

    def test_copersistence_endpoints(self):
        dpw = determinize(ltl_to_nbw(booleanize(parse("F G !req"),
                                                AtLeast(Fraction(1)))))
        assert run_lasso(dpw, LassoWord.make([], [set()], {"req"}))
        assert not run_lasso(dpw, LassoWord.make([], [{"req"}], {"req"}))

    def test_state_ceiling_guard(self):
        with pytest.raises(StateLimitExceeded):
            determinize(ltl_to_nbw(booleanize(parse("F G !req"),
                                              AtLeast(Fraction(1)))),
                        ceiling=1)


class TestDpwFor:
    def test_atom_language(self):
        dpw = dpw_for(Atom("p"), EqualTo(Fraction(1)))
        assert run_lasso(dpw, LassoWord.make([], [{"p"}], {"p"}))
        assert not run_lasso(dpw, LassoWord.make([], [set()], {"p"}))

    def test_hard_drive_perfect_computation(self):
        f = parse("((X data) -> !close) & (((!(X data)) -> close)"
                  " | factor{1/2} (X close))")
        w = LassoWord.make([{"close"}], [set()], {"close", "data"})
        assert eval_lasso(f, w) == 1
        dpw = dpw_for(f, EqualTo(Fraction(1)))
        assert run_lasso(dpw, w)

    def test_membership_matches_values_partition(self):
        rng = random.Random(303)
        for _ in range(30):
            f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
            ab = frozenset({"a", "b"})
            vs = values(f)
            dpws = [dpw_for(f, EqualTo(v), atoms=ab) for v in vs]
            for _ in range(8):
                w = random_lasso(rng, ["a", "b"])
                hits = [v for v, d in zip(vs, dpws) if run_lasso(d, w)]
                assert hits == [oracle_eval(f, w)], (f, w)

    def test_every_state_total_and_ranked(self):
        # constructor re-validates; poke the structure once by hand anyway
        dpw = dpw_for(parse("a U b"), AtLeast(Fraction(1)))
        letters = all_letters(dpw.atoms)
        for q in range(dpw.n_states):
            assert 1 <= dpw.rank[q]
            for a in letters:
                assert (q, a) in dpw.trans


class TestProduct:
    def test_singleton_product_mirrors_component(self):
        dpw = dpw_for(parse("a U b"), AtLeast(Fraction(1)))
        prod = product([dpw])
        assert len(prod) <= dpw.n_states
        for s in prod.states:
            for a in all_letters(dpw.atoms):
                assert prod.proj(0, prod.step(s, a)) == \
                    dpw.trans[(prod.proj(0, s), a)]

    def test_size_bound_and_projection_commutes(self):
        both = frozenset({"p", "q"})
        d1 = dpw_for(Atom("p"), EqualTo(Fraction(1)), atoms=both)
        d2 = dpw_for(Atom("q"), EqualTo(Fraction(1)), atoms=both)
        prod = product([d1, d2])
        assert len(prod) <= d1.n_states * d2.n_states
        comps = [d1, d2]
        frontier = [prod.initial]
        seen = set(frontier)
        for _ in range(4):
            nxt = []
            for s in frontier:
                for a in all_letters(frozenset({"p", "q"})):
                    t = prod.step(s, a)
                    for i, d in enumerate(comps):
                        assert prod.proj(i, t) == d.trans[(prod.proj(i, s), a)]
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt

    def test_alphabet_mismatch_rejected(self):
        d1 = dpw_for(Atom("p"), EqualTo(Fraction(1)))
        d2 = dpw_for(Atom("q"), EqualTo(Fraction(1)), atoms=frozenset({"q"}))
        with pytest.raises(ValueError):
            product([d1, d2])


class TestRunsAndEmptiness:
    def one_state(self, rank):
        letters = all_letters(frozenset({"p"}))
        return DPW(frozenset({"p"}), 1, 0, {(0, a): 0 for a in letters}, [rank])

    def test_rank_parity_decides(self):
        rng = random.Random(304)
        w = random_lasso(rng, ["p"])
        assert run_lasso(self.one_state(2), w)
        assert not run_lasso(self.one_state(1), w)

    def test_nonempty_iff_even_cycle(self):
        assert dpw_nonempty_from(self.one_state(2), 0)
        assert not dpw_nonempty_from(self.one_state(1), 0)

    def test_witness_is_replayable(self):
        f = parse("p & X G !p")
        dpw = dpw_for(f, EqualTo(Fraction(1)))
        assert dpw_nonempty_from(dpw, 0)
        witness = accepting_lasso_from(dpw, 0)
        assert witness is not None
        assert run_lasso(dpw, witness)
        assert eval_lasso(f, witness) == 1

    def test_dot_export_mentions_every_state(self):
        dpw = dpw_for(Atom("p"), EqualTo(Fraction(1)))
        dot = dpw_to_dot(dpw)
        assert dot.startswith("digraph")
        assert dot.count("shape=") >= dpw.n_states


# --- the shared state ceiling --------------------------------------------

CEILING_IO = frozenset({"i", "o"})


def _ceiling_beta():
    return booleanize(parse("G F i & (i U o)"), AtLeast(Fraction(1)))


def _ceiling_dpw():
    return determinize(ltl_to_nbw(_ceiling_beta(), CEILING_IO))


def _ceiling_coin():
    half = Fraction(1, 2)
    trans = {(s, o): [(0, half), (1, half)]
             for s in (0, 1) for o in all_letters(frozenset({"o"}))}
    return DistributionMDP({"i"}, {"o"}, [frozenset(), frozenset({"i"})], 0, trans)


def _ceiling_transducer():
    none, i = frozenset(), frozenset({"i"})
    delta = {(q, letter): int(letter == i) for q in (0, 1) for letter in (none, i)}
    return Transducer({"i"}, {"o"}, [0, 1], 0, delta, {0: none, 1: frozenset({"o"})})


# construction -> (stage named by the guard, size of the construction under
# a given ceiling)
CEILING_CASES = {
    "ltl_to_nbw": ("tableau automaton",
                   lambda c: len(ltl_to_nbw(_ceiling_beta(), CEILING_IO, ceiling=c))),
    "determinize": ("determinized automaton",
                    lambda c: determinize(ltl_to_nbw(_ceiling_beta(), CEILING_IO),
                                          ceiling=c).n_states),
    "product": ("product automaton",
                lambda c: len(ProductPreAutomaton([_ceiling_dpw(), _ceiling_dpw()],
                                                  ceiling=c))),
    "induced-uniform": ("induced MDP",
                        lambda c: induced_pre_mdp(_ceiling_dpw(),
                                                  UniformInputs({"i"}, {"o"}), c).n),
    "induced-markov": ("induced MDP",
                       lambda c: induced_pre_mdp(_ceiling_dpw(), _ceiling_coin(), c).n),
    "product-chain": ("evaluation product",
                      lambda c: product_chain(_ceiling_transducer(), [_ceiling_dpw()],
                                              None, c).n),
}


@pytest.mark.parametrize("construction", sorted(CEILING_CASES))
def test_state_ceiling_boundary(construction):
    what, build = CEILING_CASES[construction]
    size = build(None)
    assert size > 1
    assert build(size) == size
    with pytest.raises(StateLimitExceeded) as info:
        build(size - 1)
    assert info.value.what == what


# --- the tableau, pinned -------------------------------------------------

GOLDEN_FORMULAS = {
    "message": ("wavg{1/2}(wavg{1/2}(max(min(!noise, !encode), factor{3/4} encode),"
                " X max(min(!noise, !encode), factor{3/4} encode)),"
                " wavg{1/2}(X (X max(min(!noise, !encode), factor{3/4} encode)),"
                " X (X (X max(min(!noise, !encode), factor{3/4} encode)))))",
                {"noise", "encode"}),
    "hard_drive": ("min(max(!(X data), !close), max(max(!(!(X data)), close),"
                   " factor{1/2} (X close)))", {"data", "close"}),
    "gf2": ("(G F i0) | (G F i1) & (F i0 | !i0) & (F i1 | !i1)", {"i0", "i1", "o"}),
    "until7": ("a U a U a U a U a U a U b", {"a", "b"}),
}

# (spec, value, NBW states, DPW states, sha256 of the NBW transition table)
GOLDEN_TABLEAU = [
    ("message", "0", 5, 6, "f45b708fa55bc34bbb5d7bdc6d4f1f0fca4e109316ab9489c9f17d7d823e6054"),
    ("message", "3/16", 25, 9, "0fca0d89d86b05afe82844f173f86d7b6d70225240ef82617dcc7856554b0b87"),
    ("message", "1/4", 42, 12, "577cc57b560535ea0ab2e638240eb178647d7421c54423ec0b98880c95d68cc8"),
    ("message", "3/8", 83, 13, "706d8e44269511678b544c0dee76f6f0aff60dd0b4652c0bd1552d66fd06ed82"),
    ("message", "7/16", 334, 16, "e6910a978a61457b517a3bcc4c1e143c9a919a548b58b04e698d7fa88a016814"),
    ("message", "1/2", 74, 15, "df87b4e737edb446912cec0519b82a03f1ce04a76c1c7ad64de2b293fe1b8ce1"),
    ("message", "9/16", 109, 13, "e65993e6755f5ddd2d9d4677100312346ae4fcf2e3edd18cfd05cab35ff6f8dc"),
    ("message", "5/8", 402, 15, "feccf23ea34bb0861b1cc82f39856c943810d3838ff4542c2eb36405ada4c839"),
    ("message", "11/16", 383, 16, "d756fa7673c7818abc828dbbdb47133bd27b25af9e514de47283b6b79584378d"),
    ("message", "3/4", 158, 16, "d642a5d5f9ed06d41ed1dd13391efd93d2d24c560514d58c1d418618f8e990e4"),
    ("message", "13/16", 186, 11, "ea449dca75e2dfd9d5a7bde2e3b6b4a1a055a7b896581072862e336cc3f58be9"),
    ("message", "7/8", 148, 11, "c3e5df179e3a203c46ebd44956b9a92580d5f583f27cab90436c07cfb3678ac6"),
    ("message", "15/16", 25, 9, "444b77f342b204d9f3be37be054257de230d0fb9baa25c6809122adef8001540"),
    ("message", "1", 5, 6, "3b7cb1d5aaa8fe9489f687b551e3da2b28fc17c01e5bfe3561916c1e4919fda1"),
    ("hard_drive", "0", 4, 5, "3a9babf28ec5036689ed40d04b009c65a0c455494d86fe83d1bcf94e9b01d4a1"),
    ("hard_drive", "1/2", 5, 5, "3eec6c3fc4b6d8efd7b65239a699697bec89f8d286d6cb86cbaf55062d79cc93"),
    ("hard_drive", "1", 5, 5, "6964167d2ad20ee12758654d0712dbd785f848bfc699841641e62c05be1fee01"),
    ("gf2", "1", 9, 192, "884920178e037832620bb274f70b0287e678c18aa3922784d65f23d487c84da4"),
    ("until7", "0", 64, 6, "dad6c1bb6e28fb1526aceeebb64922d1887a07df373272bc9643d39b5f2db5ad"),
    ("until7", "1", 22, 390, "103308b864666e766d49a65a341a790436d4a33d862e750ab18f2a2b2175be28"),
]


def _transition_table_sha(nbw):
    rows = sorted((s, sorted(letter), edges) for (s, letter), edges in nbw.trans.items())
    text = "\n".join(f"{s} {letter} -> {list(edges)}" for s, letter, edges in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec,value,nbw_states,dpw_states,sha", GOLDEN_TABLEAU)
def test_tableau_golden(spec, value, nbw_states, dpw_states, sha):
    # The value automata of the worked examples, recorded before the tableau
    # moved to interned node ids: state numbering and edge order must not
    # change, because determinization and every later tie-break follow them.
    text, atoms = GOLDEN_FORMULAS[spec]
    nbw = ltl_to_nbw(booleanize(parse(text), EqualTo(Fraction(value))), frozenset(atoms))
    assert len(nbw) == nbw_states
    assert len(determinize(nbw)) == dpw_states
    assert _transition_table_sha(nbw) == sha


def _dpw_table_sha(dpw):
    # letters as sorted tuples, so the text does not depend on the hash seed
    rows = sorted((q, tuple(sorted(letter)), t) for (q, letter), t in dpw.trans.items())
    text = "\n".join(f"{q} {letter} -> {t}" for q, letter, t in rows)
    text += f"\nrank {list(dpw.rank)}"
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the transition table and ranks of each golden row's DPW
GOLDEN_DPW = {
    ("message", "0"): "7c847e5407b105a803b4dee9b9411a12377f0226082e43ab92c9dc5ba7004670",
    ("message", "3/16"): "b819c31c55420b5887ce768de30df1597380e4566dfc462c20d956a17253f72e",
    ("message", "1/4"): "bfeda015d640dd5c4507eb3b9891591781d0e5584015af23ade54f6810289689",
    ("message", "3/8"): "b551b947727acf4300fdfebee6e65ffc3576435e9bd7fd32ca666aafe7b28df4",
    ("message", "7/16"): "d833e09c4ab9dfa28f4cdfaa11c58bf0d4c54ab0c777ba16e72d79c785c423f3",
    ("message", "1/2"): "63daa7db2bceea7555c2f7af576989f1822816bf180be1357b52b99728ebd5c3",
    ("message", "9/16"): "07e54804e302b5d94ab2c5e774f7e2d77755694983eeacaccf55dfab6321b81b",
    ("message", "5/8"): "609953bb120feee2c42bb04e2d0a9807b61b03160ece70962465e5a611bd4245",
    ("message", "11/16"): "ce37c54c0a0b153452ef251c56bcc128b2ab5612fafaeb8282efd62706da1404",
    ("message", "3/4"): "fa02355aa67e64bd6f73d77900f7cd70886f897a1a2fe835eb7b29d6eb656359",
    ("message", "13/16"): "33dab9cacd8b47cd039911d07b6e4a69104d78732e25722843e7561e3986c96c",
    ("message", "7/8"): "f03e8fabab53802b3b69ca38577144a730e97e0d82ae4be0a13302b491c7d5b8",
    ("message", "15/16"): "1cd3ed92456c5dc5dc20e96a5f9906b4ae9a74e494975ea6e1773ce8a2940fa8",
    ("message", "1"): "daa59875c417a18c6bd989383fb3965b5b753af1dc451a1ceda04dfdc616ebf4",
    ("hard_drive", "0"): "beef43e65508bec2d5866197bc90facb8f39b44b19298b32f25b1db5eca7b1b1",
    ("hard_drive", "1/2"): "dac3415f4b8fb98cf7a84dec51639647c66d4c8f3d1eee20855ee5f5989264b5",
    ("hard_drive", "1"): "f4a71c3169406fb13b1e0e48ac22ff9c6f99d95ceaf99e2f8ca09e6a96682491",
    ("gf2", "1"): "f7a3e673a73a3eb5d6138218798969d31adf23971131635f48dc67a4bc6147dd",
    ("until7", "0"): "9fd11af5ad69a1248569d5abb7c6d49fcedda57b13327db598d6cb5b0ba013a4",
    ("until7", "1"): "bf4853d67a1cdfd0a672198866d22c2ca1a8239bc9f3ddd0bb2236ac786de84f",
}


@pytest.mark.parametrize("spec,value", sorted(GOLDEN_DPW))
def test_dpw_golden(spec, value):
    # Safra's trees and their exploration order fix the DPW's numbering, and
    # the numbering breaks ties in every later analysis.
    text, atoms = GOLDEN_FORMULAS[spec]
    nbw = ltl_to_nbw(booleanize(parse(text), EqualTo(Fraction(value))), frozenset(atoms))
    assert _dpw_table_sha(determinize(nbw)) == GOLDEN_DPW[(spec, value)]


def test_random_automata_digest():
    # One digest over the NBW and DPW tables of seeded random formulas with
    # until, recorded before the tableau reused covers and Safra trees became
    # bitmasks.
    rng = random.Random(8)
    predicates = [AtLeast, GreaterThan, EqualTo]
    thresholds = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    ab = frozenset({"a", "b"})
    digest = hashlib.sha256()
    for _ in range(300):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 10))
        predicate = rng.choice(predicates)(rng.choice(thresholds))
        nbw = ltl_to_nbw(booleanize(f, predicate), ab)
        digest.update(_transition_table_sha(nbw).encode())
        digest.update(_dpw_table_sha(determinize(nbw)).encode())
    assert digest.hexdigest() == \
        "34e8785a59f51e2a7f374304bddaa5707b96f9d56551e0443fcae8ea156d5245"


def test_deep_formula_tableau():
    # A 1500-deep alternating chain: the tableau and Safra's construction
    # must not recurse on the formula's depth.
    e = BAtom("a")
    for i in range(1500):
        e = band(bnext(BAtom("a")), e) if i % 2 == 0 else bor(BAtom("b"), e)
    nbw = ltl_to_nbw(e)
    assert len(nbw) == 3
    assert len(determinize(nbw)) == 5
