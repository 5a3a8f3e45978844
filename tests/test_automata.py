"""LTL -> NBW -> DPW pipeline, products, lasso runs, nonemptiness."""

import hashlib
import itertools
import json
import os
import random
import sys
import time
import weakref
from fractions import Fraction

import pytest

from hqsynth import automata
from hqsynth.automata import (
    DPW,
    ProductPreAutomaton,
    accepting_lasso_from,
    determinize,
    dpw_for,
    dpw_nonempty_from,
    ltl_to_nbw,
    parity_lasso,
    run_lasso,
)
from hqsynth.booleanize import (
    SCOPE,
    AtLeast,
    B_TRUE,
    BAtom,
    EqualTo,
    GreaterThan,
    band,
    bnext,
    bnot,
    booleanize,
    bor,
)
from hqsynth.common import StateLimitExceeded, all_letters
from hqsynth.evaluation import product_chain
from hqsynth.formulas import (
    Atom,
    LassoWord,
    Next,
    Until,
    candidate_values,
    eval_lasso,
    parse,
    values,
)
from hqsynth.mdp import DistributionMDP, UniformInputs, induced_pre_mdp
from hqsynth.transducers import Transducer

from oracles import (
    assert_same_dpw,
    bexpr_to_formula,
    dpw_decided_values,
    dpw_to_dot,
    nbw_accepts_lasso,
    oracle_eval,
    plain_determinize,
    plain_vacuity,
    product,
    random_formula,
    random_lasso,
    random_nbw,
)
from scenarios import battery_formula


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


def _has_until(f):
    return isinstance(f, Until) or any(_has_until(g) for g in f.children())


def _next_depth(f):
    if isinstance(f, Next):
        return 1 + _next_depth(f.child)
    return max((_next_depth(g) for g in f.children()), default=0)


class TestPruning:
    def test_until_free_states_all_have_successors(self):
        # Without until and release, no obligation is dropped before the
        # vacuity check, so the pruning is exact: every state reached has a
        # successor, and the initial one has none only when no word attains
        # the value.  The value of an until-free formula of next-depth d
        # depends on the first d + 1 letters only, so the attained values
        # are those of every such prefix.
        rng = random.Random(306)
        ab = frozenset({"a", "b"})
        letters = all_letters(ab)
        for _ in range(300):
            f = random_formula(rng, ["a", "b"], rng.randint(1, 10), until=False)
            d = _next_depth(f)
            attained = None if d > 3 else {
                oracle_eval(f, LassoWord.make(word[:-1], word[-1:], ab))
                for word in itertools.product(letters, repeat=d + 1)}
            for v in candidate_values(f):
                nbw = ltl_to_nbw(booleanize(f, EqualTo(v)), ab)
                live = [any(nbw.trans[(q, a)] for a in letters) for q in range(len(nbw))]
                if attained is not None:
                    assert live[0] == (v in attained), (f, v)
                assert all(live[1:]), (f, v)

    def test_value_automata_with_until_match_oracle(self):
        rng = random.Random(307)
        ab = frozenset({"a", "b"})
        checked = 0
        while checked < 150:
            f = random_formula(rng, ["a", "b"], rng.randint(3, 9))
            if not _has_until(f):
                continue
            checked += 1
            nbws = {v: ltl_to_nbw(booleanize(f, EqualTo(v)), ab) for v in candidate_values(f)}
            for _ in range(5):
                w = random_lasso(rng, ["a", "b"])
                value = oracle_eval(f, w)
                for v, nbw in nbws.items():
                    assert nbw_accepts_lasso(nbw, w) == (v == value), (f, w, v)


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
    "battery8": (str(battery_formula(8)), {"station", "replace"}),
}

# (spec, value, NBW states, DPW states, sha256 of the NBW transition table)
GOLDEN_TABLEAU = [
    ("message", "0", 5, 6, "f45b708fa55bc34bbb5d7bdc6d4f1f0fca4e109316ab9489c9f17d7d823e6054"),
    ("message", "3/16", 11, 9, "185ba9fb95d1adc74314d7bf7b4601165cdb9456a566fea06ea9fa0e598edd16"),
    ("message", "1/4", 11, 9, "8dbf11de75b16d0c44f0e85ad56818fe0cfed24e5c77a706cc2cd8c1e72b7539"),
    ("message", "3/8", 14, 10, "0f4a64b18eb1d991439b9d19dfcf12e8924bdd0fc2e0267d0408e61ef36370eb"),
    ("message", "7/16", 24, 13, "9fd2dd52728d0aae8b059d9e2465ba9b6ab9057861d3fc3497e96551281ad624"),
    ("message", "1/2", 14, 10, "ee9ca15e13139bf2b29309628320220e905286db0e70a7fceb1b52a93748ad4c"),
    ("message", "9/16", 11, 9, "62b62da37244bc9b94eeaa66725778753cf197c74e2fae34ef01dd8aecf5bee0"),
    ("message", "5/8", 24, 13, "aff2c43ac1c4a49a8831bf0e9d8d83932026f38bc537d7f75959558c64347cb6"),
    ("message", "11/16", 24, 13, "b37d9fc0bab7dd147018ec8b0473830179913c261b63c1be90e2a8fd2cc5531b"),
    ("message", "3/4", 14, 12, "886925116c3ee7d025d5b6416bf000f1180f8485a9233920189dd1ace04d986b"),
    ("message", "13/16", 11, 9, "8b06602c2cbc3a584e5397a00a242e30ae41664f0d0874e16b44a5a644e864cd"),
    ("message", "7/8", 14, 10, "1d9d9593df1b291dba045e3574c6c18fd4006b97205193f584018c19b4fbb38b"),
    ("message", "15/16", 11, 9, "d67b968b6cec10acfa28f443ea2a04f1d33c400251e3a57e4fa6842be3a28868"),
    ("message", "1", 5, 6, "3b7cb1d5aaa8fe9489f687b551e3da2b28fc17c01e5bfe3561916c1e4919fda1"),
    ("hard_drive", "0", 4, 5, "3a9babf28ec5036689ed40d04b009c65a0c455494d86fe83d1bcf94e9b01d4a1"),
    ("hard_drive", "1/2", 3, 4, "44971ec30f144f910fb36757c3258a4f330f90a8cbfd533ef60671b2a39f1e45"),
    ("hard_drive", "1", 4, 5, "e9c6f5bc3d4c9559a3e2b947c20564ebd0add065342917da8bf53eef2d54234d"),
    ("gf2", "1", 9, 192, "b614fac4fcd1b0bfef50ce3cddbb4d84f2978a7066507948a628f0d81502f7d2"),
    ("until7", "0", 64, 6, "dad6c1bb6e28fb1526aceeebb64922d1887a07df373272bc9643d39b5f2db5ad"),
    ("until7", "1", 22, 390, "103308b864666e766d49a65a341a790436d4a33d862e750ab18f2a2b2175be28"),
    ("battery8", "0", 46, 36, "67c2b0fdb5cca3ea22e8753c60ef0eea8f14163894fe933a14a03b741e5c31b1"),
    ("battery8", "1/8", 98, 32, "154c3d671c56daa84880d8c599afe26aab743be66ab354b47e2b9f12802f0414"),
    ("battery8", "1/4", 95, 30, "1cff6a03861d80c451f68dd29b2b4f526ec8a95d43f6ed6252640f9aabcf2d55"),
    ("battery8", "3/8", 90, 28, "379fddea9d7ce373a1571a16ea37f97cc35b4d87a3bed6d4d2b2a71f101f03fb"),
    ("battery8", "1/2", 83, 26, "74d4cd66cb6439b09036db6f559d538f1ee1d9cd0d69d1a21c601dee788d7859"),
    ("battery8", "5/8", 74, 24, "3c64e519b4eb6bfa71350a622274e8bd538f18cfc6f2ef12c06cc0a67a92c488"),
    ("battery8", "3/4", 63, 22, "cb64b18000772246bcf85ab3bf20bf9ec189899c74672c0330711c4193324ae2"),
    ("battery8", "7/8", 50, 20, "8d5fabad88de9322822780ed2ae2fa33b0e82e2ec86935d2b4c27a4221f8cdc4"),
    ("battery8", "1", 18, 18, "fbed30ee926f6caa9cb25c035a66fe619bb80b181e3ad19a17c414a0131998da"),
]

# The rows above whose automata the pruning changed, as the tableau builds
# them with the vacuity check switched off: recorded before the pruning and
# the creation-order ids came in, they show that pruning is the only change.
GOLDEN_UNPRUNED_TABLEAU = [
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
    ("hard_drive", "1/2", 5, 5, "3eec6c3fc4b6d8efd7b65239a699697bec89f8d286d6cb86cbaf55062d79cc93"),
    ("hard_drive", "1", 5, 5, "6964167d2ad20ee12758654d0712dbd785f848bfc699841641e62c05be1fee01"),
]


def _transition_table_sha(nbw):
    rows = sorted((s, sorted(letter), edges) for (s, letter), edges in nbw.trans.items())
    text = "\n".join(f"{s} {letter} -> {list(edges)}" for s, letter, edges in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec,value,nbw_states,dpw_states,sha,tableau",
                         [(*row, "pruned") for row in GOLDEN_TABLEAU]
                         + [(*row, "unpruned") for row in GOLDEN_UNPRUNED_TABLEAU])
def test_tableau_golden(spec, value, nbw_states, dpw_states, sha, tableau):
    # The value automata of the worked examples, recorded when the tableau
    # began to prune vacuous obligation sets and to number nodes in creation
    # order: state numbering and edge order must not change by accident,
    # because determinization and every later tie-break follow them.  The
    # unpruned rows switch pruning off, while covers are composed and when
    # they are kept.
    text, atoms = GOLDEN_FORMULAS[spec]
    atoms = frozenset(atoms)
    beta = booleanize(parse(text), EqualTo(Fraction(value)))
    if tableau == "unpruned":
        nbw = ltl_to_nbw(beta, atoms, tableau=automata.Tableau(atoms, prune=False))
    else:
        nbw = ltl_to_nbw(beta, atoms)
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
    ("message", "3/16"): "469dbcdf51d0072617b9e1fe824be89d69da8a1887392d93bf5e78078f56abdb",
    ("message", "1/4"): "b386e069635f68b9419d6e43a265040008bc7772a316a291f43ac382e679176d",
    ("message", "3/8"): "75c894b38f794ba31d2867fe464d0ee140e415b9a51a4b4f1eaff70a96a844d6",
    ("message", "7/16"): "a6d901faa6f359dea81a992f06cb6dae6254a2361eda66183c6a897c8af4ba23",
    ("message", "1/2"): "a1c100deb1c4f0b1002fb9e8cac2f7d1d274b694a3626e58eee68765630af7c9",
    ("message", "9/16"): "f2c34cce1847b479e51b7ddc518a1184ac2b2af41e3a274f06b37e02aeaae8b3",
    ("message", "5/8"): "f1c4fe20121c4de2dad6ba375687a8ef315a52e3f6d00611a620f83ada800a78",
    ("message", "11/16"): "2a4507021f39d13f3bbe7f7c985dc0e188beb01d37ca34c8c59d020534922105",
    ("message", "3/4"): "2f725ec2aca325a13376d18cc1dbddb42f5a45377bdab05bfde0d85ad6d648c6",
    ("message", "13/16"): "0cdd3ff384e1be493af27fb9bb258d5ba6888d4cdddcc07e0b43d365c693af48",
    ("message", "7/8"): "6877bff4fb1b562c39ee9b37f0f69672a1d339b6c4aee988a6ec709fcd0760b9",
    ("message", "15/16"): "6727ef5b28a55b658ad28faaca96a6c3069dddf9afcfce7aea3bd5d005f5cddd",
    ("message", "1"): "daa59875c417a18c6bd989383fb3965b5b753af1dc451a1ceda04dfdc616ebf4",
    ("hard_drive", "0"): "beef43e65508bec2d5866197bc90facb8f39b44b19298b32f25b1db5eca7b1b1",
    ("hard_drive", "1/2"): "f8c0a61de7b5c20113eaca978064918ac477c3980464c6e9603e307cd1de0e84",
    ("hard_drive", "1"): "8526f6c8161e7e1d4908f27ef617f1f9476ce400c58ace2274952d0b558657a0",
    ("gf2", "1"): "f7a3e673a73a3eb5d6138218798969d31adf23971131635f48dc67a4bc6147dd",
    ("until7", "0"): "9fd11af5ad69a1248569d5abb7c6d49fcedda57b13327db598d6cb5b0ba013a4",
    ("until7", "1"): "bf4853d67a1cdfd0a672198866d22c2ca1a8239bc9f3ddd0bb2236ac786de84f",
    ("battery8", "0"): "2fb3267cbd1ef62cde96361ee2fd77177590b2f457b5147aa71d73a8fba9fab9",
    ("battery8", "1/8"): "66ef9e74f7c12bb5622231e0eaa52eaaa0cd40eece1d4214f881ef342dcb252e",
    ("battery8", "1/4"): "0dd5ab61f2310835a68f3397bc9d51a0274e79e62168bf26ae6231b03f9fcb0b",
    ("battery8", "3/8"): "1e01b2be6331477f8ca125e36fcb7014833389b88d2c91ccbb85019c64e9275e",
    ("battery8", "1/2"): "e5aaa7da315e20495660a9a08ce38b37edb9dfc9809efca3aa089155dee5989a",
    ("battery8", "5/8"): "16a266527c50d686f2bf3693e11449719d58638c79ed5811950441c9d90571d4",
    ("battery8", "3/4"): "3b9c78d7314beb3c8c8dc158005600a853610dd4c25f788b847e5e38b343a201",
    ("battery8", "7/8"): "9563b3fdf201703ed39fece200b8705cc03d08b31a88c82bb393bd360bd47055",
    ("battery8", "1"): "756ba292987f4514042d33c00ce01b3d6481397f51b3615db03cb149a86e90d1",
}


@pytest.mark.parametrize("spec,value", sorted(GOLDEN_DPW))
def test_dpw_golden(spec, value):
    # Safra's trees and their exploration order fix the DPW's numbering, and
    # the numbering breaks ties in every later analysis.
    text, atoms = GOLDEN_FORMULAS[spec]
    nbw = ltl_to_nbw(booleanize(parse(text), EqualTo(Fraction(value))), frozenset(atoms))
    assert _dpw_table_sha(determinize(nbw)) == GOLDEN_DPW[(spec, value)]


def _random_automata_draws():
    """300 seeded random formulas with until over {a, b}, each with a
    predicate."""
    rng = random.Random(8)
    predicates = [AtLeast, GreaterThan, EqualTo]
    thresholds = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for _ in range(300):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 10))
        yield f, rng.choice(predicates)(rng.choice(thresholds))


def test_random_automata_digest():
    # One digest over the NBW and DPW tables of seeded random formulas with
    # until, recorded when the tableau began to prune vacuous obligation
    # sets and to number nodes in creation order.
    ab = frozenset({"a", "b"})
    digest = hashlib.sha256()
    for f, predicate in _random_automata_draws():
        nbw = ltl_to_nbw(booleanize(f, predicate), ab)
        digest.update(_transition_table_sha(nbw).encode())
        digest.update(_dpw_table_sha(determinize(nbw)).encode())
    assert digest.hexdigest() == \
        "863f3523202c95a3c9b3330d6f2c6d7e1c1d932e57d9766dec2c6af4eae939d8"


@pytest.mark.parametrize("spec", sorted(GOLDEN_FORMULAS) + ["until_o"])
def test_determinize_matches_the_plain_construction(spec):
    # Every value automaton of the worked examples, gf2, until7 and until_o
    # comes out of the two-pass merge as out of the plain Safra step, which
    # also checks the invariants the passes rely on in every tree it meets.
    if spec == "until_o":
        with open(os.path.join(INPUTS, "until_o.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        text, atoms = doc["formula"], doc["inputs"] + doc["outputs"]
    else:
        text, atoms = GOLDEN_FORMULAS[spec]
    f = parse(text)
    for v in candidate_values(f):
        nbw = ltl_to_nbw(booleanize(f, EqualTo(v)), frozenset(atoms))
        assert_same_dpw(determinize(nbw), plain_determinize(nbw))


def test_determinize_matches_the_plain_construction_on_random_nbws():
    # Random Buchi automata, unlike the tableau's, put fair edges anywhere
    # and leave states without successors on some letters.
    rng = random.Random(16)
    ab = frozenset({"a", "b"})
    states = 0
    for _ in range(300):
        nbw = random_nbw(rng, ab, rng.randint(1, 7))
        want = plain_determinize(nbw)
        assert_same_dpw(determinize(nbw), want)
        states += want.n_states
    assert states > 3000


@pytest.mark.parametrize("extra", ["aa", "c"], ids=["between", "last"])
def test_unmentioned_atom_keeps_the_dpw(extra):
    # An atom the formula does not mention doubles the alphabet; letters
    # differing in it have one successor row, so determinization steps them
    # as one class.  The DPW keeps its states and ranks, and each letter
    # goes where the letter without the atom goes.  The atom "aa" sorts
    # between a and b, so the two alphabets also order their letters apart.
    ab = frozenset({"a", "b"})
    for f, predicate in _random_automata_draws():
        beta = booleanize(f, predicate)
        dpw = determinize(ltl_to_nbw(beta, ab))
        wide = determinize(ltl_to_nbw(beta, ab | {extra}))
        assert wide.n_states == dpw.n_states
        assert wide.rank == dpw.rank
        for (q, letter), t in wide.trans.items():
            assert t == dpw.trans[(q, letter - {extra})]


# --- one tableau per formula ---------------------------------------------

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "bench", "inputs")


def _bench_formulas():
    """(formula, alphabet) of every spec under bench/inputs."""
    out = []
    for name in sorted(os.listdir(INPUTS)):
        with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "formula" in doc:  # not a controller
            out.append((parse(doc["formula"]), frozenset(doc["inputs"] + doc["outputs"])))
    return out


def _predicates(f):
    """The value predicates of f's candidate values, and two thresholds."""
    return [EqualTo(v) for v in candidate_values(f)] + \
        [AtLeast(Fraction(1, 2)), AtLeast(Fraction(1))]


def _fresh_dpw(f, predicate, atoms):
    return determinize(ltl_to_nbw(booleanize(f, predicate), atoms))


def _same_dpw(got, want):
    return (got.n_states, got.trans, got.rank) == (want.n_states, want.trans, want.rank)


@pytest.fixture
def fresh_dpw_for(monkeypatch):
    """`dpw_for` with an empty cache and a new scope, so no shared tableau."""
    monkeypatch.setattr(automata, "_dpw_cache", {})
    SCOPE.serve(None)
    return dpw_for


def test_dpw_for_does_not_depend_on_history(fresh_dpw_for):
    # The automata of one formula share a tableau whose node ids follow the
    # order they were built in.  Their DPWs must not: build every formula's
    # automata in a shuffled order, interleaved with another formula's, with
    # the cache cleared now and then, and compare with builds of their own.
    ab = frozenset({"a", "b"})
    groups = [(f, ab) for f, _ in _random_automata_draws()] + _bench_formulas()
    rng = random.Random(13)
    want: dict = {}
    for f, atoms in groups:
        g, g_atoms = rng.choice(groups)
        jobs = [(f, atoms, p) for p in _predicates(f)] + \
            [(g, g_atoms, p) for p in _predicates(g)]
        rng.shuffle(jobs)
        for h, h_atoms, predicate in jobs:
            if rng.random() < 0.3:
                automata._dpw_cache.clear()
            key = (id(h), predicate)
            if key not in want:
                want[key] = _fresh_dpw(h, predicate, h_atoms)
            assert _same_dpw(fresh_dpw_for(h, predicate, h_atoms), want[key]), (str(h), predicate)


def _alone(f, predicate, atoms):
    """(NBW states, DPW states, memo entries) of an automaton built on a
    tableau of its own."""
    tableau = automata.Tableau(atoms)
    nbw = ltl_to_nbw(booleanize(f, predicate), atoms, tableau=tableau)
    return len(nbw), len(determinize(nbw)), tableau.memo_size()


def test_tableau_memos_count_against_the_ceiling(fresh_dpw_for):
    f, predicate = parse("G F i & (i U o)"), AtLeast(Fraction(1))
    nbw_states, dpw_states, memos = _alone(f, predicate, CEILING_IO)
    ceiling = max(nbw_states, dpw_states)
    assert memos > ceiling
    beta = booleanize(f, predicate)
    # the memos of a call's own tableau die with it
    assert len(ltl_to_nbw(beta, CEILING_IO, ceiling)) == nbw_states
    with pytest.raises(StateLimitExceeded) as info:
        ltl_to_nbw(beta, CEILING_IO, ceiling, automata.Tableau(CEILING_IO))
    assert info.value.what == automata.TABLEAU_MEMOS
    with pytest.raises(StateLimitExceeded) as info:
        fresh_dpw_for(f, predicate, CEILING_IO, ceiling=ceiling)
    assert info.value.what == automata.TABLEAU_MEMOS
    assert _same_dpw(fresh_dpw_for(f, predicate, CEILING_IO, ceiling=memos),
                     _fresh_dpw(f, predicate, CEILING_IO))


def test_interrupted_builds_leave_no_partial_memo(fresh_dpw_for):
    # Builds cut short at many points, by the memos or by the states, leave
    # the shared tableau fit for the next build with a higher ceiling.
    text, atoms = GOLDEN_FORMULAS["message"]
    f, atoms = parse(text), frozenset(atoms)
    failed = set()
    for v in candidate_values(f):
        for ceiling in range(2, 80, 7):
            automata._dpw_cache.clear()
            try:
                fresh_dpw_for(f, EqualTo(v), atoms, ceiling=ceiling)
            except StateLimitExceeded as exc:
                failed.add(exc.what)
            assert _same_dpw(fresh_dpw_for(f, EqualTo(v), atoms),
                             _fresh_dpw(f, EqualTo(v), atoms))
    assert failed == {automata.TABLEAU_MEMOS, "tableau automaton"}


def test_earlier_automata_do_not_fail_a_build(fresh_dpw_for):
    # Under a ceiling every value automaton fits alone, the memos of the
    # automata before it fill the shared tableau; it then starts a new one.
    text, atoms = GOLDEN_FORMULAS["battery8"]
    f, atoms = parse(text), frozenset(atoms)
    ceiling = max(max(_alone(f, EqualTo(v), atoms)) for v in candidate_values(f))
    tableaux = []
    for v in candidate_values(f):
        dpw = fresh_dpw_for(f, EqualTo(v), atoms, ceiling=ceiling)
        assert _same_dpw(dpw, _fresh_dpw(f, EqualTo(v), atoms))
        if SCOPE.tableau not in tableaux:
            tableaux.append(SCOPE.tableau)
    assert len(tableaux) > 1


def test_one_cover_counts_against_the_ceiling(fresh_dpw_for, monkeypatch):
    # The initial state of this formula has 2^18 cover branches.  They count
    # against the ceiling while they are composed, so the build stops early
    # instead of composing them all first.
    monkeypatch.setenv("HQSYNTH_STATE_CEILING", "5000")
    f = parse(" & ".join(f"({'X ' * i}a | {'X ' * i}b)" for i in range(1, 19)))
    t0 = time.perf_counter()
    with pytest.raises(StateLimitExceeded) as info:
        fresh_dpw_for(f, EqualTo(Fraction(1)), frozenset({"a", "b"}))
    assert time.perf_counter() - t0 < 1.0
    assert info.value.what == automata.TABLEAU_MEMOS


# --- hash-consed Boolean formulas ---------------------------------------


def _nodes_of(*trees):
    """{id: node} of every node of the Boolean formulas, shared ones once."""
    out: dict = {}
    stack = list(trees)
    while stack:
        e = stack.pop()
        if id(e) not in out:
            out[id(e)] = e
            stack.extend(e.children())
    return out


def test_value_trees_share_equal_nodes():
    # The Boolean formulas of one formula's value predicates are hash-consed:
    # structurally equal nodes are one object, however many trees hold them.
    # They are still the right formulas: each holds on a word exactly when
    # the formula's value there meets the predicate.
    rng = random.Random(15)
    groups = [(f, [p] + _predicates(f), ["a", "b"], 2) for f, p in _random_automata_draws()]
    groups += [(f, _predicates(f), sorted(atoms), 4) for f, atoms in _bench_formulas()]
    for f, predicates, atoms, words in groups:
        trees = [booleanize(f, p) for p in predicates]
        nodes = _nodes_of(*trees).values()
        assert len(set(nodes)) == len(nodes), str(f)
        for _ in range(words):
            w = random_lasso(rng, atoms)
            value = eval_lasso(f, w)
            for p, beta in zip(predicates, trees):
                assert eval_lasso(bexpr_to_formula(beta), w) == p.holds(value), (str(f), p)


def test_add_walks_each_shared_node_once():
    # battery8's nine value automata on one tableau: the walk memo of `add`
    # gets one entry per structurally distinct (node, negated) pair, so no
    # pair is walked twice, in one formula or across them.
    text, atoms = GOLDEN_FORMULAS["battery8"]
    f, atoms = parse(text), frozenset(atoms)
    tableau = automata.Tableau(atoms)
    vs = candidate_values(f)
    for v in vs:
        ltl_to_nbw(booleanize(f, EqualTo(v)), atoms, tableau=tableau)
    nodes = _nodes_of(*tableau.held)
    pairs = {(nodes[i], negated) for i, negated in tableau.made}
    assert len(vs) == 9
    assert len(pairs) == len(tableau.made)


def test_intern_table_goes_with_the_formula():
    # The intern table lives as long as `booleanize`'s memo: the predicates
    # of one formula share it, and booleanizing another formula drops it.
    f, g = parse("a U (b & X a)"), parse("F a")
    beta = booleanize(f, AtLeast(Fraction(1)))
    table = SCOPE.nodes
    assert booleanize(f, EqualTo(Fraction(0))) is bnot(beta)
    assert SCOPE.nodes is table and table
    booleanize(g, AtLeast(Fraction(1)))
    assert SCOPE.nodes is not table
    assert sys.getrefcount(table) == 2  # `table` and the argument
    again = booleanize(parse("a U (b & X a)"), AtLeast(Fraction(1)))
    assert again == beta and again is not beta


def test_the_whole_scope_goes_with_its_formula(fresh_dpw_for):
    # The memos, the intern table and the tableau of a formula go together
    # when another formula is booleanized, and a new alphabet starts a new
    # tableau in the same scope.
    f, g, predicate = parse("a U (b & X a)"), parse("F a"), AtLeast(Fraction(1))
    ab, abc = frozenset({"a", "b"}), frozenset({"a", "b", "c"})
    fresh_dpw_for(f, predicate, ab)
    memo, table, tableau = SCOPE.memo, SCOPE.nodes, weakref.ref(SCOPE.tableau)
    assert memo and table and tableau().covers
    booleanize(g, predicate)
    assert tableau() is None and SCOPE.tableau is None
    assert SCOPE.memo is not memo and SCOPE.nodes is not table and SCOPE.formula is g
    automata._dpw_cache.clear()
    fresh_dpw_for(f, predicate, ab)
    first = SCOPE.tableau
    assert first.atoms == ab and SCOPE.formula is f
    assert _same_dpw(fresh_dpw_for(f, predicate, abc), _fresh_dpw(f, predicate, abc))
    assert SCOPE.tableau is not first and SCOPE.tableau.atoms == abc


def test_dpw_cache_is_bounded_and_least_recently_used(monkeypatch):
    monkeypatch.setattr(automata, "_dpw_cache", {})
    ab = frozenset({"a", "b"})
    first = dpw_for(Atom("a"), EqualTo(Fraction(0)), ab)
    for k in range(1, automata.DPW_CACHE_SIZE + 50):
        if k % 100 == 0:
            # a hit makes the first automaton the most recently used
            assert dpw_for(Atom("a"), EqualTo(Fraction(0)), ab) is first
        dpw_for(Atom("a"), EqualTo(Fraction(k, 1000)), ab)
        assert len(automata._dpw_cache) <= automata.DPW_CACHE_SIZE
    assert len(automata._dpw_cache) == automata.DPW_CACHE_SIZE
    assert dpw_for(Atom("a"), EqualTo(Fraction(0)), ab) is first
    built = []
    monkeypatch.setattr(automata, "determinize",
                        lambda *args: built.append(args) or determinize(*args))
    dpw_for(Atom("a"), EqualTo(Fraction(1, 1000)), ab)  # evicted long ago
    assert len(built) == 1


def test_synth_then_eval_hits_the_dpw_cache(monkeypatch, tmp_path, capsys):
    from hqsynth.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"inputs": ["i"], "outputs": ["o"],
                                "formula": "wavg{1/2}(G F max(i, o), X (o U i))"}))
    ctrl = tmp_path / "ctrl.json"
    assert main(["synth", str(spec), "--out", str(ctrl)]) == 0
    built = []
    monkeypatch.setattr(automata, "determinize",
                        lambda *args: built.append(args) or determinize(*args))
    for mode in ("expected", "almost-sure", "worst-case"):
        assert main(["eval", str(spec), str(ctrl), "--mode", mode]) == 0
    assert built == []
    capsys.readouterr()


def test_deep_formula_tableau():
    # A 1500-deep alternating chain: the tableau and Safra's construction
    # must not recurse on the formula's depth.
    e = BAtom("a")
    for i in range(1500):
        e = band(bnext(BAtom("a")), e) if i % 2 == 0 else bor(BAtom("b"), e)
    nbw = ltl_to_nbw(e)
    assert len(nbw) == 3
    assert len(determinize(nbw)) == 5


def test_deep_vacuity_requests_do_not_recurse():
    # Every next-step operand of this 400-deep chain is a vacuity request
    # made while an expansion is composed, inside the expansion of the next
    # one down: expansions, covers and vacuity share one explicit stack.
    a, b = BAtom("a"), BAtom("b")
    e = a
    for _ in range(400):
        e = band(bnext(e), bor(a, bnext(bnot(b))))
    t0 = time.perf_counter()
    nbw = ltl_to_nbw(band(e, bnext(b)))
    assert time.perf_counter() - t0 < 2.0
    assert len(nbw) == 801
    assert len(determinize(nbw)) == 802


# --- the value automata with less work, against the plain way ------------


def _pruning_until_formulas():
    """The formulas with until that `TestPruning` draws, over {a, b}."""
    rng = random.Random(307)
    out = []
    while len(out) < 150:
        f = random_formula(rng, ["a", "b"], rng.randint(3, 9))
        if _has_until(f):
            out.append(f)
            for _ in range(5):
                random_lasso(rng, ["a", "b"])
    return out


VACUITY_GROUPS = {
    "random": lambda: [(f, frozenset({"a", "b"})) for f, _ in _random_automata_draws()],
    "until": lambda: [(f, frozenset({"a", "b"})) for f in _pruning_until_formulas()],
    "bench": _bench_formulas,
}


@pytest.mark.parametrize("group", sorted(VACUITY_GROUPS))
def test_vacuity_cores_match_the_plain_recursion(group):
    # Every set the vacuity test decides while the automata of every
    # candidate value are built on one tableau (the singletons and pairs
    # asked while covers are composed, and whole next-step sets) gets the
    # answer of the recursion through covers alone.  Reading covers adds
    # answers, so the loop reads a copy.
    decided = 0
    for f, atoms in VACUITY_GROUPS[group]():
        tableau = automata.Tableau(atoms)
        for v in candidate_values(f):
            ltl_to_nbw(booleanize(f, EqualTo(v)), atoms, tableau=tableau)
        plain = plain_vacuity(tableau.covers_of(), tableau.weak)
        for obls, got in list(tableau.vacuous_sets.items()):
            assert plain(obls) == got, (str(f), bin(obls))
        decided += len(tableau.vacuous_sets)
    assert decided > 200


@pytest.mark.parametrize("group", sorted(VACUITY_GROUPS))
def test_pruned_covers_are_exact(group):
    # Every cover of a tableau that built the automata of every candidate
    # value is the cover of an unpruned tableau over the same nodes, less the
    # branches whose weakened next-step set the recursion through unpruned
    # covers finds vacuous, in the same order.
    kept = dropped = 0
    for f, atoms in VACUITY_GROUPS[group]():
        tableau = automata.Tableau(atoms)
        unpruned = automata.Tableau(atoms, prune=False)
        for v in candidate_values(f):
            beta = booleanize(f, EqualTo(v))
            ltl_to_nbw(beta, atoms, tableau=tableau)
            unpruned.add(beta)
        assert unpruned.kind == tableau.kind and unpruned.args == tableau.args
        weak = tableau.weak
        cover = unpruned.covers_of()
        plain = plain_vacuity(cover, weak)
        for obls, branches in list(tableau.covers.items()):
            want = cover(obls)
            assert branches == tuple(b for b in want if not plain(b[2] & weak)), \
                (str(f), bin(obls))
            kept += len(branches)
            dropped += len(want) - len(branches)
    assert kept > 200 and dropped > 0


def test_values_decided_on_the_buchi_automaton(fresh_dpw_for):
    # `values` keeps the candidates whose Buchi automaton has a fair cycle;
    # the parity search on the determinized automaton keeps the same ones.
    ab = frozenset({"a", "b"})
    dropped = 0
    for f, _ in _random_automata_draws():
        got = values(f, ab)
        assert got == dpw_decided_values(f, ab), str(f)
        dropped += len(candidate_values(f)) - len(got)
    assert dropped > 0


def test_dpw_for_remembers_an_empty_verdict(monkeypatch, fresh_dpw_for):
    f, ab = parse("a & X !a & X a"), frozenset({"a"})
    assert candidate_values(f) == [0, 1]
    calls = {"ltl_to_nbw": 0, "determinize": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(automata, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(automata, name, counted)
    assert values(f, ab) == [0]
    assert calls == {"ltl_to_nbw": 2, "determinize": 1}
    assert values(f, ab) == [0]
    assert calls == {"ltl_to_nbw": 2, "determinize": 1}
    # asked for the automaton itself, the cache builds it next to the verdict
    dpw = fresh_dpw_for(f, EqualTo(Fraction(1)), ab)
    assert not dpw_nonempty_from(dpw, dpw.initial)
    assert _same_dpw(dpw, _fresh_dpw(f, EqualTo(Fraction(1)), ab))
    assert fresh_dpw_for(f, EqualTo(Fraction(1)), ab, nonempty=True) is None
    assert fresh_dpw_for(f, EqualTo(Fraction(1)), ab) is dpw
    assert calls == {"ltl_to_nbw": 3, "determinize": 2}


def test_tableau_memo_bound_counts_branches(monkeypatch, fresh_dpw_for):
    # The value-0 automaton of the 10-level chain has 1024 states, but the
    # branches its memos hold run to about 7 * 10^5.
    monkeypatch.setenv("HQSYNTH_STATE_CEILING", "20000")
    f, ab = parse("b U (" * 10 + "a" + ")" * 10), frozenset({"a", "b"})
    with pytest.raises(StateLimitExceeded) as info:
        fresh_dpw_for(f, EqualTo(Fraction(0)), ab)
    assert info.value.what == automata.TABLEAU_MEMOS
    # a call on a tableau of its own counts states only
    assert len(ltl_to_nbw(booleanize(f, EqualTo(Fraction(0))), ab)) == 1024


# --- lasso search ----------------------------------------------------------


def _random_labelled_graphs():
    """3000 seeded random graphs with ranks, as (initial, successor lists,
    ranks); the label of an edge is its position in its successor list, and
    successor lists repeat targets, loop and may be empty."""
    rng = random.Random(2718)
    for _ in range(3000):
        n = rng.randint(1, 8)
        targets = [[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
        yield rng.randrange(n), targets, [rng.randint(1, 4) for _ in range(n)]


def test_parity_lasso_digest():
    # One digest over the lassos `parity_lasso` returns on seeded random
    # graphs, recorded when the prefix and cycle searches were two searches;
    # each lasso is replayed as well.
    digest = hashlib.sha256()
    found = 0
    for init, targets, rank in _random_labelled_graphs():
        lasso = parity_lasso(init, lambda x: list(enumerate(targets[x])),
                             rank.__getitem__)
        digest.update(repr(lasso).encode())
        if lasso is None:
            continue
        found += 1
        prefix, cycle = lasso
        u = init
        for lab in prefix:
            u = targets[u][lab]
        x, seen = u, []
        for lab in cycle:
            x = targets[x][lab]
            seen.append(rank[x])
        assert cycle and x == u and max(seen) % 2 == 0 and max(seen) == rank[u]
    assert found > 1000
    assert digest.hexdigest() == \
        "428624d1682f9c4ba984a26d819d25f19f8b59a454cd7bf115028508646b27cf"
