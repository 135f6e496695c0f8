"""Tests of the benchmark's own references and input generation.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each closed form is checked against the brute-force enumerator on the
smallest rungs, and the same seed must give the same inputs.
"""
import itertools
import json
import random
from pathlib import Path

import pytest

import oracles as O
import workloads as W


def names(seed=0):
    return W.Names(random.Random(seed))


def count(sig, k):
    return len(O.models_of(sig, {x: tuple(range(k)) for x in sig.base_types()}))


@pytest.mark.parametrize("k", [1, 2])
def test_corpus_counts_match_brute_force(k):
    for name, sig in W.corpus(names()).items():
        assert count(sig, k) == W.corpus_count(name, k), name


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unital_magmas_and_idempotents(k):
    if k <= 2:
        assert count(W.monoid_core(names())[0], k) == O.count_unital_magmas(k)
    idem = sum(all(f[f[x]] == f[x] for x in range(k))
               for f in itertools.product(range(k), repeat=k))
    assert idem == O.count_idempotent_maps(k)
    assert O.count_unital_magmas(2) == 4 and O.count_unital_magmas(3) == 243


@pytest.mark.parametrize("k", [1, 2])
def test_decorated_counts_match_brute_force(k):
    for kind in ("endo", "idempotent", "two_ops"):
        sig = W.decorated(names(), kind)
        assert count(sig, k) == W.full_count(kind, k), kind
        pure = sorted(sig.pure)
        for m0 in {tuple((t, tuple(sorted(fn[t].items()))) for t in pure)
                   for fn in O.models_of(sig, {x: tuple(range(k)) for x in sig.base_types()})}:
            fixed = {t: dict(tab) for t, tab in m0}
            base = {x: tuple(range(k)) for x in sig.base_types()}
            assert len(O.models_of(sig, base, fixed=fixed)) == W.extension_count(kind, k)


def test_self_referential_mark_counts():
    sig = W.self_referential()
    assert [count(sig, k) for k in (1, 2, 3)] == [1, 6, 87]
    assert [W.self_referential_count(k) for k in (1, 2, 3)] == [1, 6, 87]
    assert O.separating_model(sig, "g", "c") is not None


@pytest.mark.parametrize("k,depth", [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2)])
def test_saturated_term_count(k, depth):
    # every composable pair of terms of depth < d gives one term of depth <= d
    homs = {("X", "X"): k + 1, ("X", "One"): 1, ("One", "One"): 2}
    cur = dict(homs)
    for _ in range(depth):
        nxt = dict(homs)
        for (a, b), n in cur.items():
            for (c, d), m in cur.items():
                if b == c:
                    nxt[(a, d)] = nxt.get((a, d), 0) + n * m
        cur = nxt
    assert sum(cur.values()) == O.saturated_endo_terms(k, depth)
    assert O.saturated_endo_terms(1, 2) == 137 and O.saturated_endo_terms(4, 2) == 1232


def test_word_classes():
    for k in (1, 2, 3):
        words = {w for n in range(5) for w in itertools.product(range(k), repeat=n)}
        assert O.endo_word_classes(k, 4) == len(words) + 2


def test_normaliser():
    s = O.Sig()
    x = s.type("X")
    a = s.term("s", x, x)
    aa = s.compose("ss", a, a)
    s.eq(aa, a)
    s.compose("sss", a, aa)
    norm = O.Normaliser(s)
    assert norm.nf("sss") == norm.nf("s") != O.VAR
    p = O.Sig()
    x, y1, y2 = p.type("X"), p.type("Y1"), p.type("Y2")
    p.product("P", y1, y2, "p1", "p2")
    p.term("f", x, y1), p.term("g", x, y2), p.term("h", x, "P")
    p.tuple("t", "f", "g")
    p.compose("b", "p1", "t")
    p.tuple("e", p.compose("a1", "p1", "h"), p.compose("a2", "p2", "h"))
    norm = O.Normaliser(p)
    assert norm.nf("b") == norm.nf("f") and norm.nf("e") == norm.nf("h")
    assert norm.nf("a1") != norm.nf("f")


def test_separation_and_extensions():
    s = O.Sig()
    x = s.type("X")
    s.term("f", x, x), s.term("g", x, x)
    base, fn = O.separating_model(s, "f", "g")
    assert fn["f"] != fn["g"] and len(base["X"]) == 2
    t = O.Sig()
    t.type("X"), t.term("f", "X", "X"), t.term("g", "X", "X")
    t.eq("f", "g")
    assert O.count_extensions(s, t, fn, base) == 0


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def make(seed):
        sigs, meta = {}, {}
        W.GENERATORS[workload](random.Random(f"{workload}/{seed}"), sigs, meta)
        return {n: s.text() for n, s in sigs.items()}, repr(meta)

    assert make(7) == make(7)
    other = make(8)
    assert other != make(7)
    assert sorted(other[0]) == sorted(make(7)[0])


def test_benchmark_json_lists_the_metrics():
    import sys
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import run
    import tracing
    E = run.load_eqsketch()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = [{"name": n, "unit": u, "better": b}
            for n, (u, b) in tracing.per_layer_metrics(E).items()]
    assert spec["per_layer"] == want
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
