"""The nine acceptance checks, one test per criterion.

Each test prints a single PASS line on success (visible with -s); the
verbose test listing doubles as the pass/fail report.
"""
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import eqsketch
from eqsketch.cli import main as cli_main
from eqsketch.core import (Specification, SpecMorphism, iso_search,
                           spec_equal, validate, validate_morphism)
from eqsketch.decorate import purify, undecorate
from eqsketch.errors import SearchSpaceTooLarge
from eqsketch.inference import (STRUCTURAL_RULES, TriState, is_entailment,
                                rule, apply_rule, terms_equal)
from eqsketch.models import (UNIT_ELEMENT, FiniteModel, base_types,
                             check_model, derived_carriers,
                             enumerate_models, exactness_check, is_terminal,
                             pass_parameter, terminal_model)
from eqsketch.parameterize import (check_ell_natural,
                                   check_param_restricts_to_embed, ell,
                                   parameterize)
from eqsketch.sketch import (check_realization, equational_sketch,
                             realization_to_spec, spec_to_realization)

from conftest import CORPUS, DECORATED, complete_tables, criterion_5_cases


def _elapsed(t0, limit):
    dt = time.time() - t0
    assert dt < limit, f"took {dt:.1f}s, limit {limit}s"
    return dt


def test_criterion_1_realization_round_trip():
    t0 = time.time()
    sk = equational_sketch()
    assert len(CORPUS) >= 10
    for name, mk in CORPUS.items():
        s = mk()
        r = spec_to_realization(s)
        assert check_realization(sk, r) == [], name
        back = realization_to_spec(r)
        assert bool(iso_search(s, back)), name
    _elapsed(t0, 5)
    print(f"PASS criterion 1: {len(CORPUS)} specs round-trip through the sketch")


def test_criterion_2_rule_engine():
    t0 = time.time()
    for tag in STRUCTURAL_RULES:
        r = rule(tag)
        h = r.hypothesis.copy()
        ident = {x: x for x in h.types}
        m = SpecMorphism(r.hypothesis, h, ident, {t: t for t in h.terms})
        once, emb = apply_rule(r, h, m)
        assert validate_morphism(emb) == []
        assert bool(iso_search(once, r.extension)), tag
        m2 = SpecMorphism(r.hypothesis, once, ident, {t: t for t in h.terms})
        twice, _ = apply_rule(r, once, m2)
        assert bool(iso_search(once, twice)), tag
    _elapsed(t0, 5)
    print("PASS criterion 2: all 6 rules produce the generic extension, idempotently")


def test_criterion_3_entailment_iff_equation():
    t0 = time.time()
    # positive: the target's extra equation follows from the source's
    s1 = Specification()
    s1.add_type("X")
    s1.add_term("f", "X", "X")
    s1.add_term("g", "X", "X")
    s1.add_equation("f", "g")
    s = s1.copy()
    s.add_term("ff", "X", "X")
    s.compositions[("f", "f")] = "ff"
    s.add_term("fg", "X", "X")
    s.compositions[("f", "g")] = "fg"
    s.add_equation("ff", "fg")
    tau = SpecMorphism(s1, s, {"X": "X"}, {t: t for t in s1.terms})
    assert is_entailment(tau, depth=2).state is TriState.EQUAL

    # negative: the equation does not hold in the source
    n1 = Specification()
    n1.add_type("X")
    n1.add_term("f", "X", "X")
    n1.add_term("g", "X", "X")
    n = n1.copy()
    n.add_equation("f", "g")
    tau_n = SpecMorphism(n1, n, {"X": "X"}, {"f": "f", "g": "g"})
    v = is_entailment(tau_n, depth=2)
    assert v.state is TriState.DISTINCT_AT_BOUND
    cm = v.countermodel
    assert cm is not None and len(cm.carriers["X"]) == 2
    restricted = FiniteModel({x: cm.carriers[x] for x in n1.types},
                             {t: cm.functions[t] for t in n1.terms})
    assert check_model(n1, restricted) == []
    assert any(cm.apply("f", x) != cm.apply("g", x) for x in cm.carriers["X"])
    _elapsed(t0, 5)
    print("PASS criterion 3: entailment iff the equation holds, countermodel verified")


def test_criterion_4_param_restricts_to_embedding():
    t0 = time.time()
    for name, mk in CORPUS.items():
        s = mk()
        assert check_param_restricts_to_embed(s), name
        assert spec_equal(undecorate(purify(s)), s), name
    _elapsed(t0, 5)
    print("PASS criterion 4: parameterizing the all-pure decoration matches the plain embedding")


def test_criterion_5_ell_naturality():
    t0 = time.time()
    cases = criterion_5_cases()
    assert len(cases) >= 10
    for label, d1, d2, u in cases:
        assert validate_morphism(u) == [], label
        assert check_ell_natural(d1, d2, u, depth=4), label
    _elapsed(t0, 10)
    print(f"PASS criterion 5: parameter passing natural for {len(cases)} morphisms")


def _m0():
    return FiniteModel({"U": (UNIT_ELEMENT,), "X": (0, 1)}, {"e": {(): 0}})


def test_criterion_6_passing_matches_pointwise_evaluation():
    t0 = time.time()
    d = DECORATED["endo"]()
    par = parameterize(d)
    m_a, _exts = terminal_model(d, _m0(), {"X": (0, 1)}, par=par)
    res = ell(d, par=par)
    ext = res.target
    checks = 0
    for alpha in m_a.carriers[par.spec.parameter_type]:
        passed = pass_parameter(d, par, m_a, alpha)
        assert check_model(undecorate(d), passed) == []
        # independent evaluation: interpret the substituted composite in
        # the extension, seeding only the parameterized tables and alpha
        carriers = derived_carriers(ext, {x: m_a.carriers[x]
                                          for x in base_types(ext)})
        fns = {t: dict(tab) for t, tab in m_a.functions.items()}
        fns[res.constant] = {UNIT_ELEMENT: alpha}
        ok = complete_tables(ext, carriers, fns)
        assert ok
        img = res.morphism.term_map["s"]
        for x in (0, 1):
            assert passed.apply("s", x) == fns[img][x]
            checks += 1
    assert checks == 8
    _elapsed(t0, 5)
    print("PASS criterion 6: passing equals evaluation along the substitution (8 checks)")


def test_criterion_7_exactness_counts():
    t0 = time.time()
    cases = [
        ("endo", DECORATED["endo"](), _m0(), {"X": (0, 1)}, 4),
        ("idempotent", DECORATED["idempotent"](), _m0(), {"X": (0, 1)}, 3),
        ("two_ops", DECORATED["two_ops"](),
         FiniteModel({"X": (0, 1)}, {}), {"X": (0, 1)}, 16),
    ]
    for label, d, m0, base, expected in cases:
        rep = exactness_check(d, m0, base)
        assert rep.parameter_count == expected, label
        assert rep.model_count == expected, label
        assert rep.exact, label
        par = parameterize(d)
        m_a, _ = terminal_model(d, m0, base, par=par)
        assert is_terminal(d, m_a, m0, base, bound=2, par=par), label
    _elapsed(t0, 30)
    print("PASS criterion 7: exactness 4=4, 3=3, 16=16 with terminality at bound 2")


def test_criterion_8_soundness_bridge():
    t0 = time.time()
    checked = 0
    for name, mk in CORPUS.items():
        s = mk()
        pairs = [(a, b) for a, b in
                 itertools.combinations(sorted(s.terms), 2)
                 if s.parallel(a, b)]
        verdicts = {p: terms_equal(s, p[0], p[1], depth=3) for p in pairs}
        equal_pairs = [p for p, v in verdicts.items()
                       if v.state is TriState.EQUAL]
        if not pairs:
            continue
        base = base_types(s)
        for sizes in itertools.product((1, 2, 3), repeat=len(base)):
            carriers = {x: tuple(range(k)) for x, k in zip(base, sizes)}
            try:
                models = enumerate_models(s, carriers, cap=300000)
            except SearchSpaceTooLarge:
                continue
            for m in models:
                for (a, b) in equal_pairs:
                    for x in m.carriers[s.terms[a].dom]:
                        assert m.apply(a, x) == m.apply(b, x), (name, a, b)
                        checked += 1
    _elapsed(t0, 60)
    print(f"PASS criterion 8: derived equalities hold in all small models "
          f"({checked} pointwise checks)")


ENDO_TEXT = """\
decorated
unit U
type X
term pure e : U -> X
term s : X -> X
"""


def _criterion_9_commands(tmp_path):
    p = tmp_path / "endo.spec"
    p.write_text(ENDO_TEXT)
    small = tmp_path / "small.spec"
    small.write_text("type X\nterm u : X -> X\n")
    big = tmp_path / "big.spec"
    big.write_text("type X\nterm u : X -> X\ncompose uu = u . u\n")
    return [
        ["validate", str(p)],
        ["meta-check", str(p)],
        ["saturate", str(small), "--depth", "1", "--trace"],
        ["entail", str(small), str(big), "--depth", "2"],
        ["param", str(p)],
        ["ell", str(p)],
        ["models", str(small), "--X=2"],
        ["pass", str(p), "--X=2", "--alpha", "1"],
        ["terminal", str(p), "--X=2", "--bound", "1"],
        ["exact", str(p), "--X=2"],
    ]


def test_criterion_9_cli_determinism(tmp_path):
    commands = _criterion_9_commands(tmp_path)
    for argv in commands:
        outs = []
        for _ in range(3):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli_main(list(argv))
            outs.append((rc, buf.getvalue()))
        assert outs[0] == outs[1] == outs[2], argv
    print(f"PASS criterion 9: {len(commands)} CLI commands byte-identical over 3 runs")


# runs each command of argv[1] through the CLI, then validates a spec with
# two equations between terms that are not parallel, and prints every
# exit code, stdout and stderr as JSON
_UNDER_SEED = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from eqsketch.cli import main
from eqsketch.core import Specification, validate
outs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        outs.append([main(argv), out.getvalue(), err.getvalue()])
s = Specification()
for x in ("X", "Y"):
    s.add_type(x)
for t, dom, cod in (("f", "X", "Y"), ("g", "Y", "X"), ("h", "X", "X")):
    s.add_term(t, dom, cod)
s.equations |= {("f", "g"), ("g", "h")}
outs.append(validate(s))
print(json.dumps(outs))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # validate_morphism's and validate's errors followed the order of the
    # spec's sets: seeds 1 and 8 listed the unmapped types Z, Y and Y, Z,
    # and the equations (g,h), (f,g) and (f,g), (g,h)
    source, target = tmp_path / "source.spec", tmp_path / "target.spec"
    source.write_text("type X\ntype Y\ntype Z\nterm a : X -> Y\n")
    target.write_text("type X\n")
    commands = _criterion_9_commands(tmp_path) + [["entail", str(source), str(target)]]
    src = str(Path(eqsketch.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "8"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", _UNDER_SEED, json.dumps(commands)],
                             capture_output=True, text=True, env=env, timeout=300)
        assert res.returncode == 0, res.stderr
        outs.append(json.loads(res.stdout))
    assert outs[0] == outs[1]
    assert outs[0][-2][:2] == [1, "inclusion: type Y not mapped to a target type; "
                                  "type Z not mapped to a target type; "
                                  "term a not mapped to a target term\n"]
    assert outs[0][-1] == ["equation (f,g): terms not parallel",
                           "equation (g,h): terms not parallel"]
