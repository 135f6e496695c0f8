import io
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqsketch
from eqsketch import dsl
from eqsketch.cli import SATURATE_CAP, main
from eqsketch.core import Specification, spec_equal
from eqsketch.inference import saturate

from conftest import CORPUS, DECORATED

ENDO = """\
decorated
unit U
type X
term pure e : U -> X
term s : X -> X
"""

SMALL = "type X\nterm u : X -> X\n"
BIG = SMALL + "compose uu = u . u\n"
FREE = SMALL + "term k : X -> X\n"


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [("endo", ENDO), ("small", SMALL), ("big", BIG),
                       ("free", FREE)]:
        p = tmp_path / f"{name}.spec"
        p.write_text(text)
        out[name] = str(p)
    return out


def test_validate_ok(files):
    rc, out = run("validate", files["endo"])
    assert rc == 0 and "ok" in out


def test_validate_reports_failure(tmp_path):
    p = tmp_path / "bad.spec"
    p.write_text("type X\nterm f : X -> X\nterm g : X -> X\neq f = g\n")
    # parallel equation is fine; break purity closure instead
    p.write_text("decorated\nunit U\ntype X\nterm s : X -> X\n"
                 "term pure c : X -> X\ncompose sc = c . s\n")
    rc, out = run("validate", str(p))
    assert rc == 0  # closure keeps sc general: still valid


def test_meta_check(files):
    rc, out = run("meta-check", files["endo"])
    assert rc == 0
    assert "sketch valid: yes" in out


def test_meta_check_checks_each_realization_once(files, monkeypatch):
    calls = []
    original = eqsketch.sketch.check_realization

    def counted(sk, r):
        calls.append(r)
        return original(sk, r)

    # every binding of the function in the package, not only the module's own
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("eqsketch")
                and getattr(mod, "check_realization", None) is original):
            monkeypatch.setattr(mod, "check_realization", counted)
    rc, _ = run("meta-check", files["small"], files["endo"])
    assert rc == 0
    assert len(calls) == 2


def test_meta_check_spec_with_equation(tmp_path):
    # the sketch does not encode equations; the round trip is compared
    # with the spec without them
    p = tmp_path / "idem.spec"
    p.write_text("type X\nterm s : X -> X\ncompose ss = s . s\neq ss = s\n")
    rc, out = run("meta-check", str(p))
    assert rc == 0
    assert f"realization {p}: ok" in out


def _limit_address_space():
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_meta_check_many_parallel_terms_in_bounded_memory(tmp_path):
    p = tmp_path / "parallel.spec"
    p.write_text("type X\n" + "".join(f"term f{i} : X -> X\n" for i in range(11)))
    env = dict(os.environ, PYTHONPATH=str(Path(eqsketch.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-m", "eqsketch.cli", "meta-check", str(p)],
                         capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_limit_address_space)
    assert res.returncode == 0, res.stderr
    assert f"realization {p}: ok" in res.stdout


def test_entail_positive(files):
    rc, out = run("entail", files["small"], files["big"], "--depth", "2")
    assert rc == 0 and "equal" in out


def test_entail_negative_prints_countermodel(files):
    rc, out = run("entail", files["small"], files["free"], "--depth", "2")
    assert rc == 1
    assert "distinct-at-bound" in out
    assert "countermodel" in out


IDEM = SMALL + "compose uu = u . u\neq uu = u\n"
TWO = SMALL + "term v : X -> X\n"
COMM = TWO + "compose uv = v . u\ncompose vu = u . v\neq uv = vu\n"
# the countermodel is the least model of the source without a unique
# extension, so it lists the source's carriers and tables only:
# tests/test_inference.py checks the model itself against the reference
# (test_entailment_countermodel_matches_reference_on_saturated_targets)
ENTAIL_NEGATIVE = {
    "free-text": (SMALL, FREE, "text",
                  "entailment: distinct-at-bound\nmodel: countermodel\n"
                  "carrier X: 0 1\ntable u: 0 |-> 0, 1 |-> 0\n"),
    "free-machine": (SMALL, FREE, "machine",
                     "entailment:distinct-at-bound\nmodel:countermodel\n"
                     "carrier X:0 1\ntable u:0 |-> 0, 1 |-> 0\n"),
    # u swaps the two elements, so u . u is the identity, not u
    "idempotent-text": (SMALL, IDEM, "text",
                        "entailment: distinct-at-bound\nmodel: countermodel\n"
                        "carrier X: 0 1\ntable u: 0 |-> 1, 1 |-> 0\n"),
    "idempotent-machine": (SMALL, IDEM, "machine",
                           "entailment:distinct-at-bound\nmodel:countermodel\n"
                           "carrier X:0 1\ntable u:0 |-> 1, 1 |-> 0\n"),
    # v . u is constantly 1 and u . v constantly 0
    "commuting-text": (TWO, COMM, "text",
                       "entailment: distinct-at-bound\nmodel: countermodel\n"
                       "carrier X: 0 1\ntable u: 0 |-> 0, 1 |-> 0\n"
                       "table v: 0 |-> 1, 1 |-> 0\n"),
}


@pytest.mark.parametrize("case", sorted(ENTAIL_NEGATIVE))
def test_entail_negative_output_is_pinned(tmp_path, case):
    source, target, fmt, want = ENTAIL_NEGATIVE[case]
    (tmp_path / "source.spec").write_text(source)
    (tmp_path / "target.spec").write_text(target)
    rc, out = run("entail", str(tmp_path / "source.spec"), str(tmp_path / "target.spec"),
                  "--depth", "2", "--format", fmt)
    assert rc == 1
    assert out == want


# a product or terminal mark on types the source already has: a model of
# the source where P is no product, or U no singleton, does not extend
NEW_MARKS_ON_SOURCE_TYPES = {
    "product": ("type X\ntype Y\ntype P\nterm a : P -> X\nterm b : P -> Y\n",
                "type X\ntype Y\nproduct P = X * Y with a b\n",
                "carrier P: 0\ncarrier X: 0\ncarrier Y: 0\n"
                "table a: 0 |-> 0\ntable b: 0 |-> 0\n"),
    "terminal": ("type U\ntype X\nterm f : X -> U\n",
                 "unit U\ntype X\nterm f : X -> U\n",
                 "carrier U: 0\ncarrier X: 0\ntable f: 0 |-> 0\n"),
}


@pytest.mark.parametrize("case", sorted(NEW_MARKS_ON_SOURCE_TYPES))
def test_entail_new_product_or_terminal_mark_is_refuted(tmp_path, case):
    source, target, tables = NEW_MARKS_ON_SOURCE_TYPES[case]
    (tmp_path / "source.spec").write_text(source)
    (tmp_path / "target.spec").write_text(target)
    rc, out = run("entail", str(tmp_path / "source.spec"), str(tmp_path / "target.spec"),
                  "--depth", "2")
    assert rc == 1
    assert out == "entailment: distinct-at-bound\nmodel: countermodel\n" + tables


def test_saturate_dump_parses(files):
    rc, out = run("saturate", files["small"], "--depth", "1")
    assert rc == 0
    doc = dsl.parse(out)
    assert "u" in doc.spec.terms and doc.spec.terminal is not None


# a composite that is its own argument (t1 = t1 . t2) and a composite of
# it: both marks wait on t1, which dump declares first
SELF_REFERENTIAL = ("type X\ntype Y\nterm t0 : Y -> Y\nterm t1 : X -> Y\n"
                    "term t2 : X -> X\ncompose t1 = t1 . t2\ncompose a = t0 . t1\n")


def test_saturate_dumps_self_referential_compose_marks(tmp_path):
    p = tmp_path / "selfref.spec"
    p.write_text(SELF_REFERENTIAL)
    env = dict(os.environ, PYTHONPATH=str(Path(eqsketch.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-m", "eqsketch.cli", "saturate", str(p),
                          "--depth", "0"], capture_output=True, text=True, env=env,
                         timeout=60, preexec_fn=_limit_address_space)
    assert res.returncode == 0, res.stderr
    want = saturate(dsl.parse(SELF_REFERENTIAL).spec, 0).spec
    assert spec_equal(dsl.parse(res.stdout).spec, want)


def test_saturate_default_cap_stops_early_in_bounded_memory(tmp_path):
    # monoid_core passes a million terms at depth 3; the model commands'
    # cap of 1,000,000 let it run ~9 s and ~760 MB before exit 3
    p = tmp_path / "monoid_core.spec"
    p.write_text(dsl.dump(dsl.SpecDocument(CORPUS["monoid_core"]())))
    env = dict(os.environ, PYTHONPATH=str(Path(eqsketch.__file__).resolve().parents[1]))
    t0 = time.time()
    res = subprocess.run([sys.executable, "-m", "eqsketch.cli", "saturate", str(p)],
                         capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_limit_address_space)
    assert res.returncode == 3, res.stderr
    assert f"term universe exceeded {SATURATE_CAP}" in res.stderr
    assert time.time() - t0 < 30


def test_saturate_default_cap_fits_two_endomorphisms_at_depth_three():
    s = Specification()
    s.add_type("X")
    s.add_term("f", "X", "X")
    s.add_term("g", "X", "X")
    assert len(saturate(s, 3, cap=SATURATE_CAP).spec.terms) == 43224


def test_param_emits_lift_table(files):
    rc, out = run("param", files["endo"])
    assert rc == 0
    assert "lift s: s'" in out


def test_ell_output(files):
    rc, out = run("ell", files["endo"])
    assert rc == 0
    assert "map e: e" in out
    assert "map s: " in out


def test_models_count(files):
    rc, out = run("models", files["small"], "--X=2")
    assert rc == 0
    assert out.splitlines()[0] == "models: 4"


def test_models_missing_carrier_is_usage_error(files):
    rc, _ = run("models", files["small"])
    assert rc == 2


def test_exact_reports_bijection(files):
    rc, out = run("exact", files["endo"], "--X=2")
    assert rc == 0
    assert "4 = 4 bijection" in out


def test_terminal_with_bound(files):
    rc, out = run("terminal", files["endo"], "--X=2", "--bound", "1")
    assert rc == 0
    assert "parameter carrier size: 4" in out
    assert "terminal at bound 1: yes" in out


def test_pass_checks_model(files):
    rc, out = run("pass", files["endo"], "--X=2", "--alpha", "2")
    assert rc == 0
    assert "model check: ok" in out


def test_unknown_command_is_usage_error():
    rc, _ = run("definitely-not-a-command")
    assert rc == 2


def test_directory_argument_is_usage_error(tmp_path, capsys):
    rc, out = run("validate", str(tmp_path))
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_undecodable_file_is_invalid_input(tmp_path, capsys):
    p = tmp_path / "latin1.spec"
    p.write_bytes("type Xé\n".encode("latin-1"))
    rc, out = run("validate", str(p))
    assert (rc, out) == (1, "")
    assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8 text")


@pytest.mark.parametrize("argv, flag", [
    (["saturate", "small", "--depth", "-1"], "--depth=-1"),
    (["terminal", "endo", "--X=2", "--bound", "-1"], "--bound=-1"),
    (["models", "small", "--X=2", "--cap", "-1"], "--cap=-1"),
    (["entail", "small", "big", "--depth=-2"], "--depth=-2"),
])
def test_negative_depth_bound_or_cap_is_usage_error(files, capsys, argv, flag):
    rc, out = run(*[files.get(a, a) for a in argv])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == f"error: {flag} out of range (at least 0)\n"


def test_zero_depth_and_bound_are_accepted(files):
    rc, out = run("saturate", files["small"], "--depth", "0")
    assert rc == 0
    assert spec_equal(dsl.parse(out).spec, saturate(dsl.parse(SMALL).spec, 0).spec)
    rc, out = run("terminal", files["endo"], "--X=2", "--bound", "0")
    assert rc == 0 and "terminal at bound 0: " in out


COMMANDS = ["meta-check", "validate", "saturate", "entail", "param", "ell",
            "models", "pass", "terminal", "exact"]
# small values keep every call short; the junk ones must be usage errors
FLAG_VALUES = st.sampled_from(["-1", "0", "1", "1", "2", "2", "3", "x"])


@st.composite
def _argv(draw, paths):
    argv = [draw(st.sampled_from(COMMANDS + ["junk", "--depth"]))]
    # one file and the valid specs most often: most commands take one spec
    files = sorted(paths.values()) + [paths["plain"], paths["decorated"]]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        argv.append(draw(st.sampled_from(files)))
    if draw(st.booleans()):
        argv.append(f"--X={draw(st.integers(0, 3))}")
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(["carrier", "--depth", "--bound", "--cap",
                                     "--m0", "--alpha", "--format", "--trace"]))
        if flag == "carrier":
            argv.append(f"--{draw(st.sampled_from(['X', 'U', 'Q']))}={draw(st.integers(0, 3))}")
        elif flag == "--format":
            argv += [flag, draw(st.sampled_from(["text", "machine", "junk"]))]
        elif flag == "--trace":
            argv.append(flag)
        else:
            argv += [flag, draw(FLAG_VALUES)]
    return argv


def test_main_runs_repeatedly_on_drawn_argv(tmp_path):
    paths = {"missing": str(tmp_path / "missing.spec"), "directory": str(tmp_path)}
    for name, data in [("plain", SMALL.encode()), ("decorated", ENDO.encode()),
                       ("garbage", b"this is not a spec\n"),
                       ("non-utf8", b"type X\xff\n")]:
        (tmp_path / f"{name}.spec").write_bytes(data)
        paths[name] = str(tmp_path / f"{name}.spec")

    @settings(max_examples=500, deadline=None)
    @given(_argv(paths))
    def drawn(argv):
        with redirect_stderr(io.StringIO()):
            rc, _ = run(*argv)
        assert rc in (0, 1, 2, 3)

    drawn()
    # after hundreds of calls in this process, a fixed command still
    # prints what a fresh process prints
    argv = ["exact", paths["decorated"], "--X=2"]
    env = dict(os.environ, PYTHONPATH=str(Path(eqsketch.__file__).resolve().parents[1]))
    res = subprocess.run([sys.executable, "-m", "eqsketch.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run(*argv) == (res.returncode, res.stdout)
    assert res.returncode == 0


def test_machine_format_is_key_value(files):
    rc, out = run("exact", files["endo"], "--X=2", "--format", "machine")
    assert rc == 0
    assert all(":" in ln for ln in out.splitlines() if ln.strip())


@pytest.mark.parametrize("cmd", [
    ("validate",), ("meta-check",), ("param",), ("ell",),
    ("exact", "--X=2"), ("terminal", "--X=2", "--bound", "1"),
])
def test_deterministic_output(files, cmd):
    runs = [run(cmd[0], files["endo"], *cmd[1:]) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("argv", [
    # 733 lines, past the buffer: the pipe breaks while they are written
    ("exact", "--X=3"),
    # 5 lines, still in the buffer when the command returns
    ("exact", "--X=1"),
])
def test_closed_stdout_exits_without_a_traceback(tmp_path, argv):
    p = tmp_path / "two_ops.spec"
    p.write_text("decorated\ntype X\nterm f : X -> X\nterm g : X -> X\n")
    env = dict(os.environ, PYTHONPATH=str(Path(eqsketch.__file__).resolve().parents[1]))
    r, w = os.pipe()
    os.close(r)   # the reader is gone before the command writes
    try:
        res = subprocess.run([sys.executable, "-m", "eqsketch.cli", argv[0], str(p), *argv[1:]],
                             stdout=w, stderr=subprocess.PIPE, text=True, env=env,
                             timeout=60)
    finally:
        os.close(w)
    assert "Traceback" not in res.stderr
    assert "Exception ignored" not in res.stderr
    assert res.returncode == 141
