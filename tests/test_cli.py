import io
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import eqsketch
from eqsketch import dsl
from eqsketch.cli import main

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


def test_saturate_dump_parses(files):
    rc, out = run("saturate", files["small"], "--depth", "1")
    assert rc == 0
    doc = dsl.parse(out)
    assert "u" in doc.spec.terms and doc.spec.terminal is not None


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
