"""Command-line driver.

Exit codes: 0 success, 1 negative/invalid result, 2 usage error,
3 budget or search-space cap hit, 141 (128 + SIGPIPE) when standard
output closes early, as under ``| head``, with no traceback.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import dsl
from .core import Specification, SpecMorphism, validate, validate_morphism
from .decorate import pure_part, undecorate, validate_decorated
from .errors import (BudgetExceeded, EqsketchError, SearchSpaceTooLarge,
                     SyntaxError_)
from .inference import TriState, is_entailment, saturate
from .models import (FiniteModel, base_types, check_model, enumerate_models,
                     exactness_check, is_terminal, pass_parameter,
                     terminal_model)
from .parameterize import ell, parameterize
from .sketch import (equational_sketch, realization_to_spec, spec_to_realization,
                     validate_sketch)

_CARRIER_FLAG = re.compile(r"--([A-Za-z0-9_'~*]+)=(\d+)$")
_KNOWN = {"depth", "bound", "cap", "m0", "alpha", "format"}
# default --cap: terms for saturate, free-table combinations for the rest
SATURATE_CAP = 100_000
MODEL_CAP = 1_000_000


def _split_carrier_flags(argv: Sequence[str]) -> Tuple[List[str], Dict[str, int]]:
    rest: List[str] = []
    carriers: Dict[str, int] = {}
    for a in argv:
        m = _CARRIER_FLAG.match(a)
        if m and m.group(1) not in _KNOWN:
            carriers[m.group(1)] = int(m.group(2))
        else:
            rest.append(a)
    return rest, carriers


def _load(path: str) -> dsl.SpecDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        # a missing file, a directory, no permission: the arguments are wrong
        raise SystemExit(_usage(str(e)))
    except UnicodeDecodeError as e:
        raise EqsketchError(f"{path}: not UTF-8 text: {e}") from e
    return dsl.parse(text)


class _Out:
    def __init__(self, fmt: str):
        self.machine = fmt == "machine"

    def line(self, key: str, value: str = "") -> None:
        if self.machine:
            print(f"{key}:{value}")
        elif value:
            print(f"{key}: {value}")
        else:
            print(key)


def _print_model(out: _Out, m: FiniteModel, label: str) -> None:
    out.line("model", label)
    for x in sorted(m.carriers):
        vals = " ".join(repr(v) for v in m.carriers[x])
        out.line(f"carrier {x}", vals)
    for t in sorted(m.functions):
        tab = m.functions[t]
        cells = ", ".join(f"{k!r} |-> {v!r}"
                          for k, v in sorted(tab.items(), key=lambda kv: repr(kv[0])))
        out.line(f"table {t}", cells)


def _base_carrier_map(doc_spec: Specification,
                      carriers: Dict[str, int]) -> Dict[str, Tuple]:
    base = base_types(doc_spec)
    missing = [x for x in base if x not in carriers]
    if missing:
        raise SystemExit(_usage(f"missing carrier size for type(s): "
                                f"{', '.join(sorted(missing))} (use --NAME=k)"))
    return {x: tuple(range(carriers[x])) for x in base}


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _pick_m0(d, base_carriers, idx: int, cap: int):
    p0 = pure_part(d)
    carr = {x: base_carriers[x] for x in p0.types if x in base_carriers}
    ms = enumerate_models(p0, carr, cap=cap)
    if not ms:
        raise SystemExit(_usage("the pure part has no models at these carriers"))
    if not (0 <= idx < len(ms)):
        raise SystemExit(_usage(f"--m0={idx} out of range (0..{len(ms)-1})"))
    return ms[idx]


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process: main() may run many times and only parses
    ap = argparse.ArgumentParser(
        prog="eqsketch",
        description="equational specifications: checking, inference, "
                    "parameterization, finite models")
    ap.add_argument("command",
                    choices=["meta-check", "validate", "saturate", "entail",
                             "param", "ell", "models", "pass", "terminal",
                             "exact"])
    ap.add_argument("files", nargs="*")
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--bound", type=int, default=None)
    ap.add_argument("--cap", type=int, default=None)
    ap.add_argument("--m0", type=int, default=0)
    ap.add_argument("--alpha", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--format", choices=["text", "machine"], default="text")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv, carriers = _split_carrier_flags(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit:
        return 2
    for flag in ("depth", "bound", "cap"):
        n = getattr(args, flag)
        if n is not None and n < 0:
            return _usage(f"--{flag}={n} out of range (at least 0)")
    if args.cap is None:
        args.cap = SATURATE_CAP if args.command == "saturate" else MODEL_CAP
    out = _Out(args.format)
    try:
        rc = _dispatch(args, carriers, out)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return rc
    except BrokenPipeError:   # what is left then goes to devnull at exit
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except (BudgetExceeded, SearchSpaceTooLarge) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except SyntaxError_ as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 1
    except EqsketchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _need_files(args, n: int) -> List[str]:
    if len(args.files) != n:
        raise SystemExit(_usage(f"{args.command} expects {n} file argument(s)"))
    return args.files


def _dispatch(args, carriers: Dict[str, int], out: _Out) -> int:
    cmd = args.command

    if cmd == "meta-check":
        sk = equational_sketch()
        errs = validate_sketch(sk)
        out.line("sketch points", str(len(sk.points)))
        out.line("sketch arrows", str(len(sk.arrows)))
        out.line("sketch valid", "yes" if not errs else "; ".join(errs))
        rc = 0 if not errs else 1
        for path in args.files:
            doc = _load(path)
            # raises InvalidRealization, an error with exit 1, on a
            # realization that breaks the sketch
            back = realization_to_spec(spec_to_realization(doc.spec))
            # the sketch does not encode equations, so neither does the
            # round trip; it keeps every other name
            plain = doc.spec.copy()
            plain.equations = set()
            ok = plain == back
            out.line(f"realization {path}", "ok" if ok else "round-trip differs")
            rc = rc or (0 if ok else 1)
        return rc

    if cmd == "validate":
        if not args.files:
            return _usage("validate expects at least one file")
        rc = 0
        for path in args.files:
            doc = _load(path)
            errs = validate(doc.spec)
            if doc.is_decorated:
                errs += validate_decorated(doc.decorated())
            out.line(path, "ok" if not errs else "; ".join(errs))
            rc = rc or (0 if not errs else 1)
        return rc

    if cmd == "saturate":
        (path,) = _need_files(args, 1)
        doc = _load(path)
        sat = saturate(doc.spec, args.depth, cap=args.cap)
        if args.trace:
            for step in sat.trace:
                out.line("step", step.line())
        print(dsl.dump(dsl.SpecDocument(sat.spec)), end="")
        return 0

    if cmd == "entail":
        small_path, big_path = _need_files(args, 2)
        small, big = _load(small_path), _load(big_path)
        tau = SpecMorphism(small.spec, big.spec,
                           {x: x for x in small.spec.types},
                           {t: t for t in small.spec.terms})
        errs = validate_morphism(tau)
        if errs:
            out.line("inclusion", "; ".join(errs))
            return 1
        v = is_entailment(tau, depth=args.depth)
        out.line("entailment", v.state.value)
        if v.state is TriState.DISTINCT_AT_BOUND and v.countermodel is not None:
            _print_model(out, v.countermodel, "countermodel")
        return {TriState.EQUAL: 0, TriState.DISTINCT_AT_BOUND: 1,
                TriState.UNKNOWN: 3}[v.state]

    if cmd == "param":
        (path,) = _need_files(args, 1)
        doc = _load(path)
        par = parameterize(doc.decorated())
        print(dsl.dump(dsl.SpecDocument(par.spec.base,
                                        parameter_type=par.spec.parameter_type)),
              end="")
        for f in sorted(par.lift):
            out.line(f"lift {f}", par.lift[f])
        return 0

    if cmd == "ell":
        (path,) = _need_files(args, 1)
        doc = _load(path)
        res = ell(doc.decorated())
        for t in sorted(res.morphism.term_map):
            out.line(f"map {t}", res.morphism.term_map[t])
        print(dsl.dump(dsl.SpecDocument(res.target)), end="")
        return 0

    if cmd == "models":
        (path,) = _need_files(args, 1)
        doc = _load(path)
        base = _base_carrier_map(doc.spec, carriers)
        ms = enumerate_models(doc.spec, base, cap=args.cap)
        out.line("models", str(len(ms)))
        for i, m in enumerate(ms):
            _print_model(out, m, str(i))
        return 0

    # the remaining commands consume one decorated spec
    (path,) = _need_files(args, 1)
    doc = _load(path)
    d = doc.decorated()
    base = _base_carrier_map(undecorate(d), carriers)
    m0 = _pick_m0(d, base, args.m0, args.cap)
    par = parameterize(d)

    if cmd == "terminal":
        m_a, exts = terminal_model(d, m0, base, par=par, cap=args.cap)
        out.line("parameter carrier size", str(len(exts)))
        _print_model(out, m_a, "terminal")
        if args.bound is not None:
            ok = is_terminal(d, m_a, m0, base, bound=args.bound, par=par,
                             cap=args.cap)
            out.line(f"terminal at bound {args.bound}", "yes" if ok else "no")
            return 0 if ok else 1
        return 0

    if cmd == "pass":
        m_a, exts = terminal_model(d, m0, base, par=par, cap=args.cap)
        alphas = m_a.carriers[par.spec.parameter_type]
        idx = args.alpha if args.alpha is not None else 0
        if not (0 <= idx < len(alphas)):
            return _usage(f"--alpha={idx} out of range (0..{len(alphas)-1})")
        m = pass_parameter(d, par, m_a, alphas[idx])
        errs = check_model(undecorate(d), m)
        _print_model(out, m, f"alpha={idx}")
        out.line("model check", "ok" if not errs else "; ".join(errs))
        return 0 if not errs else 1

    if cmd == "exact":
        rep = exactness_check(d, m0, base, par=par, cap=args.cap)
        out.line("exactness",
                 f"{rep.parameter_count} = {rep.model_count} "
                 f"{'bijection' if rep.exact else 'NO bijection'}")
        for ln in rep.lines():
            out.line(ln.strip())
        return 0 if rep.exact else 1

    return _usage(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
