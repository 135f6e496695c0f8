"""The benchmark's per-layer rows name functions of the package.

A traced benchmark run reports one ``self_ms``/``calls`` pair for each
public function defined in a layer module of ``eqsketch``; a row of
``BENCHMARK.json`` whose function is deleted, renamed, moved or made
private is missing from every traced result.
"""
import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _is_public_function(layer: str, name: str) -> bool:
    mod = importlib.import_module(f"eqsketch.{layer}")
    obj = vars(mod).get(name)
    return (inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_"))


def test_per_layer_rows_name_public_functions():
    rows = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    timed = [row.split(".") for row in rows
             if row.endswith((".self_ms", ".calls")) and row.count(".") == 2]
    assert timed
    missing = sorted(f"{layer}.{name}" for layer, name, _stat in timed
                     if not _is_public_function(layer, name))
    assert not missing, (
        f"BENCHMARK.json times {missing}, which are not public functions of "
        "their eqsketch module; a change that deletes, renames or moves one "
        "must change BENCHMARK.json and the benchmark with it")
