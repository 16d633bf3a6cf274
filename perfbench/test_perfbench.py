"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.workloads import TOY, WORKLOADS, Op, hub

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert units("end_to_end") == dict(run.END_TO_END)
    assert units("per_layer") == dict(run.PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_emitted(name, tmp_path):
    result, lines, errors = run.measure(name, 3, 0.05, False, sizes=TOY,
                                        workdir=tmp_path)
    assert errors == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate = 0 " in "\n".join(lines)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat(name, tmp_path):
    first, _, errors = run.measure(name, 5, 0.05, True, sizes=TOY,
                                   workdir=tmp_path / "a")
    second, _, _ = run.measure(name, 5, 0.05, True, sizes=TOY,
                               workdir=tmp_path / "b")
    assert errors == [] and first["correct"]
    spec = units("per_layer")
    assert {k: m["unit"] for k, m in first["metrics"].items()} == spec
    counted = [k for k, u in spec.items() if u in ("count", "bytes")]
    assert [first["metrics"][k]["value"] for k in counted] == \
        [second["metrics"][k]["value"] for k in counted]


def _corrupt(result, row=None):
    """The same result with one answer changed (for a matrix, the last
    entry of `row`)."""
    if isinstance(result, str):
        lines = result.splitlines()
        if lines[0].startswith("vertex"):
            fields = lines[1].split("\t")
            fields[1] = "7" if fields[1] != "7" else "8"
            lines[1] = "\t".join(fields)
        else:
            lines[0] = lines[0].replace(" entries", "1 entries")
        return "\n".join(lines) + "\n"
    if isinstance(result, list):  # SSSP distances
        i = next(i for i, d in enumerate(result) if d != float("inf"))
        return result[:i] + [result[i] + 1.0] + result[i + 1:]
    if hasattr(result, "levels"):  # BFS
        levels = list(result.levels)
        levels[-1] = 99
        return type(result)(levels=levels, parents=result.parents)
    values = result.values.copy()  # matrix
    k = -1 if row is None else result.indptr[row + 1] - 1
    values[k] = values[k] + 1
    return type(result)(result.nrows, result.ncols, result.indptr,
                        result.indices, values, result.domain)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_results_are_counted_as_failed(name, tmp_path):
    gm = run.import_graphmat()
    wl = WORKLOADS[name](gm, TOY, 7, tmp_path)
    wl.setup()
    ops = wl.ops()
    good = run.Samples()
    good.run_list(ops)
    assert good.failed == 0
    bad = run.Samples()
    for op in ops:
        # min-plus mxm values are checked on sampled rows, the hub's among them
        row = hub(wl.a_ref) if "min-plus" in op.label else None
        corrupted = _corrupt(op.run(), row)
        bad.run_list([Op(op.kind, op.label, lambda c=corrupted: c, op.check)])
    assert bad.failed == bad.attempted == len(ops)


def test_rewritten_matrix_market_file_fails(tmp_path):
    gm = run.import_graphmat()
    wl = WORKLOADS["ingest"](gm, TOY, 7, tmp_path)
    wl.setup()
    build = next(op for op in wl.ops() if op.label.startswith(
        "graphmat build"))
    stdout = build.run()
    assert build.check(stdout)
    path = Path(wl.mtx)
    lines = path.read_text().splitlines()
    r, c, v = lines[-1].split()
    lines[-1] = f"{r} {c} {float(v) + 1.0!r}"
    path.write_text("\n".join(lines) + "\n")
    assert not build.check(stdout)


def test_refuses_to_run_without_graphmat_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traverse-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_above():
    xs = list(np.arange(1.0, 31.0))
    assert run.tail(xs) == (20.0, 100.0 * 20 / 30)
    assert run.tail(xs[:12]) == (6.0, 50.0)
