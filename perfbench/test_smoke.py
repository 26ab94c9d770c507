"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks_and_reports_every_metric(tmp_path, workload, trace):
    result, record = run.run_benchmark(ROOT, tmp_path, workload, seed=3, seconds=0,
                                       trace=trace, sizes="tiny")
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    json.dumps(result, allow_nan=False)
    assert record["meta"]["seed"] == 3 and record["meta"]["src_lines"] > 0


def test_traced_layers_that_do_not_run_report_zero(tmp_path):
    sweep, _ = run.run_benchmark(ROOT, tmp_path / "a", "skin_sweep", 1, 0, True, "tiny")
    loop, _ = run.run_benchmark(ROOT, tmp_path / "b", "nonbloch_loop", 1, 0, True, "tiny")
    value = lambda res, name: res["metrics"][name]["value"]  # noqa: E731
    assert value(sweep, "spectra.eigendecompose.calls") > 0
    assert value(sweep, "nonbloch.zak_phase.calls") == 0
    assert value(sweep, "boundary.boundary_determinant.calls") == 0
    assert value(loop, "spectra.eigendecompose.calls") == 0
    assert value(loop, "boundary.solve_beta_per_energy") == 2
    assert value(loop, "cli.invocations") == 4


def test_missing_traced_name_is_reported_not_fatal(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import nhskin.cli

    original = nhskin.cli.eigendecompose
    monkeypatch.setitem(tracing.TRACED, "spectra.gone", [("nhskin.spectra", "no_such_name")])
    invocations = workloads.build("skin_sweep", 0, tmp_path, "tiny")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert nhskin.cli.eigendecompose is not original
        out = run.run_inprocess_pass(invocations, nhskin.cli.main, tmp_path, tracer)
    assert nhskin.cli.eigendecompose is original
    assert out["failures"] == []
    assert tracer.missing == ["nhskin.spectra.no_such_name"]
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["spectra.gone.calls"] == 0
    assert layers["spectra.eigendecompose.calls"] > 0


def test_failed_invocations_and_wrong_outputs_are_counted(tmp_path):
    invocations = workloads.build("symmetry_sizes", 0, tmp_path, "tiny")
    bad_exit, wrong_kind = invocations[0], invocations[1]
    bad_exit.args[bad_exit.args.index("--config") + 1] = str(tmp_path / "absent.json")
    wrong_kind.check = workloads._check_verdict("no_such_verdict")
    out = run.run_subprocess_pass(invocations, run.child_env(ROOT), ROOT, tmp_path)
    assert len(out["failures"]) == 2
    assert out["failures"][0].startswith(f"{bad_exit.label}: exit 3")
    assert out["failures"][1].startswith(f"{wrong_kind.label}: verdict")


def test_same_seed_same_configs(tmp_path):
    a = workloads.build("nonbloch_loop", 7, tmp_path / "a")
    b = workloads.build("nonbloch_loop", 7, tmp_path / "b")
    assert [x.args[0] for x in a] == [x.args[0] for x in b]
    read = lambda d: sorted(p.read_text() for p in d.glob("*.json"))  # noqa: E731
    assert read(tmp_path / "a") == read(tmp_path / "b")
    p = workloads.draw_params(7)
    assert workloads.GAMMA[0] <= p["gamma"] <= workloads.GAMMA[1]
    assert workloads.THETA_BROKEN[0] <= p["theta"] <= workloads.THETA_BROKEN[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "skin_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
