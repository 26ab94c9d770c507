"""Benchmark of the nhskin command-line tool.

    python3 perfbench/run.py --workload skin_sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; the program is imported from
./src, so there is nothing to install.  The metrics and workloads are the
ones declared in BENCHMARK.json.

--trace 0  runs the workload's CLI invocations as subprocesses, each one
           started after the previous one exits (a closed loop with one
           client), in passes until --seconds is used up, and reports the
           end-to-end metrics as medians over the passes.
--trace 1  runs the same invocations in-process through nhskin.cli.main,
           alternating an untraced and a traced pass, and reports the
           per-layer metrics plus the tracing overhead.

Every pass checks the program's outputs.  The last line of standard
output is the result as one JSON object; the line before it holds the run
metadata and per-command times, which are also kept in
.perfbench_runs/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread for every process: never more than nproc, and on the
# L = 96 sweep one thread measured 5-10% faster than two (2-vCPU x86_64 VM).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
CLI = "import sys; from nhskin.cli import main; sys.exit(main())"
IMPORT = "import nhskin.cli"
SETUP_SAMPLES = 7


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def child_env(root: Path) -> dict:
    env = {**os.environ, **THREAD_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(code: str, args: list[str], env: dict, cwd: Path,
          stderr: Path) -> tuple[float, int, float]:
    """Run one fresh interpreter; return its wall time, exit code and max RSS in MiB."""
    with open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(root: Path, env: dict, workdir: Path) -> list[float]:
    """Fresh-interpreter import times of nhskin.cli, after one untimed import
    that compiles the bytecode (the build step of a source checkout)."""
    log = workdir / "setup.err"
    _, rc, _ = spawn(IMPORT, [], env, root, log)
    if rc != 0:
        raise BenchError(f"cannot import nhskin.cli: {log.read_text(errors='replace')[-500:]}")
    return [spawn(IMPORT, [], env, root, log)[0] for _ in range(SETUP_SAMPLES)]


def timed_passes(seconds: float, one_pass) -> list:
    """Run one_pass once, then again while another pass still fits in `seconds`."""
    t0 = time.perf_counter()
    results = []
    while True:
        start = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - start
        if time.perf_counter() - t0 + last > seconds:
            return results


def check_outputs(invocations, exit_codes, stderr_texts) -> list[str]:
    """At most one failure message per invocation of the pass."""
    failures = []
    for inv, rc, err in zip(invocations, exit_codes, stderr_texts):
        if rc != 0:
            failures.append(f"{inv.label}: exit {rc}: {err[-300:]}")
            continue
        try:
            problem = inv.check(inv.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            failures.append(f"{inv.label}: {problem}")
    return failures


def _fresh_outputs(workdir: Path) -> None:
    shutil.rmtree(workdir / "out", ignore_errors=True)


def run_subprocess_pass(invocations, env: dict, root: Path, workdir: Path) -> dict:
    _fresh_outputs(workdir)
    times, codes, rss = [], [], []
    t0 = time.perf_counter()
    for inv in invocations:
        s, rc, mib = spawn(CLI, inv.args, env, root, workdir / f"{inv.label}.err")
        times.append(s)
        codes.append(rc)
        rss.append(mib)
    wall = time.perf_counter() - t0
    errs = [(workdir / f"{inv.label}.err").read_text(errors="replace") for inv in invocations]
    return {"wall_s": wall, "times": times, "rss": rss,
            "failures": check_outputs(invocations, codes, errs)}


def run_inprocess_pass(invocations, main, workdir: Path, tracer=None) -> dict:
    _fresh_outputs(workdir)
    codes, texts = [], []
    t0 = time.perf_counter()
    for inv in invocations:
        buf = io.StringIO()
        span = tracer.invocation() if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), span:
            try:
                rc = main(inv.args)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is a failed invocation
                buf.write(traceback.format_exc())
                rc = 1
        codes.append(rc)
        texts.append(buf.getvalue())
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "failures": check_outputs(invocations, codes, texts)}


def run_untraced(root: Path, workdir: Path, invocations, seconds: float):
    env = child_env(root)
    setup = measure_setup(root, env, workdir)
    passes = timed_passes(seconds, lambda: run_subprocess_pass(invocations, env, root, workdir))
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cmd_max_s": statistics.median(max(p["times"]) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(p["rss"]) for p in passes),
    }
    detail = {
        "passes": len(passes),
        "setup_samples_s": setup,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "command_median_s": {inv.label: statistics.median(p["times"][i] for p in passes)
                             for i, inv in enumerate(invocations)},
        "command_peak_rss_mib": {inv.label: max(p["rss"][i] for p in passes)
                                 for i, inv in enumerate(invocations)},
    }
    return values, passes, detail


def run_traced(root: Path, workdir: Path, invocations, seconds: float):
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from nhskin.cli import main

    def pair():
        plain = run_inprocess_pass(invocations, main, workdir)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_inprocess_pass(invocations, main, workdir, tracer)
        traced["layers"] = tracing.layer_metrics(tracer.spans)
        traced["missing"] = tracer.missing
        return plain, traced

    # an untimed first pass pays the one-time costs (first page faults of
    # the large arrays) that would otherwise land on the first timed pass
    warm = run_inprocess_pass(invocations, main, workdir)
    pairs = timed_passes(seconds, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    values = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    detail = {
        "passes": len(pairs),
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "missing": traced[0]["missing"],
    }
    return values, [warm, *plain, *traced], detail


def _cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def metadata(root: Path, workload: str, seed: int, sizes: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    git_sha = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                     capture_output=True, text=True, timeout=30,
                                     check=True).stdout.strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "sizes": sizes,
        "params": workloads.draw_params(seed),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "cpu": _cpu_model(),
        "blas": blas, "thread_env": THREAD_ENV,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "git_sha": git_sha, "src_lines": src_lines,
    }


def run_benchmark(root: Path, workdir: Path, workload: str, seed: int,
                  seconds: float, trace: bool, sizes: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the full record."""
    if not (root / "src" / "nhskin" / "cli.py").is_file():
        raise BenchError(f"no nhskin source under {root / 'src'}")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    invocations = workloads.build(workload, seed, workdir, sizes)
    runner = run_traced if trace else run_untraced
    values, passes, detail = runner(root, workdir, invocations, seconds)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(invocations) * len(passes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"meta": metadata(root, workload, seed, sizes), "detail": detail,
              "fail_frac": result["failed"] / attempted, "failures": failures,
              "result": result}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(THREAD_ENV)  # before this process imports numpy
    root = HERE.parent
    runs = root / ".perfbench_runs"
    workdir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, record = run_benchmark(root, workdir, args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("meta", "detail", "fail_frac")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
