"""Compare two source trees' outputs on every benchmark invocation.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--seeds 0 7] [--sizes full|tiny]

Each tree is a checkout with the package under src/.  For every seed and
each of the three workloads, the invocations that
perfbench/workloads.py `build` lists run once per tree, each as a fresh
interpreter with that tree's src/ on PYTHONPATH and one BLAS thread, launched
as perfbench/run.py launches them (its `CLI` and `child_env`).
Both trees run in the same scratch directory, one after the other, so
they see the same config files and print the same output paths.  The
tool prints one line per output file (primary file or SVG), stdout,
stderr or exit code that differs, and exits 1 if any does, 0 if none.
For a CSV with the same header and row count in both trees, the line
also names the columns that differ, each numeric one with its largest
absolute difference.  The summary line ends with both trees' line counts
of src/nhskin/*.py, as `wc -l` counts them.
"""

from __future__ import annotations

import argparse
import csv
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from run import CLI, child_env  # noqa: E402


def run_tree(tree: Path, rundir: Path, seeds, sizes: str) -> dict:
    """Outputs of every invocation on one tree: (seed, workload, label) ->
    {"exit code": ..., "stdout": ..., "stderr": ..., <file name>: bytes}."""
    env = child_env(tree.resolve())
    outputs = {}
    shutil.rmtree(rundir, ignore_errors=True)
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for inv in workloads.build(workload, seed, rundir / f"seed{seed}" / workload, sizes):
                proc = subprocess.run([sys.executable, "-c", CLI, *inv.args], cwd=rundir,
                                      env=env, stdin=subprocess.DEVNULL, capture_output=True)
                got = {"exit code": proc.returncode, "stdout": proc.stdout,
                       "stderr": proc.stderr}
                if inv.out.is_dir():
                    got.update((p.name, p.read_bytes()) for p in sorted(inv.out.iterdir()))
                outputs[seed, workload, inv.label] = got
    return outputs


def source_lines(tree: Path) -> int:
    """Newlines in the tree's src/nhskin/*.py, summed (`wc -l`)."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "nhskin").glob("*.py"))


def _first_difference(name: str, a, b) -> str:
    if not isinstance(a, bytes) or not isinstance(b, bytes):
        return f"{a!r} vs {b!r}"
    la, lb = a.splitlines(), b.splitlines()
    line = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    where = f"first at line {line + 1} ({len(la)} vs {len(lb)} lines)"
    return where + (_column_differences(la, lb) if name.endswith(".csv") else "")


def _column_differences(la: list[bytes], lb: list[bytes]) -> str:
    """'; ' and the columns that differ between two CSVs of one header and
    row count, each numeric one with its largest absolute difference
    ('norm_det max |diff| 1.3e-15'); '' when the shapes differ."""
    ra, rb = (list(csv.reader(line.decode() for line in lines)) for lines in (la, lb))
    width = len(ra[0]) if ra else 0
    if ra[:1] != rb[:1] or len(ra) != len(rb) or any(len(r) != width for r in ra + rb):
        return ""
    parts = []
    for column, xs, ys in zip(ra[0], zip(*ra[1:]), zip(*rb[1:])):
        changed = [(x, y) for x, y in zip(xs, ys) if x != y]
        if not changed:
            continue
        try:
            worst = max(abs(float(x) - float(y)) for x, y in changed)
        except ValueError:
            parts.append(column)
        else:
            parts.append(f"{column} max |diff| {worst:.2g}")
    return "; " + ", ".join(parts) if parts else ""


def differences(before: dict, after: dict) -> list[str]:
    """One line per output of `run_tree` that differs between two runs."""
    missing = object()
    diffs = []
    for (seed, workload, label), old in before.items():
        new = after[seed, workload, label]
        for name in sorted(old.keys() | new.keys(), key=str):
            a, b = old.get(name, missing), new.get(name, missing)
            if a is missing or b is missing:
                diffs.append(f"seed {seed} {workload} {label}: {name} "
                             f"{'missing' if b is missing else 'new'} in the change tree")
            elif a != b:
                diffs.append(f"seed {seed} {workload} {label}: {name} differs, "
                             + _first_difference(name, a, b))
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="tree of the parent commit")
    ap.add_argument("change", type=Path, help="tree of the change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    ap.add_argument("--sizes", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "nhskin").is_dir():
            ap.error(f"{tree} has no src/nhskin")
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_tree(tree, Path(tmp, "run"), args.seeds, args.sizes)
                for tree in (args.parent, args.change)]
    diffs = differences(*runs)
    for line in diffs:
        print(line)
    print(f"{len(runs[0])} invocations per tree, {len(diffs)} difference(s); src/nhskin/*.py "
          f"{source_lines(args.parent)} -> {source_lines(args.change)} lines")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
