"""The output-identity tool of tools/compare_outputs.py, at tiny sizes."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import compare_outputs  # noqa: E402


def test_a_tree_against_itself_has_no_differences(tmp_path):
    first, second = (compare_outputs.run_tree(ROOT, tmp_path / "run", [0], "tiny")
                     for _ in range(2))
    assert len(first) == 11  # 3 + 4 + 4 invocations of the three workloads at tiny sizes
    assert all(out["exit code"] == 0 and len(out) > 3 for out in first.values())
    assert compare_outputs.differences(first, second) == []
    # a changed byte, a new file and a changed exit code are each reported
    key = (0, "nonbloch_loop", "gbz")
    csv = second[key]["gbz.csv"]
    lines = len(csv.splitlines())
    changed = {**second, key: {**second[key], "gbz.csv": b"R" + csv[1:],
                               "extra.csv": b"", "exit code": 2}}
    assert compare_outputs.differences(first, changed) == [
        "seed 0 nonbloch_loop gbz: exit code differs, 0 vs 2",
        "seed 0 nonbloch_loop gbz: extra.csv new in the change tree",
        "seed 0 nonbloch_loop gbz: gbz.csv differs, first at line 1 "
        f"({lines} vs {lines} lines)",
    ]
    # with the header and row count kept, the differing columns are named
    key = (0, "nonbloch_loop", "boundary")
    rows = second[key]["boundary.csv"].decode().splitlines()
    header = rows[0].split(",")
    cells = rows[2].split(",")
    col = header.index("norm_det")
    cells[col] = repr(float(cells[col]) + 0.25)
    rows[2] = ",".join(cells)
    changed = {**second, key: {**second[key], "boundary.csv": "\n".join(rows).encode() + b"\n"}}
    assert compare_outputs.differences(first, changed) == [
        "seed 0 nonbloch_loop boundary: boundary.csv differs, first at line 3 "
        f"({len(rows)} vs {len(rows)} lines); norm_det max |diff| 0.25",
    ]


def test_summary_line_counts_the_package_lines(tmp_path, monkeypatch, capsys):
    trees = []
    for name, sizes in (("parent", [3, 2]), ("change", [1, 2])):
        pkg = tmp_path / name / "src" / "nhskin"
        pkg.mkdir(parents=True)
        for i, n in enumerate(sizes):
            (pkg / f"m{i}.py").write_text("x = 1\n" * n)
        (pkg / "notes.txt").write_text("not counted\n")
        trees.append(str(tmp_path / name))
    monkeypatch.setattr(compare_outputs, "run_tree",
                        lambda tree, rundir, seeds, sizes: {(0, "w", "l"): {"exit code": 0}})
    assert compare_outputs.main(trees) == 0
    assert capsys.readouterr().out == (
        "1 invocations per tree, 0 difference(s); src/nhskin/*.py 5 -> 3 lines\n")
