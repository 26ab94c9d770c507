"""README's library sketch runs as written and prints what its comments say,
and every command of its command-line block exits 0, so a name or flag
that leaves the package cannot leave README stale."""

import os
import re
import shlex
from pathlib import Path

import numpy as np

from nhskin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_prints_its_commented_values():
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no Library sketch python block"
    printed = []
    exec(block.group(1), {"print": lambda value: printed.append(value)})
    residual, detected, end_modes, pair_product, phase = printed
    assert residual == 0.0
    assert detected is False
    assert np.abs(np.sort(end_modes) - [1.005, 99.995]).max() <= 1e-3
    assert np.abs(pair_product + 1.0).max() <= 1e-12
    assert phase == np.pi


def test_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README has no command-line block"
    config = re.search(r"cat > model.json << 'EOF'\n(.*?)EOF\n", block.group(1), re.S)
    commands = [shlex.split(line) for line in block.group(1).splitlines()
                if line.startswith("nhskin ")]
    assert config is not None and len(commands) == 7
    monkeypatch.chdir(tmp_path)
    Path("model.json").write_text(config.group(1))
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        path = capsys.readouterr().out.strip()
        assert os.path.isfile(path), argv
