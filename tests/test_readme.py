"""README's library sketch runs as written and prints what its comments say,
so a name that leaves the package cannot leave the sketch stale."""

import re
from pathlib import Path

import numpy as np

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
