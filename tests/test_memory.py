"""Peak memory of the eigensolving commands against numpy's own eigensolve.

Each run is a fresh interpreter with one BLAS thread; its peak resident
set comes from `os.wait4` in the bare interpreter that starts it.  A
command may add at most one N x N float array (N = 2L) to the peak of a
process that only builds H and calls `np.linalg.eig`.  The cases pin:

- `spectrum` at L = 384: the eigensystem pass (left vectors, pair search,
  condition numbers) and the state table take no complex N x N
  temporaries;
- `spectrum` at L = 192, where one N x N float array is 1.1 MiB: the
  chain's end-mode pair is a real degenerate cluster, and rotating it in
  complex arithmetic would load complex LAPACK routines worth about one
  more MiB;
- `sweep-theta --steps 6` at L = 384: the sweep holds one eigensystem at a
  time, not the previous orbit's through the next solve.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import CLI, child_env  # noqa: E402

# the symmetry-broken chain of the spectra tests; sweep-theta sets its own theta
CHAIN = {"t": 1.0, "gamma": 1.5, "delta": 0.5, "V": 2.0, "theta": 0.3}


# Linux starts a child's peak at its parent's resident set (the high-water
# mark survives exec), and pytest's can exceed every peak measured here, so
# a bare interpreter starts each run and reports the run's peak in KiB.
LAUNCH = ("import os, subprocess, sys; "
          "p = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, "
          "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
          "_, status, usage = os.wait4(p.pid, 0); "
          "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_mib(code: str, *args: str, cwd: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", LAUNCH, sys.executable, "-c", code, *args],
                          cwd=cwd, env=child_env(ROOT), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True)
    exit_code, kib = proc.stdout.split()
    assert exit_code == "0", code
    return int(kib) / 1024.0  # KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("command, L, flags", [
    ("spectrum", 192, []),
    ("spectrum", 384, []),
    ("sweep-theta", 384, ["--steps=6"]),
], ids=["spectrum-192", "spectrum-384", "sweep-theta-384"])
def test_peak_within_one_float_array_of_eig(tmp_path, command, L, flags):
    model = [f"--{key}={value}" for key, value in CHAIN.items()]
    peak = _peak_mib(CLI, command, *model, f"--L={L}", *flags, f"--out={tmp_path}", cwd=tmp_path)
    eig = _peak_mib(
        "import numpy as np; from nhskin import ModelSpec, build_bdg; "
        f"np.linalg.eig(build_bdg(ModelSpec.from_dict({CHAIN!r} | {{'L': {L}}})))",
        cwd=tmp_path)
    one_array = (2 * L) ** 2 * 8 / 2 ** 20
    assert peak - eig <= one_array, f"{command} {peak:.1f} MiB, eig {eig:.1f} MiB"
