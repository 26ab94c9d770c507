"""Peak memory of `spectrum` against numpy's own eigensolve of the same chain.

Each run is a fresh interpreter with one BLAS thread; its peak resident
set comes from `os.wait4`.  The eigensystem pass (left vectors, pair
search, condition numbers) and the state table may add at most one N x N
float array (N = 2L) to the peak of a process that only builds H and
calls `np.linalg.eig`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the symmetry-broken chain of the spectra tests, at a size where one
# N x N float array (4.5 MiB) stands well above start-up noise
L = 384
CHAIN = {"t": 1.0, "gamma": 1.5, "delta": 0.5, "V": 2.0, "theta": 0.3}


def _peak_mib(code: str, *args: str, cwd: Path) -> float:
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, code
    return usage.ru_maxrss / 1024.0  # KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_spectrum_peaks_within_one_float_array_of_eig(tmp_path):
    flags = [f"--{key}={value}" for key, value in CHAIN.items()]
    spectrum = _peak_mib("import sys; from nhskin.cli import main; sys.exit(main())",
                         "spectrum", *flags, f"--L={L}", f"--out={tmp_path}", cwd=tmp_path)
    eig = _peak_mib(
        "import numpy as np; from nhskin import ModelSpec, build_bdg; "
        f"np.linalg.eig(build_bdg(ModelSpec.from_dict({CHAIN!r} | {{'L': {L}}})))",
        cwd=tmp_path)
    one_array = (2 * L) ** 2 * 8 / 2 ** 20
    assert spectrum - eig <= one_array, f"spectrum {spectrum:.1f} MiB, eig {eig:.1f} MiB"
