"""Reference implementations the tests compare the package against.

Each function here is a slow, one-point-at-a-time form of a batched
routine in `nhskin`, kept so that the batched code can be checked for
bit-for-bit agreement (`==`), not just closeness.
"""

from __future__ import annotations

import numpy as np

from nhskin.errors import BandTouching


def bloch_matrix_scalar(spec, beta) -> np.ndarray:
    """H(beta) at one beta, built entry by entry from scalars."""
    bi = 1.0 / beta
    diff = bi - beta
    s = bi + beta
    g2 = 0.5 * spec.gamma * diff
    return np.array(
        [[g2 - spec.t * s, spec.delta * diff],
         [-spec.delta * diff, g2 + spec.t * s]],
        dtype=complex,
    )


def band_energies_loop(spec, num_k: int, offset: float = 0.0) -> np.ndarray:
    """Both band energies on beta = e^{ik}, one 2x2 eigvals call per k."""
    out = np.empty(2 * num_k, dtype=complex)
    for m in range(num_k):
        b = np.exp(2j * np.pi * (m + offset) / num_k)
        out[2 * m:2 * m + 2] = np.linalg.eigvals(bloch_matrix_scalar(spec, b))
    return out


def wilson_loop_phase_loop(lefts, rights) -> float:
    """Loop phase with the overlaps and their logs summed point by point."""
    n = len(lefts)
    total = 0.0 + 0.0j
    for k in range(n):
        ov = lefts[k] @ rights[(k + 1) % n]
        total += np.log(ov)
    phase = -np.imag(total)
    phase = (phase + np.pi) % (2.0 * np.pi) - np.pi
    if phase <= -np.pi:
        phase += 2.0 * np.pi
    return float(phase)


def zak_phase_loop(spec, band: str = "plus", grid: int = 4096,
                   gap_tol: float = 1e-8) -> tuple[float, float]:
    """(phase, residual) of the Wilson loop, one grid point at a time.

    Two 2x2 `eig` calls per point (H and its adjoint), band continuity
    by the larger overlap with the previous left vector, and the same
    BandTouching errors as `nhskin.nonbloch.zak_phase`.  The model's
    input checks, the unit-circle check and the delta = 0 bypass are
    left to the caller.
    """
    lefts = []
    rights = []
    prev_left = None
    cross_defect = 0.0
    for k in range(grid):
        beta = np.exp(2j * np.pi * k / grid)
        Hb = bloch_matrix_scalar(spec, beta)
        w, VR = np.linalg.eig(Hb)
        wl, WL = np.linalg.eig(Hb.conj().T)
        if (abs(np.conj(wl[0]) - w[0]) + abs(np.conj(wl[1]) - w[1])
                > abs(np.conj(wl[0]) - w[1]) + abs(np.conj(wl[1]) - w[0])):
            wl = wl[::-1]
            WL = WL[:, ::-1]
        gap = abs(w[0] - w[1])
        if gap <= gap_tol:
            raise BandTouching(f"band gap {gap:.2e} at grid point {k}")
        if prev_left is None:
            idx = int(np.argmax(w.real)) if band == "plus" else int(np.argmin(w.real))
        else:
            idx = int(np.argmax([abs(prev_left @ VR[:, j]) for j in range(2)]))
        r = VR[:, idx]
        l = WL[:, idx].conj()
        ov = l @ r
        if ov == 0.0:
            raise BandTouching(f"left/right overlap vanished at grid point {k}")
        l = l / ov
        other = 1 - idx
        cross_defect = max(
            cross_defect,
            float(abs(l @ (VR[:, other] / np.linalg.norm(VR[:, other])))),
        )
        lefts.append(l)
        rights.append(r)
        prev_left = l
    return wilson_loop_phase_loop(lefts, rights), cross_defect
