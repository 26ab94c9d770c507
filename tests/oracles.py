"""Reference implementations the tests compare the package against.

Each function here is a slow, one-point-at-a-time or dense form of a
routine in `nhskin`: the per-point loops check the batched code, bit
for bit (`==`) where the arithmetic is the same; the 2x2 Bloch matrix,
its eigenvalues per k and the point-by-point Wilson loop are the
references for the closed forms of `band_energies` and `zak_phase`,
and `band_energies_half_shifted` gives the tests its grid off the band edges;
the characteristic polynomial and its companion coefficients check the
quartet of `solve_beta`; the per-vector density profile checks the
array pass of `classify_states`; the per-energy beta quartet and boundary determinant check their
batched forms, to a tolerance, since numpy's complex array arithmetic
rounds differently from Python's; the dense model builder, reflections
and reducibility test are the references for the bond-list code; the
sweep loop with one eigensolve per step is the reference for
`sweep-theta`'s one eigensolve per theta orbit.
"""

from __future__ import annotations

import cmath
from itertools import permutations

import numpy as np

from nhskin.errors import BandTouching, ConfigError, NonPositiveSize
from nhskin.model import OBC, PBC, Bonds, bonds, build_bdg, onsite_potential
from nhskin.nonbloch import band_energies
from nhskin.spectra import eigendecompose, skin_metrics
from nhskin.symmetry import commutator_residual, ring_candidates, theorem_verdict


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


def band_energies_half_shifted(spec, num_k: int) -> np.ndarray:
    """`band_energies` on the grid k = 2 pi (m + 1/2) / num_k, which avoids
    the band edges k = 0 and pi, where some end-condition denominators have
    genuine 0/0 points: the odd points of the doubled grid, exactly."""
    return band_energies(spec, 2 * num_k).reshape(2 * num_k, 2)[1::2].ravel()


def band_energies_loop(spec, num_k: int, offset: float = 0.0) -> np.ndarray:
    """Both band energies on beta = e^{ik}, one 2x2 eigvals call per k."""
    out = np.empty(2 * num_k, dtype=complex)
    for m in range(num_k):
        b = np.exp(2j * np.pi * (m + offset) / num_k)
        out[2 * m:2 * m + 2] = np.linalg.eigvals(bloch_matrix_scalar(spec, b))
    return out


def char_poly_residual(spec, E, beta):
    """The characteristic expression; zero iff (E, beta) is on shell.

    Equals det[H(beta) - E I] identically, which the tests cross-check.
    E and beta broadcast against each other.
    """
    a = spec.delta ** 2 - spec.t ** 2 + spec.gamma ** 2 / 4.0
    bi = 1.0 / beta
    return (a * (beta ** 2 + bi ** 2 - 2.0)
            + E * spec.gamma * (beta - bi)
            + (E * E - 4.0 * spec.t ** 2))


def quartic_coefficients(spec, E: complex) -> list[complex]:
    """Coefficients of beta^4..beta^0 after clearing beta^-2, for np.roots."""
    a = spec.delta ** 2 - spec.t ** 2 + spec.gamma ** 2 / 4.0
    return [a, E * spec.gamma, E * E - 4.0 * spec.t ** 2 - 2.0 * a,
            -E * spec.gamma, a]


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


def zak_phase_loop(spec, band: str = "plus", grid: int = 4096) -> tuple[float, float]:
    """(phase, residual) of the Wilson loop, one grid point at a time.

    Two 2x2 `eig` calls per point (H and its adjoint) and band
    continuity by the larger overlap with the previous left vector;
    BandTouching where the gap at a grid point is at most 1e-8 or a
    left/right overlap vanishes.  The model's input checks and the
    delta = 0 case are left to the caller.
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
        if gap <= 1e-8:
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


def density_profile_loop(state: np.ndarray, num_sites: int):
    """Site density, center of mass and participation ratio of one state
    vector (length L, or 2L folded over its two halves)."""
    v = np.asarray(state).ravel()
    if len(v) == 2 * num_sites:
        rho = np.abs(v[:num_sites]) ** 2 + np.abs(v[num_sites:]) ** 2
    else:
        rho = np.abs(v) ** 2
    rho = rho / rho.sum()
    sites = np.arange(1, num_sites + 1)
    return rho, float((sites * rho).sum()), float(1.0 / (rho ** 2).sum())


def _beta_pair(x: complex) -> tuple[complex, complex]:
    """Roots of beta^2 - x beta - 1 = 0, smaller modulus first."""
    r = np.sqrt(complex(x * x + 4.0))
    b1 = (x + r) / 2.0
    b2 = (x - r) / 2.0
    if abs(b1) > abs(b2) or (abs(b1) == abs(b2) and np.angle(b1) > np.angle(b2)):
        b1, b2 = b2, b1
    return complex(b1), complex(b2)


def solve_beta_scalar(spec, E: complex) -> dict:
    """The beta quartet at one energy, off the degenerate line: `roots`
    maps the labels 1+, 2+, 1-, 2- to the roots, with `sorted_moduli`,
    `continuum_case` (the three-way modulus ordering test, case1 first)
    and `mid_modulus_gap`."""
    E = complex(E)
    a = spec.delta ** 2 - spec.t ** 2 + spec.gamma ** 2 / 4.0
    sq = np.sqrt(complex((E * spec.gamma) ** 2 - 4.0 * a * (E * E - 4.0 * spec.t ** 2)))
    roots = {}
    for label, x in (("+", (-E * spec.gamma + sq) / (2.0 * a)),
                     ("-", (-E * spec.gamma - sq) / (2.0 * a))):
        roots["1" + label], roots["2" + label] = _beta_pair(x)
    mods = np.sort(np.abs(np.array([roots[k] for k in ("1+", "2+", "1-", "2-")])))
    m = {k: abs(v) for k, v in roots.items()}
    rtol = 1e-6

    def ordered(lo, mid_a, mid_b, hi):
        equal = abs(m[mid_a] - m[mid_b]) <= rtol * max(m[mid_a], m[mid_b])
        below = m[lo] <= min(m[mid_a], m[mid_b]) * (1.0 + rtol)
        above = m[hi] * (1.0 + rtol) >= max(m[mid_a], m[mid_b])
        return equal and below and above

    case = ("case1" if ordered("1+", "1-", "2-", "2+")
            else "case2" if ordered("1-", "1+", "2+", "2-") else "neither")
    return {"roots": roots, "sorted_moduli": mods, "continuum_case": case,
            "mid_modulus_gap": float(abs(mods[2] - mods[1]))}


def boundary_determinant_scalar(spec, E: complex) -> complex:
    """The normalized condition determinant at one energy of the open
    chain of spec.num_sites sites: coefficients
    per root label, columns 1+, 1-, 2-, 2+, and the 24 Leibniz terms
    from a double loop over each permutation's inversions, each with its
    two beta^(L-1) factors as one exponential relative to the largest
    pair of columns, summed and divided by the largest term."""
    E = complex(E)
    t, g, d = spec.t, spec.gamma, spec.delta
    roots = solve_beta_scalar(spec, E)["roots"]
    M, logs = [], []
    for b in (roots[k] for k in ("1+", "1-", "2-", "2+")):
        bi = 1.0 / b
        denom = E - (t + g / 2.0) * bi - (t - g / 2.0) * b
        r = d * (b - bi) / denom
        M.append([E * b + (t + g / 2.0) * b * b + d * b * b * r,
                  r * (E * b - (t - g / 2.0) * b * b) - d * b * b,
                  E * b + (t - g / 2.0) - d * r,
                  d * (E * b - 2.0 * t) / denom * b])
        logs.append((spec.num_sites - 1) * np.log(b))
    M = np.array(M).T
    M = (M / np.maximum(np.abs(M).max(axis=1, keepdims=True), 1e-300)).tolist()
    logs = np.array(logs)
    logs = (logs - np.sort(logs.real)[-2:].sum() / 2).tolist()
    terms = []
    for p in permutations(range(4)):
        sgn = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sgn = -sgn
        terms.append(sgn * M[0][p[0]] * M[1][p[1]] * M[2][p[2]] * M[3][p[3]]
                     * cmath.exp(logs[p[2]] + logs[p[3]]))
    return complex(sum(terms) / max(max(abs(x) for x in terms), 1e-300))


def build_single_particle(spec) -> np.ndarray:
    """The L x L hopping block h (plus the onsite potential), filled by a loop."""
    L = spec.num_sites
    h = np.zeros((L, L), dtype=complex)
    fwd = -(spec.t + spec.gamma / 2.0)
    bwd = -(spec.t - spec.gamma / 2.0)
    for i in range(L - 1):
        h[i, i + 1] = fwd
        h[i + 1, i] = bwd
    if spec.boundary == PBC:
        h[L - 1, 0] += fwd
        h[0, L - 1] += bwd
    h += np.diag(onsite_potential(spec).astype(complex))
    return h


def pairing_block(spec) -> np.ndarray:
    """The L x L pairing block dm, filled by a loop."""
    L = spec.num_sites
    dm = np.zeros((L, L), dtype=complex)
    for i in range(L - 1):
        dm[i, i + 1] = -spec.delta
        dm[i + 1, i] = +spec.delta
    if spec.boundary == PBC:
        dm[L - 1, 0] += -spec.delta
        dm[0, L - 1] += +spec.delta
    return dm


def build_bdg_loop(spec) -> np.ndarray:
    """The dense doubled matrix [[h, dm], [-dm, -h^dag]] from the loop blocks."""
    h = build_single_particle(spec)
    dm = pairing_block(spec)
    return np.block([[h, dm], [-dm, -h.conj().T]])


def bonds_of(H) -> Bonds:
    """The bond list of a dense real matrix: its nonzero entries, row-major."""
    H = np.asarray(H)
    rows, cols = np.nonzero(H)
    return Bonds(rows, cols, H[rows, cols].real.astype(float), len(H))


def build_reflection(L: int, staggered: bool, center: int | None = None) -> np.ndarray:
    """Signed site reflection R with R[n, L+1-n] = (-1)^n (1-based sites).

    With `center` given (0-based, periodic), the image of site i is
    (center - i) mod L instead of the open-chain mirror.
    """
    if L < 2:
        raise NonPositiveSize(f"reflection needs L >= 2, got {L}")
    R = np.zeros((L, L))
    for i in range(L):
        j = (L - 1 - i) if center is None else (center - i) % L
        R[i, j] = (-1.0) ** (i + 1) if staggered else 1.0
    return R


# The internal factors written out here, not read from the package's
# table, so that the dense operators check that table too.
PAULI_MATRICES = {"sx": np.array([[0, 1], [1, 0]], dtype=complex),
                  "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
                  "sz": np.array([[1, 0], [0, -1]], dtype=complex),
                  "id": np.eye(2, dtype=complex)}


def symmetry_matrix(S, L: int) -> np.ndarray:
    """Dense 2L x 2L form kron(internal factor, build_reflection(...)) of a SymmetryOp."""
    return np.kron(PAULI_MATRICES[S.internal],
                   build_reflection(L, S.staggered, S.center))


def is_reducible_dense(H: np.ndarray) -> tuple[bool, list[list[int]]]:
    """Reducibility from the dense matrix: edges where |H| exceeds 1e-14 max|H|."""
    A = np.abs(H)
    nz = A > 1e-14 * max(A.max(), 1e-300)
    # transitive closure by repeated squaring: row k lists k's component
    reach = nz | nz.T | np.eye(len(H), dtype=bool)
    while not np.array_equal(step := (reach.astype(int) @ reach.astype(int)) > 0, reach):
        reach = step
    components = sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})
    return len(components) > 1, [list(c) for c in components]


def pbc_spectrum(spec) -> np.ndarray:
    """Eigenvalues of the closed ring, ordered by (Re, Im)."""
    if spec.boundary != PBC:
        raise ConfigError("pbc_spectrum requires boundary='pbc'")
    vals = np.linalg.eigvals(build_bdg_loop(spec))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def set_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy matched distance between two equal-size complex multisets."""
    a = np.asarray(a, dtype=complex)
    rem = list(np.asarray(b, dtype=complex))
    worst = 0.0
    for x in a:
        d = np.abs(np.array(rem) - x)
        k = int(np.argmin(d))
        worst = max(worst, float(d[k]))
        rem.pop(k)
    return worst


def negation_distance(values: np.ndarray) -> float:
    """How far the spectrum is from its own negation (particle-hole test)."""
    return set_distance(values, -np.asarray(values))


def sweep_theta_loop(spec, args, ring_sites: int):
    """`sweep-theta`'s rows and ill-conditioned steps with one eigensolve
    and skin report per step: (rows, flagged steps)."""
    candidates = ring_candidates()
    rows, flagged = [], []
    for s in range(args.steps):
        theta = 2.0 * np.pi * s / args.steps
        obc_spec = spec.replace(theta=theta, boundary=OBC)
        es = eigendecompose(build_bdg(obc_spec), obc_spec.num_sites)
        if es.ill_conditioned:
            flagged.append(s)
        report = skin_metrics(es, args.tau_skin, args.edge_sites, args.w_edge)
        H_ring = bonds(spec.replace(theta=theta, boundary=PBC, L=ring_sites))
        verdict = theorem_verdict(H_ring, candidates, args.tol)
        residual = verdict.residual
        if residual is None:
            residual = min(commutator_residual(H_ring, c) for c in candidates)
        rows.append((s, theta, residual, verdict.kind, report.skew,
                     report.accumulation, report.skin_detected))
    return rows, flagged
