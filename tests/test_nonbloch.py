import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nhskin import (
    ModelSpec,
    band_energies,
    bloch_matrix,
    build_bdg,
    char_poly_residual,
    continuum_condition,
    gbz_modulus_report,
    solve_beta,
    zak_phase,
)
from nhskin.errors import (
    BandTouching,
    DegenerateLeadingCoeff,
    GbzNotCircle,
    UnsupportedPotential,
    ZeroBeta,
)
from nhskin.nonbloch import (
    BRANCH_ORDER,
    CASE_MINUS_MIDDLE,
    CASE_NEITHER,
    CASE_PLUS_MIDDLE,
    MID_EQUAL_RTOL,
    quartic_coefficients,
    wilson_loop_phase,
)
from oracles import (band_energies_loop, pbc_spectrum, set_distance, solve_beta_scalar,
                     zak_phase_loop)

REFERENCE = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=100)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_bloch_matrix_at_unity():
    # beta = 1/beta kills every difference term
    M = bloch_matrix(REFERENCE, 1.0)
    assert np.abs(M + 2.0 * SIGMA_Z).max() <= 1e-15


def test_bloch_matrix_at_i():
    M = bloch_matrix(REFERENCE, 1.0j)
    want = -1.5j * np.eye(2) + SIGMA_Y
    assert np.abs(M - want).max() <= 1e-14


def test_bloch_matrix_guards():
    with pytest.raises(ZeroBeta):
        bloch_matrix(REFERENCE, 0.0)
    with pytest.raises(UnsupportedPotential):
        bloch_matrix(REFERENCE.replace(V=2.0), 1.0)


def test_char_poly_trivial_zero():
    # E = -2t, beta = 1: both difference terms and E^2 - 4t^2 vanish
    assert abs(char_poly_residual(REFERENCE, -2.0, 1.0)) <= 1e-14


def test_char_poly_is_determinant():
    rng = np.random.default_rng(5)
    for _ in range(25):
        E = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(beta) < 0.1:
            continue
        det = np.linalg.det(bloch_matrix(REFERENCE, beta) - E * np.eye(2))
        res = char_poly_residual(REFERENCE, E, beta)
        assert abs(det - res) <= 1e-12 * max(abs(det), 1.0)


def test_solved_roots_satisfy_char_poly():
    rng = np.random.default_rng(6)
    for _ in range(30):
        E = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        q = solve_beta(REFERENCE, E)
        scale = max(abs(E) ** 2, REFERENCE.t ** 2)
        for b in q.roots[0]:
            assert abs(char_poly_residual(REFERENCE, E, b)) <= 1e-9 * scale


def test_vieta_pair_products():
    rng = np.random.default_rng(7)
    for _ in range(50):
        E = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b1p, b2p, b1m, b2m = solve_beta(REFERENCE, E).roots[0]
        assert abs(b1p * b2p + 1.0) <= 1e-10
        assert abs(b1m * b2m + 1.0) <= 1e-10
        prod = np.prod([b1p, b2p, b1m, b2m])
        assert abs(prod - 1.0) <= 1e-9


def test_roots_match_companion_matrix():
    rng = np.random.default_rng(8)
    for _ in range(100):
        E = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        mine = np.sort_complex(solve_beta(REFERENCE, E).roots[0])
        other = np.sort_complex(np.roots(quartic_coefficients(REFERENCE, E)))
        # sorting complex values can swap near-ties; compare as multisets
        assert set_distance(mine, other) <= 1e-9


def test_moduli_come_in_reciprocal_pairs():
    for E in (0.7 + 0.4j, 0.0 + 0.0j):
        q = solve_beta(REFERENCE, E)
        m = q.sorted_moduli[0]
        assert abs(m[0] * m[3] - 1.0) <= 1e-10
        assert abs(m[1] * m[2] - 1.0) <= 1e-10


def test_quartet_at_zero_energy():
    # x^2 coefficient is delta^2 - t^2 + gamma^2/4 = -0.1875 here and the
    # x term drops out, so the two branches are exact negatives
    b1p, b2p, b1m, b2m = solve_beta(REFERENCE, 0.0).roots[0]
    assert abs(b1p * b2p + 1.0) <= 1e-12
    assert abs(b1m * b2m + 1.0) <= 1e-12
    moduli_plus = sorted([abs(b1p), abs(b2p)])
    moduli_minus = sorted([abs(b1m), abs(b2m)])
    assert np.allclose(moduli_plus, moduli_minus, rtol=1e-10)


def test_reciprocal_limit_roots_on_unit_circle():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=10)
    k = 0.9
    q = solve_beta(spec, -2.0 * np.cos(k))
    assert np.abs(np.abs(q.roots[0]) - 1.0).max() <= 1e-10
    # particle band contributes e^{+-ik}, the hole band -e^{-+ik}
    phases = np.sort(np.angle(q.roots[0]))
    want = np.sort([k, -k, np.pi - k, -(np.pi - k)])
    assert np.abs(phases - want).max() <= 1e-9


def test_degenerate_leading_coefficient_flagged():
    spec = ModelSpec(t=1.0, gamma=1.0, delta=np.sqrt(0.75), num_sites=10)
    q = solve_beta(spec, 1.0 + 0.5j)
    assert q.degenerate_leading
    b1p, b2p, b1m, b2m = q.roots[0]
    assert np.isfinite([b1p, b2p]).all() and np.isnan([b1m, b2m]).all()
    assert abs(b1p * b2p + 1.0) <= 1e-10
    with pytest.raises(DegenerateLeadingCoeff):
        solve_beta(spec, 0.0)  # reduced equation loses its x term


def test_continuum_condition_on_band_energies():
    q = solve_beta(REFERENCE, band_energies(REFERENCE, 17))
    assert np.isin(q.continuum_case, (CASE_MINUS_MIDDLE, CASE_PLUS_MIDDLE)).all()
    assert np.abs(q.sorted_moduli[:, 1:3] - 1.0).max() <= 1e-6


def test_continuum_condition_far_from_spectrum():
    q = solve_beta(REFERENCE, 10.0 + 10.0j)
    assert continuum_condition(q.roots) == [CASE_NEITHER]


def test_continuum_condition_hermitian_limit():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=10)
    q = solve_beta(spec, -2.0 * np.cos(1.1))
    assert np.abs(q.sorted_moduli - 1.0).max() <= 1e-10
    assert continuum_condition(q.roots) != [CASE_NEITHER]


def test_gbz_report_band_energies_on_unit_circle():
    q = gbz_modulus_report(REFERENCE, band_energies(REFERENCE, 25))
    assert q.mid_deviation.max() <= 1e-6


def test_gbz_finite_chain_deviation_shrinks_with_length():
    # finite open chains sit near, not on, the band curve: the middle
    # moduli deviate O(1/L), halving when L doubles
    devs = {}
    for L in (50, 100):
        vals = np.linalg.eigvals(build_bdg(REFERENCE.replace(L=L)))
        devs[L] = gbz_modulus_report(REFERENCE, vals[np.abs(vals) > 1e-6]).mid_deviation.max()
    assert 0.3 <= devs[100] / devs[50] <= 0.7
    assert devs[100] < 0.05


def test_gbz_mirror_energy_same_moduli():
    for E in (0.9 + 0.2j, -1.3 + 0.7j, 2.0 - 0.1j):
        qp = solve_beta(REFERENCE, E)
        qm = solve_beta(REFERENCE, -E)
        assert np.abs(qp.sorted_moduli - qm.sorted_moduli).max() <= 1e-10


def test_zak_phase_reference_chain_is_pi():
    res = zak_phase(REFERENCE, band="plus", grid=4096)
    assert abs(abs(res.phase) - np.pi) <= 1e-2
    res_m = zak_phase(REFERENCE, band="minus", grid=4096)
    assert abs(abs(res_m.phase) - np.pi) <= 1e-2


def test_zak_phase_trivial_chain_is_zero():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=10)
    res = zak_phase(spec, band="plus", grid=256)
    assert abs(res.phase) <= 1e-6


def test_zak_phase_grid_convergence():
    p1 = zak_phase(REFERENCE, grid=512).phase
    p2 = zak_phase(REFERENCE, grid=1024).phase
    delta = abs(p1 - p2)
    delta = min(delta, 2.0 * np.pi - delta)  # phases live on the circle
    assert delta < 1e-3


def test_wilson_loop_gauge_invariance():
    rng = np.random.default_rng(9)
    n = 64
    lefts, rights = [], []
    for k in range(n):
        Hb = bloch_matrix(REFERENCE, np.exp(2j * np.pi * k / n))
        w, VR = np.linalg.eig(Hb)
        idx = int(np.argmax(w.real))
        r = VR[:, idx]
        wl, WL = np.linalg.eig(Hb.conj().T)
        jdx = int(np.argmin(np.abs(np.conj(wl) - w[idx])))
        l = WL[:, jdx].conj()
        l = l / (l @ r)
        lefts.append(l)
        rights.append(r)
    base = wilson_loop_phase(lefts, rights)
    gauges = rng.normal(size=n) + 1j * rng.normal(size=n)
    gauged_l = [l / g for l, g in zip(lefts, gauges)]
    gauged_r = [r * g for r, g in zip(rights, gauges)]
    assert abs(wilson_loop_phase(gauged_l, gauged_r) - base) <= 1e-10


def test_zak_phase_band_touching_detected():
    spec = ModelSpec(t=0.0, gamma=0.1, delta=0.5, num_sites=10)
    with pytest.raises(BandTouching):
        zak_phase(spec, grid=256)


def test_zak_phase_requires_four_roots():
    spec = ModelSpec(t=1.0, gamma=1.0, delta=np.sqrt(0.75), num_sites=10)
    with pytest.raises(GbzNotCircle):
        zak_phase(spec, grid=256)


def test_zak_phase_rejects_potential():
    with pytest.raises(UnsupportedPotential):
        zak_phase(REFERENCE.replace(V=1.0, L=99), grid=256)


# gapped points: the README chain, a perfbench-box point, a weak-hopping one
GAPPED = [REFERENCE, ModelSpec(t=1.0, gamma=1.3, delta=0.35, num_sites=10),
          ModelSpec(t=0.3, gamma=2.0, delta=0.9, num_sites=10)]


@pytest.mark.parametrize("grid", [64, 1000, 1025, 3000])
@pytest.mark.parametrize("spec", GAPPED)
def test_zak_phase_matches_point_loop(spec, grid):
    # 1025 and 3000 cross block edges, so the carried member is exercised
    for band in ("plus", "minus"):
        res = zak_phase(spec, band=band, grid=grid)
        phase, residual = zak_phase_loop(spec, band, grid)
        apart = abs(res.phase - phase) % (2.0 * np.pi)
        assert min(apart, 2.0 * np.pi - apart) <= 1e-12
        assert res.residual <= 1e-14 and residual <= 1e-14


@pytest.mark.parametrize("spec,grid,gap_tol", [
    (ModelSpec(t=0.0, gamma=0.1, delta=0.5, num_sites=10), 256, 1e-8),
    (ModelSpec(t=0.0, gamma=0.1, delta=0.5, num_sites=10), 1000, 1e-8),
    (ModelSpec(t=0.0, gamma=0.1, delta=0.5, num_sites=10), 3000, 1e-8),
    # the gap first drops below 1.25 at point 1177, in the second block
    (ModelSpec(t=1.0, gamma=1.5, delta=0.3, num_sites=10), 5000, 1.25),
])
def test_band_touching_message_matches_point_loop(spec, grid, gap_tol):
    with pytest.raises(BandTouching) as got:
        zak_phase(spec, grid=grid, gap_tol=gap_tol)
    with pytest.raises(BandTouching) as want:
        zak_phase_loop(spec, "plus", grid, gap_tol)
    assert str(got.value) == str(want.value)


def test_zak_phase_parallel_right_vectors_raise_band_touching(monkeypatch):
    # a singular right-vector matrix has no inverse: it is reported as a
    # vanished left/right overlap at the first such point, not a LinAlgError
    eig = np.linalg.eig

    def parallel_at_700(H):
        w, VR = eig(H)
        if len(H) > 700:
            VR[700, :, 1] = VR[700, :, 0]
        return w, VR
    monkeypatch.setattr(np.linalg, "eig", parallel_at_700)
    with pytest.raises(BandTouching, match="overlap vanished at grid point 700$"):
        zak_phase(REFERENCE, grid=1000)


@pytest.mark.parametrize("num_k,offset", [(17, 0.0), (33, 0.5)])
def test_band_energies_match_point_loop_bit_for_bit(num_k, offset):
    assert np.array_equal(band_energies(REFERENCE, num_k, offset),
                          band_energies_loop(REFERENCE, num_k, offset))


def test_bloch_matrix_stack_matches_scalar_calls():
    beta = np.exp(1j * np.linspace(0.0, 6.0, 7)) * 1.3
    stack = bloch_matrix(REFERENCE, beta)
    assert stack.shape == (7, 2, 2)
    for b, M in zip(beta, stack):
        assert np.array_equal(M, bloch_matrix(REFERENCE, b))
    with pytest.raises(ZeroBeta):
        bloch_matrix(REFERENCE, np.array([1.0, 0.0]))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(0.0, 3.0), delta=st.floats(0.1, 1.5))
def test_zak_phase_quantized_and_grid_converged(gamma, delta):
    # t = 1 and delta != 0 keep the bands gapped on the whole circle; the
    # line delta^2 - 1 + gamma^2/4 = 0 loses two beta roots
    assume(abs(delta ** 2 - 1.0 + gamma ** 2 / 4.0) > 0.05)
    spec = ModelSpec(t=1.0, gamma=gamma, delta=delta, num_sites=10)
    coarse, fine = (zak_phase(spec, grid=grid).phase for grid in (1024, 4096))
    assert min(abs(coarse), abs(abs(coarse) - np.pi)) <= 1e-8
    apart = abs(coarse - fine) % (2.0 * np.pi)
    assert min(apart, 2.0 * np.pi - apart) <= 1e-8


def test_band_energies_match_ring_spectrum():
    # sampling both bands over L points reproduces the closed-ring
    # spectrum; cross-oracle with the real-space build
    spec = REFERENCE.replace(L=30, boundary="pbc")
    ring = pbc_spectrum(spec)
    bands = band_energies(REFERENCE.replace(L=30), 30)
    H = build_bdg(spec)
    assert set_distance(ring, bands) <= 1e-9 * np.linalg.norm(H)


def test_branch_labels_are_complete():
    q = solve_beta(REFERENCE, 0.3 - 1.1j)
    assert BRANCH_ORDER == ("1+", "2+", "1-", "2-") and q.roots.shape == (1, 4)
    b1p, b2p, b1m, b2m = q.roots[0]
    assert abs(b1p) <= abs(b2p)
    assert abs(b1m) <= abs(b2m)


@st.composite
def _off_line_specs(draw):
    """Couplings at least 5% (of the largest term) off the degenerate line."""
    t, gamma = draw(st.floats(0.3, 2.0)), draw(st.floats(0.0, 3.0))
    delta = draw(st.floats(0.1, 1.5))
    assume(abs(delta ** 2 - t ** 2 + gamma ** 2 / 4.0)
           >= 0.05 * max(delta ** 2, t ** 2, gamma ** 2 / 4.0))
    return ModelSpec(t=t, gamma=gamma, delta=delta, num_sites=10)


_ENERGIES = st.lists(st.complex_numbers(max_magnitude=5.0), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=_off_line_specs(), energies=_ENERGIES)
def test_pair_products_and_char_poly_over_parameter_space(spec, energies):
    E = np.array(energies, dtype=complex)
    b = solve_beta(spec, E).roots
    assert b.shape == (len(E), 4)
    assert np.abs(b[:, 0] * b[:, 1] + 1.0).max() <= 1e-10
    assert np.abs(b[:, 2] * b[:, 3] + 1.0).max() <= 1e-10
    # residual relative to the sum of its three terms' magnitudes
    a = abs(spec.delta ** 2 - spec.t ** 2 + spec.gamma ** 2 / 4.0)
    m, Ec = np.abs(b), E[:, None]
    scale = (a * (m ** 2 + m ** -2 + 2.0) + np.abs(Ec * spec.gamma) * (m + 1.0 / m)
             + np.abs(Ec) ** 2 + 4.0 * spec.t ** 2)
    assert (np.abs(char_poly_residual(spec, Ec, b)) <= 1e-10 * scale).all()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=_off_line_specs(), num_k=st.integers(1, 40))
def test_middle_moduli_on_unit_circle_at_band_energies(spec, num_k):
    # next to a band edge the roots nearly coincide, so they hold only to
    # about sqrt(eps); MID_EQUAL_RTOL is the code's own allowance for it
    q = solve_beta(spec, band_energies(spec, num_k, offset=0.5))
    assert q.mid_deviation.max() <= MID_EQUAL_RTOL
    assert np.isin(q.continuum_case, (CASE_MINUS_MIDDLE, CASE_PLUS_MIDDLE)).all()


@pytest.mark.parametrize("spec", GAPPED + [ModelSpec(t=1.0, gamma=0.0, delta=0.4, num_sites=10),
                                           ModelSpec(t=0.8, gamma=2.5, delta=1.2, num_sites=10)])
def test_solve_beta_matches_per_energy_reference(spec):
    # the band edges k = 0 and pi are left out: at a double root, array and
    # scalar rounding of the discriminant move the moduli by ~sqrt(eps)
    rng = np.random.default_rng(11)
    E = np.concatenate([band_energies(spec, 60, offset=0.5),
                        band_energies(spec, 7, offset=0.5) * 1.01,
                        rng.uniform(-4, 4, 60) + 1j * rng.uniform(-4, 4, 60), [0.0]])
    q = solve_beta(spec, E)
    for i, e in enumerate(E):
        want = solve_beta_scalar(spec, e)
        assert np.abs(q.sorted_moduli[i] / want["sorted_moduli"] - 1.0).max() <= 1e-10
        assert q.continuum_case[i] == want["continuum_case"]
        assert abs(q.mid_modulus_gap[i] - want["mid_modulus_gap"]) <= 1e-10
