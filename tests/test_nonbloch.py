import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nhskin import (
    ModelSpec,
    band_energies,
    boundary_coeffs,
    boundary_determinant,
    build_bdg,
    continuum_condition,
    continuum_ratio,
    solve_beta,
    zak_phase,
)
from nhskin.errors import (
    BandTouching,
    ConfigError,
    DegenerateLeadingCoeff,
    NonFinite,
    UnsupportedPotential,
)
from nhskin.nonbloch import (
    BRANCH_ORDER,
    CASE_MINUS_MIDDLE,
    CASE_NEITHER,
    CASE_PLUS_MIDDLE,
    MID_EQUAL_RTOL,
    gbz_modulus_report,
)
from oracles import (band_energies_half_shifted, band_energies_loop, bloch_matrix_scalar,
                     char_poly_residual, pbc_spectrum, quartic_coefficients, set_distance,
                     solve_beta_scalar, wilson_loop_phase_loop, zak_phase_loop)

REFERENCE = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=100)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


# the reference Bloch matrix that band_energies and zak_phase are checked against

def test_bloch_matrix_at_unity():
    # beta = 1/beta kills every difference term
    M = bloch_matrix_scalar(REFERENCE, 1.0)
    assert np.abs(M + 2.0 * SIGMA_Z).max() <= 1e-15


def test_bloch_matrix_at_i():
    M = bloch_matrix_scalar(REFERENCE, 1.0j)
    want = -1.5j * np.eye(2) + SIGMA_Y
    assert np.abs(M - want).max() <= 1e-14


def test_band_energies_guards():
    with pytest.raises(UnsupportedPotential):
        band_energies(REFERENCE.replace(V=2.0), 8)
    with pytest.raises(ConfigError, match="num_k must be positive"):
        band_energies(REFERENCE, 0)


@pytest.mark.parametrize("call", [
    lambda spec, E: band_energies(spec, 8),
    solve_beta,
    lambda spec, E: zak_phase(spec),
    boundary_determinant,
    continuum_ratio,
], ids=["band_energies", "solve_beta", "zak_phase", "boundary_determinant", "continuum_ratio"])
def test_every_nonbloch_function_refuses_a_potential(call):
    # at the V = 2 chain's own eigenvalues the V = 0 answer would look plausible
    spec = REFERENCE.replace(V=2.0, L=10)
    E = np.linalg.eigvals(build_bdg(spec))
    with pytest.raises(UnsupportedPotential, match="require V = 0"):
        call(spec, E)


_ENERGY_FUNCTIONS = pytest.mark.parametrize("call", [
    solve_beta,
    lambda spec, E: boundary_coeffs(spec, E, np.array([[0.5, -2.0, 0.25j, 4.0j]])),
    boundary_determinant,
    continuum_ratio,
], ids=["solve_beta", "boundary_coeffs", "boundary_determinant", "continuum_ratio"])


@_ENERGY_FUNCTIONS
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "-infj"])
def test_every_energy_function_refuses_a_non_finite_energy(call, bad):
    # the finite energy first: the message names the offending one
    with pytest.raises(NonFinite, match=re.escape(f"energy {complex(bad)} is not finite")):
        call(REFERENCE, [0.5 + 0.1j, bad])


@_ENERGY_FUNCTIONS
@pytest.mark.parametrize("huge", [1e100, 1e200, -1e200j], ids=["1e100", "1e200", "-1e200j"])
def test_every_energy_function_refuses_a_huge_energy(call, huge):
    # past about 1e78 the boundary minors overflow, and past about 1e155
    # the quartic: a typed refusal instead of NaN and RuntimeWarnings
    with pytest.raises(ConfigError, match=re.escape(f"energy {complex(huge)} is out of range")):
        call(REFERENCE, [0.5 + 0.1j, huge])


@_ENERGY_FUNCTIONS
def test_every_energy_function_is_finite_at_a_large_energy(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = call(REFERENCE, [0.5 + 0.1j, 1e50, -1e50j])
    assert np.isfinite(np.asarray(getattr(out, "roots", out))).all()


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
        det = np.linalg.det(bloch_matrix_scalar(REFERENCE, beta) - E * np.eye(2))
        res = char_poly_residual(REFERENCE, E, beta)
        assert abs(det - res) <= 1e-12 * max(abs(det), 1.0)


def test_solved_roots_satisfy_char_poly():
    rng = np.random.default_rng(6)
    for _ in range(30):
        E = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        scale = max(abs(E) ** 2, REFERENCE.t ** 2)
        for b in solve_beta(REFERENCE, E)[0]:
            assert abs(char_poly_residual(REFERENCE, E, b)) <= 1e-9 * scale


def test_vieta_pair_products():
    rng = np.random.default_rng(7)
    for _ in range(50):
        E = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b1p, b2p, b1m, b2m = solve_beta(REFERENCE, E)[0]
        assert abs(b1p * b2p + 1.0) <= 1e-10
        assert abs(b1m * b2m + 1.0) <= 1e-10
        prod = np.prod([b1p, b2p, b1m, b2m])
        assert abs(prod - 1.0) <= 1e-9


def test_roots_match_companion_matrix():
    rng = np.random.default_rng(8)
    for _ in range(100):
        E = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        mine = np.sort_complex(solve_beta(REFERENCE, E)[0])
        other = np.sort_complex(np.roots(quartic_coefficients(REFERENCE, E)))
        # sorting complex values can swap near-ties; compare as multisets
        assert set_distance(mine, other) <= 1e-9


def test_moduli_come_in_reciprocal_pairs():
    for E in (0.7 + 0.4j, 0.0 + 0.0j):
        m = gbz_modulus_report(REFERENCE, E)[0][0]
        assert abs(m[0] * m[3] - 1.0) <= 1e-10
        assert abs(m[1] * m[2] - 1.0) <= 1e-10


def test_quartet_at_zero_energy():
    # x^2 coefficient is delta^2 - t^2 + gamma^2/4 = -0.1875 here and the
    # x term drops out, so the two branches are exact negatives
    b1p, b2p, b1m, b2m = solve_beta(REFERENCE, 0.0)[0]
    assert abs(b1p * b2p + 1.0) <= 1e-12
    assert abs(b1m * b2m + 1.0) <= 1e-12
    moduli_plus = sorted([abs(b1p), abs(b2p)])
    moduli_minus = sorted([abs(b1m), abs(b2m)])
    assert np.allclose(moduli_plus, moduli_minus, rtol=1e-10)


def test_reciprocal_limit_roots_on_unit_circle():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=10)
    k = 0.9
    b = solve_beta(spec, -2.0 * np.cos(k))[0]
    assert np.abs(np.abs(b) - 1.0).max() <= 1e-10
    # particle band contributes e^{+-ik}, the hole band -e^{-+ik}
    phases = np.sort(np.angle(b))
    want = np.sort([k, -k, np.pi - k, -(np.pi - k)])
    assert np.abs(phases - want).max() <= 1e-9


def test_degenerate_leading_coefficient_flagged():
    # on delta^2 - t^2 + gamma^2/4 = 0 the quartic keeps two roots only,
    # at every energy; with t, gamma and delta all 0 it has none
    for t, gamma, delta in [(1.0, 1.0, np.sqrt(0.75)), (0.0, 0.0, 0.0)]:
        spec = ModelSpec(t=t, gamma=gamma, delta=delta, num_sites=10)
        for E in (1.0 + 0.5j, 0.0):
            with pytest.raises(DegenerateLeadingCoeff, match="two roots, not four"):
                solve_beta(spec, E)


@pytest.mark.parametrize("off", [1e-6, 7e-11, 1e-12, 1e-13])
def test_middle_moduli_hold_next_to_the_degenerate_line(off):
    # delta^2 - t^2 + gamma^2/4, the x quadratic's leading coefficient, is
    # ~2 sqrt(0.75) off here: its smaller root must not cancel, nor the
    # smaller beta of each branch
    spec = ModelSpec(t=1.0, gamma=1.0, delta=np.sqrt(0.75) + off, num_sites=10)
    m, _, _ = gbz_modulus_report(spec, band_energies_half_shifted(spec, 50))
    assert np.abs(m[:, 1:3] - 1.0).max() <= 1e-7


def test_continuum_condition_on_band_energies():
    m, case, _ = gbz_modulus_report(REFERENCE, band_energies(REFERENCE, 17))
    assert np.isin(case, (CASE_MINUS_MIDDLE, CASE_PLUS_MIDDLE)).all()
    assert np.abs(m[:, 1:3] - 1.0).max() <= 1e-6


def test_continuum_condition_far_from_spectrum():
    assert continuum_condition(solve_beta(REFERENCE, 10.0 + 10.0j)) == [CASE_NEITHER]


def test_continuum_condition_hermitian_limit():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=10)
    b = solve_beta(spec, -2.0 * np.cos(1.1))
    assert np.abs(np.abs(b) - 1.0).max() <= 1e-10
    assert continuum_condition(b) != [CASE_NEITHER]


def test_gbz_report_band_energies_on_unit_circle():
    m, _, _ = gbz_modulus_report(REFERENCE, band_energies(REFERENCE, 25))
    assert np.abs(m[:, 1:3] - 1.0).max() <= 1e-6


def test_gbz_finite_chain_deviation_shrinks_with_length():
    # finite open chains sit near, not on, the band curve: the middle
    # moduli deviate O(1/L), halving when L doubles
    devs = {}
    for L in (50, 100):
        vals = np.linalg.eigvals(build_bdg(REFERENCE.replace(L=L)))
        m = gbz_modulus_report(REFERENCE, vals[np.abs(vals) > 1e-6])[0]
        devs[L] = np.abs(m[:, 1:3] - 1.0).max()
    assert 0.3 <= devs[100] / devs[50] <= 0.7
    assert devs[100] < 0.05


def test_gbz_mirror_energy_same_moduli():
    for E in (0.9 + 0.2j, -1.3 + 0.7j, 2.0 - 0.1j):
        mp = gbz_modulus_report(REFERENCE, E)[0]
        mm = gbz_modulus_report(REFERENCE, -E)[0]
        assert np.abs(mp - mm).max() <= 1e-10


def test_zak_phase_reference_chain_is_pi():
    assert zak_phase(REFERENCE) == np.pi


def test_zak_phase_trivial_chain_is_zero():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=10)
    assert zak_phase(spec) == 0.0


def test_wilson_loop_gauge_invariance():
    rng = np.random.default_rng(9)
    n = 64
    lefts, rights = [], []
    for k in range(n):
        Hb = bloch_matrix_scalar(REFERENCE, np.exp(2j * np.pi * k / n))
        w, VR = np.linalg.eig(Hb)
        idx = int(np.argmax(w.real))
        r = VR[:, idx]
        wl, WL = np.linalg.eig(Hb.conj().T)
        jdx = int(np.argmin(np.abs(np.conj(wl) - w[idx])))
        l = WL[:, jdx].conj()
        l = l / (l @ r)
        lefts.append(l)
        rights.append(r)
    base = wilson_loop_phase_loop(lefts, rights)
    gauges = rng.normal(size=n) + 1j * rng.normal(size=n)
    gauged_l = [l / g for l, g in zip(lefts, gauges)]
    gauged_r = [r * g for r, g in zip(rights, gauges)]
    assert abs(wilson_loop_phase_loop(gauged_l, gauged_r) - base) <= 1e-10


def test_zak_phase_band_touching_detected():
    spec = ModelSpec(t=0.0, gamma=0.1, delta=0.5, num_sites=10)
    with pytest.raises(BandTouching):
        zak_phase(spec)


@pytest.mark.parametrize("t,delta,closed", [(1e-10, 0.5, True), (1.0, 1e-10, True),
                                            (1e-8, 0.5, False)])
def test_zak_phase_gap_threshold(t, delta, closed):
    # the minimum gap on the circle is exactly 4 min(|t|, |delta|)
    spec = ModelSpec(t=t, gamma=1.5, delta=delta, num_sites=10)
    if closed:
        with pytest.raises(BandTouching, match="minimum band gap"):
            zak_phase(spec)
    else:
        assert zak_phase(spec) == np.pi


def test_zak_phase_requires_four_roots():
    spec = ModelSpec(t=1.0, gamma=1.0, delta=np.sqrt(0.75), num_sites=10)
    with pytest.raises(DegenerateLeadingCoeff, match="two roots, not four"):
        zak_phase(spec)


def test_zak_phase_rejects_potential():
    with pytest.raises(UnsupportedPotential):
        zak_phase(REFERENCE.replace(V=1.0, L=99))


# gapped points: the README chain, a perfbench-box point, a weak-hopping one
GAPPED = [REFERENCE, ModelSpec(t=1.0, gamma=1.3, delta=0.35, num_sites=10),
          ModelSpec(t=0.3, gamma=2.0, delta=0.9, num_sites=10)]


def _loop_agrees(spec, grid):
    """The closed form equals the point-by-point Wilson loop of both bands
    to 1e-9 on the circle, and the loop's left vectors pair to rounding."""
    for band in ("plus", "minus"):
        phase, residual = zak_phase_loop(spec, band, grid)
        apart = abs(zak_phase(spec) - phase) % (2.0 * np.pi)
        assert min(apart, 2.0 * np.pi - apart) <= 1e-9
        assert residual <= 1e-14


@pytest.mark.parametrize("grid", [64, 1000, 1025, 3000])
@pytest.mark.parametrize("spec", GAPPED)
def test_zak_phase_matches_point_loop(spec, grid):
    # the closed form holds at any loop discretization, odd grids included
    _loop_agrees(spec, grid)


_COUPLING = st.floats(1e-3, 2.0).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=15)
@given(t=_COUPLING, gamma=st.floats(0.0, 3.0), delta=_COUPLING)
def test_closed_form_matches_continuity_oracle(t, gamma, delta):
    # the oracle follows the band by eigenvector overlap from k = 0; the
    # gap 4 sqrt(t^2 cos^2 k + delta^2 sin^2 k) stays open on the circle
    assume(abs(delta ** 2 - t ** 2 + gamma ** 2 / 4.0)
           >= 0.05 * max(delta ** 2, t ** 2, gamma ** 2 / 4.0))
    spec = ModelSpec(t=t, gamma=gamma, delta=delta, num_sites=10)
    for grid in (64, 1000):
        _loop_agrees(spec, grid)


_SIGNED = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))


@pytest.mark.parametrize("num_k,offset", [(17, 0.0), (33, 0.5)])
@settings(max_examples=50)
@given(t=_SIGNED, gamma=_SIGNED, delta=_SIGNED)
def test_band_energies_match_point_loop(num_k, offset, t, gamma, delta):
    # the closed form against one 2x2 eigvals call per k, the two bands of
    # each k matched either way round: on the circle H is the identity
    # times a number plus a Hermitian d . sigma, so both are accurate to
    # rounding relative to the couplings
    spec = ModelSpec(t=t, gamma=gamma, delta=delta, num_sites=10)
    mine = (band_energies_half_shifted(spec, num_k) if offset else
            band_energies(spec, num_k)).reshape(-1, 2)
    loop = band_energies_loop(spec, num_k, offset).reshape(-1, 2)
    err = np.minimum(np.abs(mine - loop).max(axis=1), np.abs(mine - loop[:, ::-1]).max(axis=1))
    assert err.max() <= 1e-13 * max(abs(t), abs(gamma), abs(delta), 1.0)


def test_band_energies_match_ring_spectrum():
    # sampling both bands over L points reproduces the closed-ring
    # spectrum; cross-oracle with the real-space build
    spec = REFERENCE.replace(L=30, boundary="pbc")
    ring = pbc_spectrum(spec)
    bands = band_energies(REFERENCE.replace(L=30), 30)
    H = build_bdg(spec)
    assert set_distance(ring, bands) <= 1e-9 * np.linalg.norm(H)


def test_branch_labels_are_complete():
    b = solve_beta(REFERENCE, 0.3 - 1.1j)
    assert BRANCH_ORDER == ("1+", "2+", "1-", "2-") and b.shape == (1, 4)
    b1p, b2p, b1m, b2m = b[0]
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


@settings(max_examples=100)
@given(spec=_off_line_specs(), energies=_ENERGIES)
def test_pair_products_and_char_poly_over_parameter_space(spec, energies):
    E = np.array(energies, dtype=complex)
    b = solve_beta(spec, E)
    assert b.shape == (len(E), 4)
    assert np.abs(b[:, 0] * b[:, 1] + 1.0).max() <= 1e-10
    assert np.abs(b[:, 2] * b[:, 3] + 1.0).max() <= 1e-10
    # residual relative to the sum of its three terms' magnitudes
    a = abs(spec.delta ** 2 - spec.t ** 2 + spec.gamma ** 2 / 4.0)
    m, Ec = np.abs(b), E[:, None]
    scale = (a * (m ** 2 + m ** -2 + 2.0) + np.abs(Ec * spec.gamma) * (m + 1.0 / m)
             + np.abs(Ec) ** 2 + 4.0 * spec.t ** 2)
    assert (np.abs(char_poly_residual(spec, Ec, b)) <= 1e-10 * scale).all()


@settings(max_examples=100)
@given(spec=_off_line_specs(), num_k=st.integers(1, 40))
def test_middle_moduli_on_unit_circle_at_band_energies(spec, num_k):
    # next to a band edge the roots nearly coincide, so they hold only to
    # about sqrt(eps); MID_EQUAL_RTOL is the code's own allowance for it
    m, case, _ = gbz_modulus_report(spec, band_energies_half_shifted(spec, num_k))
    assert np.abs(m[:, 1:3] - 1.0).max() <= MID_EQUAL_RTOL
    assert np.isin(case, (CASE_MINUS_MIDDLE, CASE_PLUS_MIDDLE)).all()


@pytest.mark.parametrize("spec", GAPPED + [ModelSpec(t=1.0, gamma=0.0, delta=0.4, num_sites=10),
                                           ModelSpec(t=0.8, gamma=2.5, delta=1.2, num_sites=10)])
def test_solve_beta_matches_per_energy_reference(spec):
    # the band edges k = 0 and pi are left out: at a double root, array and
    # scalar rounding of the discriminant move the moduli by ~sqrt(eps)
    rng = np.random.default_rng(11)
    E = np.concatenate([band_energies_half_shifted(spec, 60),
                        band_energies_half_shifted(spec, 7) * 1.01,
                        rng.uniform(-4, 4, 60) + 1j * rng.uniform(-4, 4, 60), [0.0]])
    mods, case, gap = gbz_modulus_report(spec, E)
    for i, e in enumerate(E):
        want = solve_beta_scalar(spec, e)
        assert np.abs(mods[i] / want["sorted_moduli"] - 1.0).max() <= 1e-10
        assert case[i] == want["continuum_case"]
        assert abs(gap[i] - want["mid_modulus_gap"]) <= 1e-10
