import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhskin import (
    ModelSpec,
    PBC,
    band_energies,
    bonds,
    build_bdg,
    classify_states,
    default_candidates,
    density_profile,
    eigendecompose,
    skin_metrics,
    theorem_verdict,
)
from nhskin.errors import ConvergenceFailure, DimMismatch, ZeroVector
from nhskin.spectra import (CLUSTER_TOL, EP_OVERLAP_TOL, KAPPA_EPS_BOUND, close_pairs,
                            left_vectors)
from oracles import (build_single_particle, density_profile_loop, negation_distance,
                     pbc_spectrum, set_distance)

REFERENCE = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=100)


@pytest.fixture(scope="module")
def reference_es():
    return eigendecompose(build_bdg(REFERENCE), 100)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_defective_jordan_block_is_reported():
    es = eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 2)
    assert es.defective == [0, 1]
    assert np.allclose(es.values, 0.0)
    # the right vectors are the solver's, both along the one eigenvector
    assert np.allclose(np.abs(es.right[0]), 1.0, atol=1e-12)


def test_exceptional_point_split_by_rounding_is_defective():
    # at theta = pi/6 this chain has exceptional points at E = +-1.934; real
    # arithmetic splits each into a conjugate pair 2.6e-8 or 4.6e-8 apart,
    # far outside CLUSTER_TOL, but the pair's right vectors stay parallel
    spec = ModelSpec(gamma=1.3942996588998975, delta=0.36033966956980074, big_v=2.0,
                     theta=np.pi / 6, num_sites=39)
    es = eigendecompose(build_bdg(spec), 39)
    assert len(es.defective) == 4
    for a, b in zip(es.defective[::2], es.defective[1::2]):
        assert CLUSTER_TOL < abs(es.values[a] - es.values[b]) < 1e-6
        assert abs(abs(es.values[a]) - 1.934) < 1e-3
        overlap = abs(np.vdot(es.right[:, a], es.right[:, b]))
        assert overlap > 1.0 - EP_OVERLAP_TOL


@pytest.mark.parametrize("spec", [REFERENCE, REFERENCE.replace(V=2.0, theta=np.pi / 3, L=97)])
def test_blocked_chain_is_well_conditioned(spec):
    verdict = theorem_verdict(bonds(spec), default_candidates())
    assert verdict.kind == "nhse_blocked"
    es = eigendecompose(build_bdg(spec), spec.num_sites)
    assert es.condition.max() <= 10.0
    assert es.ill_conditioned is False
    assert es.biorthogonality_defect <= 1e-12


def test_broken_long_chain_is_flagged():
    spec = REFERENCE.replace(V=2.0, theta=0.3, L=192)
    es = eigendecompose(build_bdg(spec), 192)
    assert es.defective == []
    assert es.ill_conditioned is True
    assert es.condition.max() * np.finfo(float).eps > KAPPA_EPS_BOUND


# Small chains for the high-precision reference (mpmath's eig is pure Python).
# At theta = pi/6 the strong potential gives kappa up to ~1e10 at L = 16; at
# theta = pi/3 the L = 10 chain is symmetry-blocked.
MP_BROKEN = ModelSpec(gamma=1.8, delta=0.5, big_v=8.0, theta=np.pi / 6, num_sites=16)
MP_BLOCKED = MP_BROKEN.replace(theta=np.pi / 3, L=10)


def _error_against_mpmath(H, values):
    """Distance of each eigenvalue to the nearest 30-digit eigenvalue, over |H|_F."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = np.array([complex(E) for E in
                        mpmath.eig(mpmath.matrix(H.tolist()), left=False, right=False)])
    return np.abs(values[:, None] - ref[None, :]).min(axis=1) / np.linalg.norm(H)


def test_condition_flag_covers_every_eigenvalue_off_the_mpmath_reference():
    H = build_bdg(MP_BROKEN)
    es = eigendecompose(H, 16)
    off = np.nonzero(_error_against_mpmath(H, es.values) > KAPPA_EPS_BOUND)[0]
    assert len(off) > 0
    assert es.ill_conditioned  # the flag covers the whole chain


def test_condition_flag_is_silent_on_the_blocked_mpmath_chain():
    H = build_bdg(MP_BLOCKED)
    assert theorem_verdict(bonds(MP_BLOCKED), default_candidates()).kind == "nhse_blocked"
    es = eigendecompose(H, 10)
    assert not es.ill_conditioned
    assert _error_against_mpmath(H, es.values).max() <= KAPPA_EPS_BOUND


@pytest.mark.parametrize("L", [144, 192])
def test_condition_flag_covers_every_eigenvalue_an_exact_similarity_moves(L):
    # -G H G, G = diag((-1)^n) on both Nambu halves, is H at theta + pi formed
    # without rounding: its spectrum is exactly -spec(H).  An eigenvalue the
    # two solves disagree on is off in one of them, so that chain must be flagged.
    # First-order kappa_i * eps missed 4 of 4 such eigenvalues at L = 144
    # and 57 of 71 at L = 192 (one BLAS thread).
    H = build_bdg(REFERENCE.replace(V=2.0, theta=0.3, L=L))
    g = np.tile((-1.0) ** np.arange(L), 2)
    a, b = eigendecompose(H, L), eigendecompose(-(g[:, None] * H * g), L)
    gap = np.abs(a.values[:, None] + b.values[None, :])
    moved = np.flatnonzero(gap.min(axis=1) > 2.0 * KAPPA_EPS_BOUND * np.linalg.norm(H))
    assert len(moved) > 0
    assert a.ill_conditioned or b.ill_conditioned


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (4, 2)])
def test_eigendecompose_rejects_a_non_square_matrix(shape):
    with pytest.raises(DimMismatch):
        eigendecompose(np.ones(shape), 2)


def test_eigendecompose_rejects_a_length_that_does_not_fit():
    H = build_bdg(REFERENCE.replace(V=2.0, theta=0.3, L=48))
    with pytest.raises(DimMismatch):
        eigendecompose(H, 47)
    es = eigendecompose(H, 48)
    assert es.num_sites == 48
    assert skin_metrics(es).accumulation > 0.7


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_eigendecompose_refuses_a_non_finite_matrix(entry):
    H = np.eye(4)
    H[1, 2] = entry
    with pytest.raises(ConvergenceFailure, match="non-finite entries"):
        eigendecompose(H, 2)


def test_eigendecompose_reports_a_solver_failure(monkeypatch):
    def fail(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        eigendecompose(np.eye(4), 2)


def test_zero_chain_is_one_cluster():
    # all four eigenvalues are 0: one cluster, which the position rotation
    # splits into unit vectors, each on one site
    es = eigendecompose(np.zeros((4, 4)), 2)
    assert es.defective == [] and (es.condition == 1.0).all()
    assert np.array_equal(es.left @ es.right, np.eye(4))


def test_hermitian_limit_real_spectrum_conjugate_left():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.5, num_sites=12)
    es = eigendecompose(build_bdg(spec), 12)
    assert np.abs(es.values.imag).max() <= 1e-10
    # for a Hermitian matrix the left row vectors are the conjugated rights
    assert np.abs(es.left - es.right.conj().T).max() <= 1e-8


def test_reference_chain_spectrum_negation_pairing(reference_es):
    H = build_bdg(REFERENCE)
    assert negation_distance(reference_es.values) <= 1e-9 * np.linalg.norm(H)


def test_eigenpair_residuals(reference_es):
    H = build_bdg(REFERENCE)
    scale = np.linalg.norm(H)
    for i in range(0, reference_es.dim, 7):
        v = reference_es.right[:, i]
        r = np.linalg.norm(H @ v - reference_es.values[i] * v) / np.linalg.norm(v)
        assert r <= 1e-9 * scale


def test_biorthonormality(reference_es):
    G = reference_es.left @ reference_es.right
    assert np.abs(G - np.eye(reference_es.dim)).max() <= 1e-8


def test_degenerate_zero_modes_are_disentangled(reference_es):
    # the two zero modes come out localized at opposite ends, not mixed
    idx = np.nonzero(np.abs(reference_es.values) < 1e-8)[0]
    assert len(idx) == 2
    coms = sorted(density_profile(reference_es.right[:, idx], 100)[1])
    assert coms[0] < 10.0 and coms[1] > 91.0


def test_density_profile_uniform():
    rho, com, pr = density_profile(np.ones((10, 1)), 10)
    assert np.abs(rho[0] - 0.1).max() <= 1e-15
    assert abs(com[0] - 5.5) <= 1e-12
    assert abs(pr[0] - 10.0) <= 1e-9
    assert abs(rho[0].sum() - 1.0) <= 1e-12


def test_density_profile_delta_localized():
    v = np.zeros((10, 1))
    v[0] = 2.0
    rho, com, pr = density_profile(v, 10)
    assert com[0] == 1.0
    assert rho[0, :1].sum() + rho[0, -1:].sum() == 1.0
    assert abs(pr[0] - 1.0) <= 1e-12


def test_density_profile_folds_doubled_vector():
    v = np.zeros((8, 1), dtype=complex)
    v[0] = 1.0   # site 1, first component
    v[4] = 1.0   # site 1, second component
    rho, _, _ = density_profile(v, 4)
    assert rho[0, 0] == 1.0


def test_density_profile_zero_vector():
    with pytest.raises(ZeroVector):
        density_profile(np.zeros(10), 10)
    with pytest.raises(DimMismatch):
        density_profile(np.ones(7), 10)


def test_density_profile_rejects_one_zero_column():
    R = np.random.default_rng(5).standard_normal((20, 6))
    R[:, 3] = 0.0
    with pytest.raises(ZeroVector):
        density_profile(R, 10)


@pytest.mark.parametrize("spec, doubled", [
    (REFERENCE, True),
    (REFERENCE.replace(V=2.0, theta=0.3, L=60), True),
    (ModelSpec(t=1.0, gamma=1.5, num_sites=40), False),
    (REFERENCE.replace(V=2.0, theta=0.3, L=48, boundary=PBC), True),
], ids=["blocked", "broken", "single-particle", "pbc-ring"])
def test_classification_matches_per_state_loop(spec, doubled):
    L = spec.num_sites
    H = build_bdg(spec) if doubled else build_single_particle(spec)
    es = eigendecompose(H, L)
    st = classify_states(es, ell=10, w_edge=0.9)
    rows = [density_profile_loop(es.right[:, i], L) for i in range(es.dim)]
    density = np.array([r[0] for r in rows])
    edge = np.array([rho[:10].sum() + rho[L - 10:].sum() for rho in density])
    assert np.array_equal(st.energy, es.values)
    assert np.array_equal(st.density, density)
    assert np.array_equal(st.center_of_mass, [r[1] for r in rows])
    assert np.array_equal(st.participation_ratio, [r[2] for r in rows])
    assert np.array_equal(st.edge_weight, edge)
    assert np.array_equal(st.is_edge, edge > 0.9)


def test_classification_reference_chain(reference_es):
    st = classify_states(reference_es, ell=10, w_edge=0.9)
    assert st.is_edge.sum() == 2
    coms = sorted(st.center_of_mass[st.is_edge])
    assert coms[0] < 10.0 and coms[1] > 91.0
    assert st.participation_ratio[~st.is_edge].min() >= 0.1 * 100


def accumulation_without(es, states) -> float:
    """Mean |com - center| / (L/2) over every state but `states`."""
    L = es.num_sites
    com = np.delete(classify_states(es).center_of_mass, states)
    return float(np.abs((com - (L + 1) / 2.0) / (L / 2.0)).mean())


@pytest.mark.parametrize("L", range(10, 49))
def test_default_window_marks_only_the_zero_modes(L):
    # on the blocked chain the two zero modes are the only end-localized
    # states; the default window, at most a quarter of the chain at each
    # end, leaves every other state in the bulk, and the skin statistic
    # leaves out the two zero modes however far apart their energies are
    es = eigendecompose(build_bdg(REFERENCE.replace(L=L)), L)
    st = classify_states(es)
    zero_modes = np.sort(np.argsort(np.abs(es.values))[:2])
    assert np.array_equal(np.flatnonzero(st.is_edge), zero_modes)
    rep = skin_metrics(es)
    assert not rep.skin_detected
    assert rep.accumulation == pytest.approx(accumulation_without(es, zero_modes), rel=1e-12)


@pytest.mark.parametrize("theta", [0.3, np.pi / 6], ids=["0.3", "pi/6"])
@pytest.mark.parametrize("L", range(24, 49))
def test_broken_chain_leaves_out_the_end_mode_pair(L, theta):
    # on the broken chain (V = 2) the end modes are split by up to 1e-5 of
    # the spectral radius here; they are still the two states of least |E|,
    # each the other's negative, and the skin statistic leaves out both
    es = eigendecompose(build_bdg(REFERENCE.replace(V=2.0, theta=theta, L=L)), L)
    pair = np.argsort(np.abs(es.values))[:2]
    E = es.values[pair]
    assert abs(E[0] + E[1]) <= 1e-12 * np.abs(es.values).max() < abs(E[0] - E[1])
    assert classify_states(es).is_edge[pair].all()
    assert skin_metrics(es).accumulation == pytest.approx(accumulation_without(es, pair),
                                                          rel=1e-12)


@pytest.mark.parametrize("L", range(40, 95, 6))
def test_trivial_chain_leaves_out_no_state(L):
    # at V = 5 the chain has no end modes: its two states of least |E|
    # (|E| ~ 1.02, each the other's negative) are skin states at opposite
    # ends, and every state stays in the bulk
    es = eigendecompose(build_bdg(REFERENCE.replace(V=5.0, theta=0.3, L=L)), L)
    assert skin_metrics(es).accumulation == pytest.approx(accumulation_without(es, []),
                                                          rel=1e-12)


def test_classification_trivial_chain_has_no_edge_states():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=30)
    es = eigendecompose(build_single_particle(spec), 30)
    st = classify_states(es)
    assert not st.is_edge.any()


def test_classification_asymmetric_chain_piles_up():
    # all open-chain states of the asymmetric single-particle chain are
    # squeezed into the first few sites
    spec = ModelSpec(t=1.0, gamma=1.5, num_sites=40)
    es = eigendecompose(build_single_particle(spec), 40)
    st = classify_states(es, ell=10, w_edge=0.9)
    assert st.is_edge.sum() > 35
    assert (st.center_of_mass[st.is_edge] < 20.0).all()


def test_skin_metrics_reference_chain(reference_es):
    rep = skin_metrics(reference_es)
    assert not rep.skin_detected
    assert abs(rep.skew) <= 0.05
    assert rep.accumulation <= 0.05


def test_skin_metrics_symmetric_potential():
    spec = REFERENCE.replace(V=2.0, theta=0.0)
    es = eigendecompose(build_bdg(spec), 100)
    rep = skin_metrics(es)
    assert not rep.skin_detected


def test_skin_metrics_broken_potential_bipolar():
    spec = REFERENCE.replace(V=2.0, theta=np.pi / 4)
    es = eigendecompose(build_bdg(spec), 100)
    rep = skin_metrics(es)
    assert rep.skin_detected
    assert rep.accumulation > 0.5
    # the two internal components pile on opposite ends, so the signed
    # mean stays small even though every bulk state is localized
    assert abs(rep.skew) < 0.1


def test_skin_metrics_asymmetric_single_particle():
    spec = ModelSpec(t=1.0, gamma=1.5, num_sites=40)
    es = eigendecompose(build_single_particle(spec), 40)
    rep = skin_metrics(es)
    assert rep.skin_detected
    assert rep.skew < -0.9  # one-sided pile-up keeps the sign


@pytest.mark.parametrize("L", [2, 41])
def test_single_particle_chain_leaves_out_no_state(L):
    # an L x L chain has no particle-hole pair of end modes: at L = 2 its
    # two states are each other's negatives and both edge, and at odd L
    # its exact zero mode is a skin state; all stay in the bulk
    es = eigendecompose(build_single_particle(ModelSpec(t=1.0, gamma=1.5, num_sites=L)), L)
    assert skin_metrics(es).accumulation == pytest.approx(accumulation_without(es, []),
                                                          rel=1e-12)


def test_skin_metrics_invariant_under_state_reordering(reference_es):
    rng = np.random.default_rng(11)
    perm = rng.permutation(reference_es.dim)
    from nhskin.spectra import EigenSystem
    shuffled = EigenSystem(
        values=reference_es.values[perm],
        right=reference_es.right[:, perm],
        left=reference_es.left[perm, :],
        condition=reference_es.condition[perm],
        num_sites=100,
    )
    a = skin_metrics(reference_es)
    b = skin_metrics(shuffled)
    assert abs(a.skew - b.skew) <= 1e-12
    assert abs(a.accumulation - b.accumulation) <= 1e-12
    assert a.skin_detected == b.skin_detected


def test_pbc_spectrum_hermitian_is_real():
    spec = ModelSpec(t=1.0, num_sites=12, boundary=PBC)
    vals = pbc_spectrum(spec)
    assert np.abs(vals.imag).max() <= 1e-10


def test_pbc_spectrum_deterministic_order():
    spec = REFERENCE.replace(boundary=PBC)
    a = pbc_spectrum(spec)
    b = pbc_spectrum(spec)
    assert np.array_equal(a, b)
    assert (np.diff(a.real) >= -1e-15).all()


def test_pbc_spectrum_matches_unit_circle_sampling():
    spec = REFERENCE.replace(L=50, boundary=PBC)
    vals = pbc_spectrum(spec)
    H = build_bdg(spec)
    assert set_distance(vals, band_energies(spec, 50)) <= 1e-9 * np.linalg.norm(H)


def test_pbc_spectrum_broken_potential_detaches_from_ring():
    # the ring matrix is real, so its spectrum is always conjugation
    # symmetric as a multiset; what distinguishes the broken phase is the
    # open chain's bulk spectrum collapsing away from the ring curve
    def bulk_displacement(theta):
        spec = REFERENCE.replace(V=2.0, theta=theta, L=99, boundary=PBC)
        ring = pbc_spectrum(spec)
        obc = np.linalg.eigvals(build_bdg(spec.replace(boundary="obc")))
        bulk = [E for E in obc if abs(E) > 1e-6]
        return ring, float(np.mean([np.abs(ring - E).min() for E in bulk]))

    ring_broken, d_broken = bulk_displacement(np.pi / 4)
    _, d_symmetric = bulk_displacement(0.0)
    assert np.abs(ring_broken.imag).max() > 0.1  # genuinely complex loops
    assert d_broken >= 0.09
    assert d_symmetric <= 0.06


def test_biorthogonality_defect_is_small_for_normalish_matrix(reference_es):
    assert reference_es.biorthogonality_defect <= 1e-9


@pytest.mark.parametrize("spec", [
    REFERENCE.replace(L=48),
    REFERENCE.replace(V=2.0, theta=0.3, L=12),
    REFERENCE.replace(V=2.0, theta=0.3, L=48),
    REFERENCE.replace(V=2.0, theta=np.pi / 3, L=47),
    REFERENCE.replace(V=2.0, theta=1.2, gamma=1.8, L=48),
    REFERENCE.replace(V=2.0, theta=0.3, L=48, boundary=PBC),
    ModelSpec(gamma=0.4, delta=0.9, big_v=1.0, theta=0.7, num_sites=6),  # no conjugate pair
], ids=["clean", "broken-12", "broken-48", "blocked-47", "broken-strong", "ring", "real-spectrum"])
def test_left_vectors_match_the_complex_inverse(spec):
    w, right = np.linalg.eig(build_bdg(spec))
    pairs = np.flatnonzero(w.imag > 0.0)
    before = right.copy()
    left = left_vectors(right, pairs)
    # the real basis is written into `right` only while it is inverted
    assert np.array_equal(right, before)
    ref = np.linalg.inv(right.astype(complex))
    assert np.abs(left - ref).max() <= 1e-10 * np.abs(ref).max()


def test_left_vectors_of_a_singular_basis_are_nan():
    # an exactly singular basis has no inverse; eigendecompose reports the
    # NaN rows as a defective cluster
    left = left_vectors(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([], dtype=int))
    assert left.dtype == complex and left.shape == (2, 2) and np.isnan(left).all()


def test_complex_typed_matrix_has_no_pairs_and_the_same_eigensystem():
    H = build_bdg(REFERENCE.replace(V=2.0, theta=0.3, L=24))
    es_real, es_complex = eigendecompose(H, 24), eigendecompose(H.astype(complex), 24)
    assert es_real.defective == es_complex.defective == []
    assert set_distance(es_real.values, es_complex.values) <= 1e-9 * np.linalg.norm(H)
    assert es_complex.biorthogonality_defect <= 1e-9
    assert np.allclose(np.sort(es_complex.condition), np.sort(es_real.condition), rtol=1e-6)


def test_density_profile_of_integer_vectors():
    rho, com, pr = density_profile(np.ones((20, 3), dtype=int), 10)
    assert rho.dtype == float and np.array_equal(rho, np.full((3, 10), 0.1))
    assert np.array_equal(com, np.full(3, 5.5)) and np.allclose(pr, 10.0)


@st.composite
def _spectra(draw):
    """Eigenvalue lists with ties, conjugate pairs and planted clusters, and
    a search radius; grid points make distances of exactly the radius."""
    radius = draw(st.sampled_from([0.0, 1e-10, 0.25, 0.5, 2.0]))
    grid = st.builds(lambda a, b: complex(a, b) / 4, st.integers(-12, 12), st.integers(-12, 12))
    real_axis = st.builds(lambda a: complex(a / 4, 0.0), st.integers(-12, 12))
    free = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    point = st.one_of(grid, real_axis, free)
    w = draw(st.lists(point, max_size=30))
    offset = st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
    for center in draw(st.lists(point, max_size=3)):
        size = draw(st.integers(2, 5))
        w += [center + radius * complex(*draw(offset)) for _ in range(size)]
    w += [z.conjugate() for z in draw(st.lists(st.sampled_from(w), max_size=6))] if w else []
    # a power-of-two scale is exact; an offset moves every value off the grid
    scale, shift = 2.0 ** draw(st.integers(-40, 40)), draw(st.sampled_from([0.0, 1e6, -3.0]))
    w = np.array(draw(st.permutations(w)), dtype=complex) * scale + shift
    return w, radius * scale


@settings(max_examples=300)
@given(case=_spectra())
def test_close_pairs_match_the_dense_search(case):
    w, radius = case
    D = np.abs(w[:, None] - w[None, :])
    # <= radius, and < radius as <= the next double below it
    for r in (radius, np.nextafter(radius, -np.inf)):
        i, j = close_pairs(w, r)
        want_i, want_j = np.nonzero(np.triu(D <= r, 1))
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)


def test_close_pairs_include_a_pair_at_exactly_the_radius():
    w = np.array([0.0, 0.25, 0.25j, 0.25 - 0.25j, 3.0, 3.0, 1.0 + 0.5j, 1.0 - 0.5j])
    i, j = close_pairs(w, 0.25)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (1, 3), (4, 5)]
    i, j = close_pairs(w, np.nextafter(0.25, 0.0))
    assert list(zip(i.tolist(), j.tolist())) == [(4, 5)]
    assert close_pairs(np.array([1.0 + 1.0j, 1.0 - 1.0j]), 2.0)[0].tolist() == [0]
