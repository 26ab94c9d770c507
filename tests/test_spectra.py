import numpy as np
import pytest

from nhskin import (
    ModelSpec,
    PBC,
    bloch_matrix,
    bonds,
    build_bdg,
    classify_states,
    default_candidates,
    density_profile,
    eigendecompose,
    skin_metrics,
    theorem_verdict,
)
from nhskin.errors import DimMismatch, ZeroVector
from nhskin.spectra import CLUSTER_TOL, EP_OVERLAP_TOL, KAPPA_EPS_BOUND
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
    assert len(es.ill_conditioned) == 0
    assert es.biorthogonality_defect <= 1e-12


def test_broken_long_chain_is_flagged():
    spec = REFERENCE.replace(V=2.0, theta=0.3, L=192)
    es = eigendecompose(build_bdg(spec), 192)
    assert es.defective == []
    assert len(es.ill_conditioned) > 0
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
    assert set(off.tolist()) <= set(es.ill_conditioned.tolist())


def test_condition_flag_is_silent_on_the_blocked_mpmath_chain():
    H = build_bdg(MP_BLOCKED)
    assert theorem_verdict(bonds(MP_BLOCKED), default_candidates()).kind == "nhse_blocked"
    es = eigendecompose(H, 10)
    assert len(es.ill_conditioned) == 0
    assert _error_against_mpmath(H, es.values).max() <= KAPPA_EPS_BOUND


def test_eigendecompose_rejects_a_length_that_does_not_fit():
    H = build_bdg(REFERENCE.replace(V=2.0, theta=0.3, L=48))
    with pytest.raises(DimMismatch):
        eigendecompose(H, 47)
    es = eigendecompose(H, 48)
    assert es.num_sites == 48
    assert skin_metrics(es).accumulation > 0.7


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
    samples = []
    for m in range(50):
        samples.extend(np.linalg.eigvals(
            bloch_matrix(spec.replace(boundary="obc"), np.exp(2j * np.pi * m / 50))))
    H = build_bdg(spec)
    assert set_distance(vals, np.array(samples)) <= 1e-9 * np.linalg.norm(H)


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
