import numpy as np
import pytest

from nhskin import (
    ModelSpec,
    PBC,
    bloch_matrix,
    build_bdg,
    classify_states,
    density_profile,
    eigendecompose,
    skin_metrics,
)
from nhskin.errors import ZeroVector
from oracles import build_single_particle, negation_distance, pbc_spectrum, set_distance

REFERENCE = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=100)


@pytest.fixture(scope="module")
def reference_es():
    return eigendecompose(build_bdg(REFERENCE), num_sites=100)


def test_defective_jordan_block_is_reported():
    es = eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert es.defective == [0, 1]
    assert np.allclose(es.values, 0.0)
    # the right vectors are the solver's, both along the one eigenvector
    assert np.allclose(np.abs(es.right[0]), 1.0, atol=1e-12)


def test_hermitian_limit_real_spectrum_conjugate_left():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.5, num_sites=12)
    es = eigendecompose(build_bdg(spec), num_sites=12)
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
    coms = sorted(
        density_profile(reference_es.right[:, i], 100).center_of_mass for i in idx
    )
    assert coms[0] < 10.0 and coms[1] > 91.0


def test_density_profile_uniform():
    prof = density_profile(np.ones(10), 10)
    assert np.abs(prof.site_density - 0.1).max() <= 1e-15
    assert abs(prof.center_of_mass - 5.5) <= 1e-12
    assert abs(prof.participation_ratio - 10.0) <= 1e-9
    assert abs(prof.site_density.sum() - 1.0) <= 1e-12


def test_density_profile_delta_localized():
    v = np.zeros(10)
    v[0] = 2.0
    prof = density_profile(v, 10)
    assert prof.center_of_mass == 1.0
    assert prof.edge_weight(1) == 1.0
    assert abs(prof.participation_ratio - 1.0) <= 1e-12


def test_density_profile_folds_doubled_vector():
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0   # site 1, first component
    v[4] = 1.0   # site 1, second component
    prof = density_profile(v, 4)
    assert prof.site_density[0] == 1.0


def test_density_profile_zero_vector():
    with pytest.raises(ZeroVector):
        density_profile(np.zeros(10), 10)
    from nhskin.errors import DimMismatch
    with pytest.raises(DimMismatch):
        density_profile(np.ones(7), 10)


def test_classification_reference_chain(reference_es):
    records = classify_states(reference_es, 100, ell=10, w_edge=0.9)
    edge = [r for r in records if r.label == "edge"]
    assert len(edge) == 2
    coms = sorted(r.center_of_mass for r in edge)
    assert coms[0] < 10.0 and coms[1] > 91.0
    bulk = [r for r in records if r.label == "bulk"]
    assert min(r.participation_ratio for r in bulk) >= 0.1 * 100


def test_classification_trivial_chain_has_no_edge_states():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.0, num_sites=30)
    es = eigendecompose(build_single_particle(spec))
    records = classify_states(es, 30)
    assert all(r.label == "bulk" for r in records)


def test_classification_asymmetric_chain_piles_up():
    # all open-chain states of the asymmetric single-particle chain are
    # squeezed into the first few sites
    spec = ModelSpec(t=1.0, gamma=1.5, num_sites=40)
    es = eigendecompose(build_single_particle(spec))
    records = classify_states(es, 40, ell=10, w_edge=0.9)
    edge = [r for r in records if r.label == "edge"]
    assert len(edge) > 35
    assert all(r.center_of_mass < 20.0 for r in edge)


def test_skin_metrics_reference_chain(reference_es):
    rep = skin_metrics(reference_es, 100)
    assert not rep.skin_detected
    assert abs(rep.skew) <= 0.05
    assert rep.accumulation <= 0.05


def test_skin_metrics_symmetric_potential():
    spec = REFERENCE.replace(V=2.0, theta=0.0)
    es = eigendecompose(build_bdg(spec), num_sites=100)
    rep = skin_metrics(es, 100)
    assert not rep.skin_detected


def test_skin_metrics_broken_potential_bipolar():
    spec = REFERENCE.replace(V=2.0, theta=np.pi / 4)
    es = eigendecompose(build_bdg(spec), num_sites=100)
    rep = skin_metrics(es, 100)
    assert rep.skin_detected
    assert rep.accumulation > 0.5
    # the two internal components pile on opposite ends, so the signed
    # mean stays small even though every bulk state is localized
    assert abs(rep.skew) < 0.1


def test_skin_metrics_asymmetric_single_particle():
    spec = ModelSpec(t=1.0, gamma=1.5, num_sites=40)
    es = eigendecompose(build_single_particle(spec))
    rep = skin_metrics(es, 40)
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
        pairing_residual=reference_es.pairing_residual,
    )
    a = skin_metrics(reference_es, 100)
    b = skin_metrics(shuffled, 100)
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


def test_pairing_residual_is_small_for_normalish_matrix(reference_es):
    assert reference_es.pairing_residual <= 1e-9
