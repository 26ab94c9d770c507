import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhskin import (
    ModelSpec,
    OBC,
    PBC,
    bonds,
    commutator_residual,
    default_candidates,
    is_reducible,
    ring_candidates,
    theorem_verdict,
)
from nhskin.cli import RING_SITES
from nhskin.errors import ConfigError, DimMismatch, MalformedOperator, NonPositiveSize
from nhskin.symmetry import (
    KIND_BLOCKED,
    KIND_EXPECTED,
    KIND_HERMITIAN,
    KIND_NO_CANDIDATES,
    KIND_REDUCIBLE,
    SymmetryOp,
)
from oracles import (bonds_of, build_bdg_loop, build_reflection, is_reducible_dense,
                     symmetry_matrix)

REFERENCE = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=100)


def test_reflection_two_site_staggered():
    assert np.array_equal(build_reflection(2, True),
                          np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_reflection_unstaggered_is_anti_identity():
    R = build_reflection(3, False)
    assert np.array_equal(R, np.fliplr(np.eye(3)))


def test_reflection_square_is_signed_identity():
    # (-1)^n (-1)^(L-n+1) = (-1)^(L+1): minus for even L, plus for odd L
    R4 = build_reflection(4, True)
    assert np.abs(R4 @ R4 + np.eye(4)).max() == 0.0
    R5 = build_reflection(5, True)
    assert np.abs(R5 @ R5 - np.eye(5)).max() == 0.0


def test_reflection_rejects_short_chain():
    with pytest.raises(NonPositiveSize):
        build_reflection(1, True)


def test_combined_two_site_blocks():
    S = symmetry_matrix(SymmetryOp("sy", True), 2)
    R = build_reflection(2, True)
    assert np.abs(S[:2, 2:] + 1j * R).max() == 0.0
    assert np.abs(S[2:, :2] - 1j * R).max() == 0.0
    assert np.abs(S[:2, :2]).max() == 0.0


def test_combined_identity_is_doubled_reflection():
    S = symmetry_matrix(SymmetryOp("id", False), 2)
    R = build_reflection(2, False)
    assert np.array_equal(S, np.kron(np.eye(2), R))


def test_combined_is_unitary_at_scale():
    S = symmetry_matrix(SymmetryOp("sy", True), 100)
    assert np.abs(S @ S.conj().T - np.eye(200)).max() <= 1e-14


@pytest.mark.parametrize("L", [4, 5, 12, 13])
@pytest.mark.parametrize("staggered", [True, False])
def test_combined_squares_to_signed_identity(L, staggered):
    S = symmetry_matrix(SymmetryOp("sy", staggered), L)
    S2 = S @ S
    sign = S2[0, 0]
    assert abs(abs(sign) - 1.0) <= 1e-14
    assert np.abs(S2 - sign * np.eye(2 * L)).max() <= 1e-14


def test_commutator_reference_chain_blocked():
    S = SymmetryOp("sy", True)
    assert commutator_residual(bonds(REFERENCE), S) <= 1e-14


def test_commutator_zero_matrix():
    S = SymmetryOp("sy", True)
    assert commutator_residual(bonds_of(np.zeros((8, 8))), S) == 0.0


def test_commutator_broken_by_quarter_phase_potential():
    H = bonds(REFERENCE.replace(V=2.0, theta=np.pi / 4))
    S = SymmetryOp("sy", True)
    assert commutator_residual(H, S) > 0.01


def test_commutator_scale_invariance():
    H = bonds(REFERENCE.replace(V=2.0, theta=0.7, L=30))
    S = SymmetryOp("sy", True)
    r1 = commutator_residual(H, S)
    r2 = commutator_residual(H._replace(vals=3.7 * H.vals), S)
    assert abs(r1 - r2) <= 1e-12 * max(r1, 1.0)


def test_commutator_dim_mismatch():
    with pytest.raises(DimMismatch):
        commutator_residual(bonds_of(np.eye(5)), SymmetryOp("sy", True))


def test_reducibility_with_pairing_is_irreducible():
    red, comps = is_reducible(bonds(REFERENCE.replace(L=20)))
    assert not red
    assert len(comps) == 1 and len(comps[0]) == 40


def test_reducibility_without_pairing_splits_in_two():
    red, comps = is_reducible(bonds(REFERENCE.replace(delta=0.0, L=20)))
    assert red
    assert sorted(len(c) for c in comps) == [20, 20]
    assert comps[0] == list(range(20))


def test_reducibility_diagonal_matrix_is_singletons():
    red, comps = is_reducible(bonds_of(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])))
    assert red and len(comps) == 6


@pytest.mark.parametrize("spec", [
    REFERENCE.replace(L=20),
    REFERENCE.replace(delta=0.0, L=20),
    REFERENCE.replace(V=2.0, theta=0.3, delta=0.0, L=12, boundary=PBC),
    # the two-site ring: the wrap bond lands on the inner one and the
    # pairing cancels, so H splits into its particle and hole halves
    REFERENCE.replace(L=2, boundary=PBC),
    REFERENCE.replace(t=0.0, L=2, boundary=PBC),
    ModelSpec(t=0.0, gamma=0.0, delta=0.0, num_sites=3),
])
def test_reducibility_matches_dense_reference(spec):
    assert is_reducible(bonds(spec)) == is_reducible_dense(build_bdg_loop(spec))


def test_two_site_ring_is_reducible():
    red, comps = is_reducible(bonds(REFERENCE.replace(L=2, boundary=PBC)))
    assert red and comps == [[0, 1], [2, 3]]


@settings(max_examples=60)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 0.15))
def test_reducibility_matches_dense_reference_on_random_graphs(n, seed, density):
    # edges scattered in random order, so components need several rounds
    # of hooking and pointer jumping
    rng = np.random.default_rng(seed)
    H = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
    assert is_reducible(bonds_of(H)) == is_reducible_dense(H)


def test_reflection_structure_accepts_mirror_candidates():
    # every candidate's site map is the open-chain mirror, or its ring mirror
    L = 12
    for S in default_candidates() + ring_candidates():
        sigma, _ = S.signed_permutation(L)
        i = np.arange(L)
        mirror = L - 1 - i if S.center is None else (S.center - i) % L
        assert np.array_equal(sigma[:L] % L, mirror)
        assert np.array_equal(sigma[L:] % L, mirror)


def test_combined_rejects_unknown_internal_factor():
    with pytest.raises(MalformedOperator):
        SymmetryOp("sw", True)


@pytest.mark.parametrize("L", [7, 12])
def test_signed_permutation_matches_dense_matrix(L):
    for S in default_candidates() + (ring_candidates() if L % 6 == 0 else []):
        sigma, coeff = S.signed_permutation(L)
        assert np.array_equal(np.sort(sigma), np.arange(2 * L))
        dense = np.zeros((2 * L, 2 * L), dtype=complex)
        dense[np.arange(2 * L), sigma] = coeff
        assert np.array_equal(symmetry_matrix(S, L), dense)
        assert set(coeff.tolist()) <= {1, -1, 1j, -1j}


def _points(L, boundary):
    # blocked, broken and reducible points of the chain
    base = ModelSpec(t=1.0, gamma=1.5, delta=0.5, big_v=2.0, num_sites=L,
                     boundary=boundary)
    return [base, base.replace(theta=np.pi / 4), base.replace(delta=0.0, theta=0.3)]


def _assert_matches_dense(spec, cands):
    # the bond sums run in another order than the dense norm, so the two
    # agree to 1e-14 relative, and an exact zero on one side is exact on both
    H = build_bdg_loop(spec)
    for S in cands:
        M = symmetry_matrix(S, spec.num_sites)
        dense = np.linalg.norm(H @ M - M @ H) / np.linalg.norm(H)
        r = commutator_residual(bonds(spec), S)
        assert (r == 0.0) == (dense == 0.0), (S, spec)
        assert abs(r - dense) <= 1e-14 * dense, (S, spec)


@pytest.mark.parametrize("L,boundary", [(7, "obc"), (12, "obc"), (12, PBC), (18, PBC)])
def test_commutator_matches_dense_reference_bit_for_bit(L, boundary):
    cands = default_candidates()
    if boundary == PBC:
        cands += ring_candidates()
    for spec in _points(L, boundary):
        _assert_matches_dense(spec, cands)


@settings(max_examples=60)
@given(L=st.integers(2, 20), ring=st.booleans(), gamma=st.floats(-3.0, 3.0),
       delta=st.sampled_from([0.0, 0.5, -1.2]), V=st.sampled_from([0.0, 2.0]),
       theta=st.floats(0.0, 2.0 * np.pi))
def test_commutator_matches_dense_reference_everywhere(L, ring, gamma, delta, V, theta):
    if ring:
        L = 6 * (L // 6 + 1)
    spec = ModelSpec(t=1.0, gamma=gamma, delta=delta, big_v=V, theta=theta, num_sites=L,
                     boundary=PBC if ring else OBC)
    _assert_matches_dense(spec, default_candidates() + (ring_candidates() if ring else []))


def test_verdict_reference_chain():
    H = bonds(REFERENCE)
    v = theorem_verdict(H, default_candidates())
    assert v.kind == KIND_BLOCKED
    assert v.candidate.internal_label == "sy" and v.candidate.spatial_signed
    assert v.commutator_residual <= 1e-12


def test_verdict_third_pi_potential_still_blocked():
    # theta = pi/3 keeps the mirror antisymmetry of the potential at L = 100
    H = bonds(REFERENCE.replace(V=2.0, theta=np.pi / 3))
    v = theorem_verdict(H, default_candidates())
    assert v.kind == KIND_BLOCKED


def test_verdict_quarter_pi_potential_expected():
    H = bonds(REFERENCE.replace(V=2.0, theta=np.pi / 4))
    v = theorem_verdict(H, default_candidates())
    assert v.kind == KIND_EXPECTED
    assert v.commutator_residual > 1e-3


def test_verdict_gates_on_reducibility():
    H = bonds(REFERENCE.replace(delta=0.0, L=30))
    v = theorem_verdict(H, default_candidates())
    assert v.kind == KIND_REDUCIBLE
    assert sorted(len(c) for c in v.components) == [30, 30]


def test_verdict_empty_candidates():
    H = bonds(REFERENCE.replace(L=10))
    assert theorem_verdict(H, []).kind == KIND_NO_CANDIDATES


def test_verdict_requires_positive_tol():
    with pytest.raises(ConfigError):
        theorem_verdict(bonds_of(np.eye(4)), [], tol=0.0)


def test_verdict_deterministic_and_order_respecting():
    H = bonds(REFERENCE.replace(L=12))
    cands = default_candidates()
    v1 = theorem_verdict(H, cands)
    v2 = theorem_verdict(H, cands)
    assert v1.to_dict() == v2.to_dict()


def test_ring_candidates_cover_all_third_pi_phases():
    # on a ring whose length is a multiple of 6, each theta = k pi/3 is
    # matched by a staggered reflection about one of the six centers
    L = 24
    cands = ring_candidates()
    for k in range(6):
        theta = k * np.pi / 3.0
        spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, big_v=2.0,
                         theta=theta, num_sites=L, boundary=PBC)
        H = bonds(spec)
        best = min(commutator_residual(H, c) for c in cands)
        assert best <= 1e-12, f"theta = {k} pi/3 not matched: {best}"
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, big_v=2.0,
                     theta=np.pi / 4, num_sites=L, boundary=PBC)
    H = bonds(spec)
    assert min(commutator_residual(H, c) for c in cands) > 1e-3


def test_ring_candidates_need_multiple_of_six():
    ring = bonds(ModelSpec(t=1.0, gamma=1.5, delta=0.5, big_v=2.0, num_sites=9, boundary=PBC))
    assert commutator_residual(ring, default_candidates()[0]) >= 0.0
    with pytest.raises(NonPositiveSize):
        commutator_residual(ring, ring_candidates()[0])


def test_candidate_rejects_short_chain():
    with pytest.raises(NonPositiveSize):
        SymmetryOp("sy", True).signed_permutation(1)


def test_verdict_never_blocked_for_reducible():
    # premise gate fires before any candidate is consulted
    H = bonds(REFERENCE.replace(delta=0.0, L=24))
    v = theorem_verdict(H, default_candidates())
    assert v.kind == KIND_REDUCIBLE


@settings(max_examples=40)
@given(L=st.sampled_from([6, 12, 18]),
       gamma=st.floats(-3.0, 3.0), delta=st.floats(-1.5, 1.5),
       theta=st.floats(0.0, 2.0 * np.pi))
def test_verdict_invariant_under_ring_translation(L, gamma, delta, theta):
    # a one-site translation of the ring maps theta to theta + 2 pi/3 and
    # permutes the six reflection centers, so the verdict cannot change
    spec = ModelSpec(t=1.0, gamma=gamma, delta=delta, big_v=2.0, theta=theta,
                     num_sites=L, boundary=PBC)
    cands = ring_candidates()
    v1 = theorem_verdict(bonds(spec), cands)
    v2 = theorem_verdict(bonds(spec.replace(theta=theta + 2.0 * np.pi / 3.0)), cands)
    assert v1.kind == v2.kind
    if v1.kind == KIND_EXPECTED:
        # theta + 2 pi/3 is rounded to a double, which moves the residual
        # by ~1e-15 absolute: relative agreement needs an absolute floor
        assert math.isclose(v1.commutator_residual, v2.commutator_residual,
                            rel_tol=1e-12, abs_tol=1e-13)


@settings(max_examples=100)
@given(m=st.integers(2, 16), t=st.floats(0.1, 2.0), gamma=st.floats(-3.0, 3.0),
       delta=st.floats(-1.5, 1.5), V=st.floats(0.0, 3.0), theta=st.floats(0.0, 2.0 * np.pi))
@example(m=3, t=1.0, gamma=0.0, delta=0.0, V=1.0, theta=1.0039742960267685e-10)
def test_ring_verdict_independent_of_ring_length(m, t, gamma, delta, V, theta):
    # a ring of period-6 cells: the commutator and H grow alike with the
    # number of cells, so sweep-theta's RING_SITES-site ring stands for any
    spec = ModelSpec(t=t, gamma=gamma, delta=delta, big_v=V, theta=theta,
                     num_sites=RING_SITES, boundary=PBC)
    H1, H2 = bonds(spec), bonds(spec.replace(L=6 * m))
    cands = ring_candidates()
    assert theorem_verdict(H1, cands).kind == theorem_verdict(H2, cands).kind
    for c in cands:
        # each residual carries ~1e-16 absolute rounding: at theta ~ 1e-10
        # it is ~1e-10 and the two rings differ by ~1e-6 of it
        assert math.isclose(commutator_residual(H1, c), commutator_residual(H2, c),
                            rel_tol=1e-12, abs_tol=1e-13)


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, 2.0])
@pytest.mark.parametrize("boundary,L", [(OBC, 96), (PBC, 12)])
def test_hermitian_chain_is_gated_before_any_candidate(theta, boundary, L):
    # gamma = 0 makes H real symmetric: no skin effect, whatever theta does
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.5, big_v=2.0, theta=theta, num_sites=L,
                     boundary=boundary)
    cands = default_candidates() + (ring_candidates() if boundary == PBC else [])
    v = theorem_verdict(bonds(spec), cands)
    assert v.kind == KIND_HERMITIAN
    assert v.to_dict() == {"kind": KIND_HERMITIAN, "residual": None, "candidate": None,
                           "components": None}


def test_hermitian_gate_outranks_reducibility():
    # gamma = delta = 0: real symmetric and reducible; Hermitian comes first
    v = theorem_verdict(bonds(REFERENCE.replace(gamma=0.0, delta=0.0, L=10)),
                        default_candidates())
    assert v.kind == KIND_HERMITIAN


def test_hermitian_gate_uses_the_tolerance():
    # ||H - H^T|| / ||H|| is about gamma = 1e-9: Hermitian only at a looser tol
    H = bonds(REFERENCE.replace(gamma=1e-9, L=10))
    assert theorem_verdict(H, default_candidates()).kind != KIND_HERMITIAN
    assert theorem_verdict(H, default_candidates(), tol=1e-6).kind == KIND_HERMITIAN
