from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhskin import Bonds, ModelSpec, OBC, PBC, band_energies, bonds, build_bdg, solve_beta
from nhskin.errors import (ConfigError, DegenerateLeadingCoeff, NonFinite, NonPositiveSize,
                           PbcPeriodMismatch)
from nhskin.model import FIELDS, MAX_ENERGY, MAX_SITES, onsite_potential, theta_orbits
from oracles import build_bdg_loop

REFERENCE = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=100)


def test_validate_accepts_reference_chain():
    # stored normalised: floats for the numbers, an int for L
    spec = ModelSpec(t=1, gamma=1.5, delta=0.5, num_sites=100.0, boundary="OBC")
    assert spec == REFERENCE and spec.to_dict() == REFERENCE.to_dict()
    assert type(spec.t) is float and type(spec.num_sites) is int and spec.boundary == OBC


def test_validate_rejects_degenerate_chain():
    with pytest.raises(NonPositiveSize):
        REFERENCE.replace(L=1)


def test_validate_rejects_pbc_period_mismatch():
    with pytest.raises(PbcPeriodMismatch):
        REFERENCE.replace(V=2.0, boundary=PBC)  # 100 % 3 != 0
    REFERENCE.replace(V=2.0, boundary=PBC, L=99)  # multiple of 3 is fine


def test_validate_rejects_non_finite():
    with pytest.raises(NonFinite):
        REFERENCE.replace(gamma=float("nan"))
    with pytest.raises(NonFinite):
        ModelSpec(t=float("inf"))


def test_bad_values_are_config_errors_at_construction():
    # both raised numpy or Python TypeErrors inside bonds before
    with pytest.raises(ConfigError, match="t must be a number"):
        ModelSpec(t="2")
    with pytest.raises(ConfigError, match="L must be an integer"):
        ModelSpec(num_sites=96.5)
    with pytest.raises(ConfigError, match=r"\|V\| must be <="):
        REFERENCE.replace(V=-2 * MAX_ENERGY)
    with pytest.raises(ConfigError, match="theta is out of range"):
        ModelSpec.from_dict({"theta": 10 ** 400})


# Values of every kind a config file or a library caller can hand over.
ODD = st.sampled_from([None, True, False, "2", "", "obc", "PBC", 10 ** 400, -10 ** 400,
                       float("nan"), float("inf"), -float("inf"), [1.0], 1j])
NUMBER = st.one_of(st.floats(), st.integers(-10, 10), st.sampled_from(
    [MAX_ENERGY, -MAX_ENERGY, 2 * MAX_ENERGY, 1e160, 1e-170, 5e-324]), ODD)
SITES = st.one_of(st.integers(-2, 40), st.floats(-3.0, 50.0), st.sampled_from(
    [MAX_SITES, MAX_SITES + 1, 12.0, 12.5, np.int64(12), np.float64(9.0)]), ODD)
BOUNDARY = st.one_of(st.sampled_from([OBC, PBC, "OBC", "Pbc", " obc", "pbc\n", "ring"]),
                     st.text(max_size=3), ODD)
CONFIGS = st.fixed_dictionaries({}, optional={
    key: SITES if key == "L" else BOUNDARY if key == "boundary" else NUMBER
    for key in FIELDS})


@settings(max_examples=400)
@given(how=st.sampled_from(["init", "replace", "from_dict"]), config=CONFIGS)
def test_every_value_gives_a_working_spec_or_a_config_error(how, config):
    try:
        if how == "init":
            spec = ModelSpec(**{FIELDS[k]: v for k, v in config.items()})
        elif how == "replace":
            spec = REFERENCE.replace(**config)
        else:
            spec = ModelSpec.from_dict(config)
    except ConfigError:
        return
    assert [type(x) for x in spec.to_dict().values()] == [float] * 5 + [int, str]
    b = bonds(spec)
    assert np.isfinite(b.vals).all() and b.dim == 2 * spec.num_sites
    if spec.big_v == 0.0:
        try:
            roots = solve_beta(spec, band_energies(spec, 4))
        except DegenerateLeadingCoeff:  # only on the line delta^2 - t^2 + gamma^2/4 = 0
            t, g, d = (Fraction(x) for x in (spec.t, spec.gamma, spec.delta))
            assert abs(d * d - t * t + g * g / 4) <= Fraction(2, 10 ** 14) * max(
                d * d, t * t, g * g / 4)
            return
        assert np.isfinite(np.abs(roots)).all()


def test_dict_round_trip():
    d = REFERENCE.replace(V=2.0, theta=0.3).to_dict()
    assert d["V"] == 2.0 and d["L"] == 100 and d["boundary"] == OBC
    assert ModelSpec.from_dict(d) == REFERENCE.replace(V=2.0, theta=0.3)


def test_bdg_two_site_entries():
    H = build_bdg(ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=2))
    h = H[:2, :2]
    dm = H[:2, 2:]
    assert h[0, 1] == -1.75
    assert h[1, 0] == -0.25
    assert dm[0, 1] == -0.5
    assert dm[1, 0] == +0.5
    assert np.array_equal(H[2:, 2:], -h.conj().T)
    assert np.array_equal(H[2:, :2], -dm)


def test_bdg_all_couplings_zero():
    H = build_bdg(ModelSpec(t=0.0, gamma=0.0, delta=0.0, num_sites=3))
    assert np.all(H == 0.0)


def test_bdg_pbc_cosine_bands_doubled():
    # gamma = delta = 0 ring: h gives -2t cos(2 pi k / L), the hole block
    # the negation; compare full multisets
    L = 6
    H = build_bdg(ModelSpec(t=1.0, num_sites=L, boundary=PBC))
    got = np.sort(np.linalg.eigvals(H).real)
    cos = [2.0 * np.cos(2.0 * np.pi * k / L) for k in range(L)]
    want = np.sort(np.array(cos + [-c for c in cos]))
    assert np.abs(np.linalg.eigvals(H).imag).max() < 1e-12
    assert np.abs(got - want).max() < 1e-12


def single_particle(spec):
    """The particle block h of the doubled matrix."""
    return build_bdg(spec)[:spec.num_sites, :spec.num_sites]


def test_single_particle_two_site():
    h = single_particle(ModelSpec(t=1.0, gamma=1.5, num_sites=2))
    assert np.array_equal(h, np.array([[0.0, -1.75], [-0.25, 0.0]]))


def test_single_particle_hermitian_limit_real_symmetric():
    h = single_particle(ModelSpec(t=1.3, gamma=0.0, num_sites=8))
    assert np.abs(h.imag).max() == 0.0
    assert np.abs(h - h.T).max() == 0.0


def test_single_particle_similarity_oracle():
    # asymmetric chain is similar to a symmetric one with hopping
    # sqrt((t + g/2)(t - g/2)); spectra must agree and stay real
    t, g, L = 1.0, 1.5, 20
    h = single_particle(ModelSpec(t=t, gamma=g, num_sites=L))
    ev = np.linalg.eigvals(h)
    assert np.abs(ev.imag).max() < 1e-10
    amp = -np.sqrt((t + g / 2.0) * (t - g / 2.0))
    sym = np.zeros((L, L))
    for i in range(L - 1):
        sym[i, i + 1] = sym[i + 1, i] = amp
    want = np.sort(np.linalg.eigvalsh(sym))
    assert np.abs(np.sort(ev.real) - want).max() < 1e-12
    assert np.abs(ev.real).max() <= 2.0 * np.sqrt(t * t - g * g / 4.0) + 1e-12


@pytest.mark.parametrize("spec", [
    REFERENCE,
    REFERENCE.replace(V=2.0, theta=np.pi / 4),
    REFERENCE.replace(V=2.0, theta=0.9, L=99, boundary=PBC),
    ModelSpec(t=0.7, gamma=0.4, delta=0.3, num_sites=21),
])
def test_particle_hole_structure(spec):
    H = build_bdg(spec)
    L = spec.num_sites
    tau_x = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(L))
    lhs = tau_x @ H.T @ tau_x
    assert np.abs(lhs + H).max() <= 1e-14 * max(np.abs(H).max(), 1.0)


def test_obc_blocks_are_tridiagonal():
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=12)
    H = build_bdg(spec)
    L = spec.num_sites
    for blk in (H[:L, :L], H[:L, L:], H[L:, :L], H[L:, L:]):
        rows, cols = np.nonzero(np.abs(blk) > 0)
        assert np.abs(rows - cols).max() <= 1


def test_reciprocal_limit_block_symmetries():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.5, num_sites=10)
    H = build_bdg(spec)
    L = spec.num_sites
    h, dm = H[:L, :L], H[:L, L:]
    assert np.abs(H.imag).max() == 0.0
    assert np.abs(h - h.T).max() == 0.0
    assert np.abs(dm + dm.T).max() == 0.0


def test_onsite_potential_period_three():
    spec = ModelSpec(t=1.0, big_v=2.0, theta=0.3, num_sites=9)
    v = onsite_potential(spec)
    assert np.abs(v[:3] - v[3:6]).max() < 1e-14
    assert np.abs(v[:3] - v[6:9]).max() < 1e-14
    assert np.abs(v[0] - 2.0 * np.sin(2.0 * np.pi / 3.0 + 0.3)) < 1e-15


def _specs():
    # zero couplings are drawn often; PBC rings with V != 0 need L % 3 == 0
    coupling = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    return st.builds(
        lambda L, boundary, t, gamma, delta, V, theta: ModelSpec(
            t=t, gamma=gamma, delta=delta, big_v=V, theta=theta, boundary=boundary,
            num_sites=3 * L if boundary == PBC and V != 0.0 else L + 1),
        st.integers(1, 16), st.sampled_from([OBC, PBC]), coupling, coupling, coupling,
        coupling, st.floats(0.0, 2.0 * np.pi))


@settings(max_examples=200)
@given(spec=_specs())
def test_bonds_densify_to_the_loop_builder(spec):
    b = bonds(spec)
    assert b.vals.dtype == np.float64 and b.dim == 2 * spec.num_sites
    assert np.all(b.vals != 0.0)
    keys = b.rows * b.dim + b.cols
    assert np.all(np.diff(keys) > 0)  # one entry per position, row-major
    H = build_bdg(spec)
    assert H.dtype == np.float64  # real H: the eigensolver runs in real arithmetic
    assert np.array_equal(H, build_bdg_loop(spec))


@pytest.mark.parametrize("spec", [
    ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=2, boundary=PBC),
    ModelSpec(t=1.0, gamma=1.5, delta=0.5, big_v=2.0, theta=0.3, num_sites=6, boundary=PBC),
    ModelSpec(t=0.0, gamma=0.0, delta=0.0, num_sites=3, boundary=PBC),
])
def test_bonds_named_points_match_the_loop_builder(spec):
    H = build_bdg(spec)
    assert H.dtype == np.float64
    assert np.array_equal(H, build_bdg_loop(spec))


def test_two_site_ring_sums_the_wrap_bond():
    # the wrap bond lands on the inner one: the hoppings add, the pairing cancels
    b = bonds(ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=2, boundary=PBC))
    assert b.rows.tolist() == [0, 1, 2, 3]
    assert b.cols.tolist() == [1, 0, 3, 2]
    assert b.vals.tolist() == [-2.0, -2.0, 2.0, 2.0]


def test_zero_chain_has_no_bonds():
    b = bonds(ModelSpec(t=0.0, gamma=0.0, delta=0.0, num_sites=3))
    assert len(b.vals) == 0 and b.dim == 6
    assert isinstance(b, Bonds)


@settings(max_examples=100)
@given(spec=_specs())
def test_bonds_particle_hole_exact(spec):
    # -tau_x H^T tau_x = H: bond (r, c, v) maps to (tau(c), tau(r), -v),
    # tau swapping the particle and hole halves
    b = bonds(spec)
    L = spec.num_sites
    rows, cols = (b.cols + L) % b.dim, (b.rows + L) % b.dim
    order = np.argsort(rows * b.dim + cols)
    assert np.array_equal(rows[order], b.rows)
    assert np.array_equal(cols[order], b.cols)
    assert np.array_equal(-b.vals[order], b.vals)


def _densify(rows, cols, vals, dim):
    H = np.zeros((dim, dim))
    np.add.at(H, (rows, cols), vals)
    return H


@settings(max_examples=100)
@given(L=st.integers(2, 40), gamma=st.floats(-2.0, 2.0), delta=st.floats(-2.0, 2.0),
       V=st.floats(-2.0, 2.0), theta=st.floats(0.0, 2.0 * np.pi))
def test_theta_similarities_on_bonds(L, gamma, delta, V, theta):
    # the two exact similarities of `theta_orbits`, applied to the bond list
    spec = ModelSpec(t=1.0, gamma=gamma, delta=delta, big_v=V, theta=theta, num_sites=L)
    b = bonds(spec)
    tol = 1e-13 * max(np.linalg.norm(b.vals), 1e-300)
    n = np.arange(1, L + 1)
    g = np.concatenate([(-1.0) ** n] * 2)
    # (A) H(theta + pi) = -G H G
    HA = _densify(b.rows, b.cols, -g[b.rows] * g[b.cols] * b.vals, b.dim)
    assert np.abs(build_bdg(spec.replace(theta=theta + np.pi)) - HA).max() <= tol
    # (B) H(-2 pi (L+1)/3 - theta) = M H M^T, M the signed permutation of the
    # docstring: M[n, 2L+1-n] = (-1)^n and M[L+n, L+1-n] = -(-1)^n (1-based)
    image = np.concatenate([2 * L - n, L - n])  # 0-based column -> row of M
    sign = np.concatenate([-(-1.0) ** (L + 1 - n), (-1.0) ** (L + 1 - n)])
    M = np.zeros((b.dim, b.dim))
    M[image, np.arange(b.dim)] = sign
    M_doc = np.zeros((b.dim, b.dim))
    M_doc[n - 1, 2 * L - n] = (-1.0) ** n
    M_doc[L + n - 1, L - n] = -(-1.0) ** n
    P = np.eye(L)[::-1]
    tau_zx = np.array([[0.0, 1.0], [-1.0, 0.0]])  # tau_z tau_x
    assert np.array_equal(M, M_doc)
    assert np.array_equal(M, np.diag(g) @ np.kron(tau_zx, P))
    HB = _densify(image[b.rows], image[b.cols], sign[b.rows] * sign[b.cols] * b.vals, b.dim)
    assert np.array_equal(HB, M @ build_bdg(spec) @ M.T)
    theta_b = -2.0 * np.pi * (L + 1) / 3.0 - theta
    assert np.abs(build_bdg(spec.replace(theta=theta_b)) - HB).max() <= tol


@pytest.mark.parametrize("L, steps, orbits", [
    (96, 24, 7), (95, 24, 7), (94, 24, 7), (40, 8, 4), (40, 9, 5), (40, 7, 7), (39, 12, 4),
])
def test_theta_orbits_follow_the_two_grid_maps(L, steps, orbits):
    orbit = theta_orbits(L, steps)
    assert len({rep for rep, _ in orbit}) == orbits
    for s, (rep, sign) in enumerate(orbit):
        assert rep <= s and orbit[rep] == (rep, 1)
        # rep reaches s by A (s - rep = steps/2), by B (s + rep + steps (L+1)/3 = 0)
        # or by AB, all mod steps; the sign says whether a mirror was used
        by_a = (s - rep) % steps in ((0,) if steps % 2 else (0, steps // 2))
        by_b = (steps * (L + 1) % 3 == 0 and (s + rep + steps * (L + 1) // 3)
                % steps in ((0,) if steps % 2 else (0, steps // 2)))
        assert (by_a and sign == 1) or (by_b and not by_a and sign == -1)
