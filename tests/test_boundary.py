import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nhskin import (
    ModelSpec,
    band_energies,
    boundary_coeffs,
    boundary_determinant,
    boundary_matrix,
    build_bdg,
    continuum_ratio,
    solve_beta,
)
from nhskin.boundary import PERMUTATIONS
from nhskin.errors import SingularDenominator
from nhskin.nonbloch import BRANCH_ORDER, CASE_NEITHER
from oracles import boundary_determinant_scalar

COUPLINGS = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=6)


@pytest.fixture(scope="module")
def six_site_eigenvalues():
    return [complex(E) for E in np.linalg.eigvals(build_bdg(COUPLINGS))]


def off_spectrum_draws(evals, n=20, seed=42):
    """Random energies near the spectrum but at least 0.25 away from it."""
    rng = np.random.default_rng(seed)
    ev = np.array(evals)
    out = []
    while len(out) < n:
        E = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
        if np.abs(ev - E).min() >= 0.25:
            out.append(E)
    return out


def test_determinant_vanishes_on_spectrum(six_site_eigenvalues):
    assert np.abs(boundary_determinant(COUPLINGS, six_site_eigenvalues)).max() <= 1e-8


def test_determinant_large_off_spectrum(six_site_eigenvalues):
    off = off_spectrum_draws(six_site_eigenvalues)
    assert np.abs(boundary_determinant(COUPLINGS, off)).min() >= 1e-3


def test_determinant_chain_length_mismatch(six_site_eigenvalues):
    E = max(six_site_eigenvalues, key=abs)
    assert abs(boundary_determinant(COUPLINGS, E)) <= 1e-8
    assert abs(boundary_determinant(COUPLINGS.replace(L=7), E)) > 1e-10


def test_determinant_invariant_under_column_permutation(six_site_eigenvalues):
    # the factored Leibniz sum against the LU determinant of the plain
    # condition matrix, which is in double range at L = 6
    E = six_site_eigenvalues[2] + 0.4
    M, g = boundary_matrix(COUPLINGS, E)
    M, g = M[0], g[0]
    M[2:] *= np.exp(g)
    base = boundary_determinant(COUPLINGS, E)[0]
    rng = np.random.default_rng(1)
    for _ in range(4):
        MP = M[:, rng.permutation(4)]
        biggest = np.abs(MP[np.arange(4), PERMUTATIONS].prod(axis=1)).max()
        det = np.linalg.det(MP) / max(biggest, 1e-300)
        assert abs(abs(det) - abs(base)) <= 1e-12 * max(abs(base), 1.0)


def test_determinant_discriminates_past_double_range():
    # |beta| ~ 16 here, so beta^L alone is ~1e480 at L = 400
    chain = COUPLINGS.replace(L=400)
    evals = np.linalg.eigvals(build_bdg(chain))
    E = evals[::40]
    assert np.abs(boundary_determinant(chain, E)).max() <= 1e-8
    assert np.abs(boundary_determinant(chain, E + 0.03 + 0.02j)).min() >= 1e-3


def test_pairing_row_scales_linearly_with_delta():
    # B_j collapses with the pairing amplitude in the decoupled limit.
    # Only the branch with regular denominators decouples this way; the
    # other branch is a genuine 0/0 of the amplitude ratio as delta -> 0.
    E = 1.3 + 0.05j
    mags = []
    for d in (1e-2, 1e-4, 1e-6):
        spec = ModelSpec(t=1.0, gamma=0.0, delta=d, num_sites=10)
        b = solve_beta(spec, E).roots[0]
        denom = np.abs(E - (spec.t + spec.gamma / 2) / b - (spec.t - spec.gamma / 2) * b)
        regular = b[np.argsort(denom)[2:]]
        cf = boundary_coeffs(spec, E, regular[None])
        mags.append(np.abs(cf[0, 1]).max())  # row 1 is B
    assert mags[0] < 1.0
    assert mags[1] / mags[0] == pytest.approx(1e-2, rel=0.2)
    assert mags[2] / mags[1] == pytest.approx(1e-2, rel=0.2)


def test_coefficients_frozen_regression():
    # values computed once from the hand-derived closed forms
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=40)
    E = 0.8 + 0.3j
    q = solve_beta(spec, E)
    cf = boundary_coeffs(spec, E, q.roots)[0]  # rows A, B, C, D; columns BRANCH_ORDER
    want = {
        "1+": [(-0.12284372490179211 - 0.03825422942379307j),
               (-0.05495303715627238 - 0.13388980298327596j),
               (-0.00243943680883274 - 0.24116541518372311j),
               (-0.1469652373695212 - 0.13873615785771493j)],
        "2+": [(-2.0529083832140276 - 0.5423945524377984j),
               (-6.810179341249122 - 1.8983809335322799j),
               (4.218041709476222 - 0.45519189769304047j),
               (-1.3257583033956037 + 0.26379311522625404j)],
        "1-": [(-0.11666783875797337 + 0.007049370701440521j),
               (-0.033337435652907296 + 0.024672797455041303j),
               (-0.0026195345969780015 + 0.04312686474030072j),
               (-0.06275966431329282 + 0.05855077439335793j)],
        "2-": [(-2.1197898298489752 + 0.09885718135522836j),
               (-7.044264404471486 + 0.3460001347433277j),
               (4.599227038652385 + 4.967972677941373j),
               (-2.3113530830307716 - 1.734471910977089j)],
    }
    for lab, w in want.items():
        got = cf[:, BRANCH_ORDER.index(lab)]
        for row in range(4):
            assert got[row] == pytest.approx(w[row], rel=1e-12)


def test_singular_denominator_reported():
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=10)
    beta = 0.5 + 0.0j
    E = (spec.t + spec.gamma / 2) / beta + (spec.t - spec.gamma / 2) * beta
    fake = np.array([[beta, -1 / beta, 2.0 + 0j, -0.5 + 0j]])
    with pytest.raises(SingularDenominator):
        boundary_coeffs(spec, E, fake)


def test_continuum_ratio_on_band_energies():
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=40)
    E = band_energies(spec, 16, offset=0.5)
    q = solve_beta(spec, E)
    on_band = q.continuum_case != CASE_NEITHER
    lhs, rhs = continuum_ratio(spec, E[on_band])
    assert np.abs(np.abs(lhs) - 1.0).max() <= 1e-6
    assert (1e-4 < np.abs(rhs)).all() and (np.abs(rhs) < 1e4).all()
    assert len(set(q.continuum_case[on_band])) == 2  # both orderings occur and both paths run


def test_continuum_ratio_hermitian_limit_pure_phase():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.4, num_sites=40)
    E = band_energies(spec, 8, offset=0.5)
    lhs, _ = continuum_ratio(spec, E[solve_beta(spec, E).continuum_case != CASE_NEITHER])
    assert np.abs(np.abs(lhs) - 1.0).max() <= 1e-10



@pytest.mark.parametrize("gamma, delta", [(1.5, 0.5), (1.2, 0.3), (1.7, 0.6)])
@pytest.mark.parametrize("L", [20, 100])
def test_continuum_ratio_balances_at_open_chain_eigenvalues(gamma, delta, L):
    # rows 3 and 4 of the condition matrix share b_j^(L-1), so the
    # two-leading-term balance holds with that exponent at every bulk
    # eigenvalue.  The two of least modulus are the end modes, where it
    # does not apply; at L = 20, gamma 1.2 they sit at |E| ~ 3e-7.
    chain = ModelSpec(t=1.0, gamma=gamma, delta=delta, num_sites=L)
    evals = np.linalg.eigvals(build_bdg(chain))
    lhs, rhs = continuum_ratio(chain, evals[np.argsort(np.abs(evals))[2:]])
    assert np.abs(np.log(np.abs(lhs) / np.abs(rhs))).max() <= 1e-9


@settings(max_examples=100)
@given(t=st.floats(0.3, 2.0), gamma=st.floats(0.0, 3.0), delta=st.floats(0.1, 1.5),
       L=st.integers(2, 8))
def test_determinant_vanishes_at_open_chain_eigenvalues(t, gamma, delta, L):
    # off the degenerate line, where the quartic keeps four roots
    assume(abs(delta ** 2 - t ** 2 + gamma ** 2 / 4.0)
           >= 0.05 * max(delta ** 2, t ** 2, gamma ** 2 / 4.0))
    chain = ModelSpec(t=t, gamma=gamma, delta=delta, num_sites=L)
    evals = np.linalg.eigvals(build_bdg(chain))
    assert np.abs(boundary_determinant(chain, evals)).max() <= 1e-8


ONE_WAY = ModelSpec(t=1.0, gamma=1.99, delta=0.1, num_sites=10)


# On the nearly one-way chain (gamma 1.99) the scalar oracle's root
# formula cancels: it reads up to 6.7e-10 at the L = 10 eigenvalues,
# where the batched determinant reads 1e-13.  That sets the looser tol.
@pytest.mark.parametrize("chain, tol", [
    (COUPLINGS, 1e-10), (COUPLINGS.replace(L=100), 1e-10), (COUPLINGS.replace(L=400), 1e-10),
    (ModelSpec(t=1.0, gamma=1.2, delta=0.3, num_sites=20), 1e-10), (ONE_WAY, 1e-8),
], ids=["readme-6", "readme-100", "readme-400", "gamma1.2-20", "gamma1.99-10"])
def test_norm_det_matches_per_energy_reference(chain, tol):
    evals = np.linalg.eigvals(build_bdg(chain))[:: max(1, chain.num_sites // 10)]
    E = np.concatenate([evals, evals + 0.03 + 0.02j])
    got = np.abs(boundary_determinant(chain, E))
    want = np.abs([boundary_determinant_scalar(chain, e) for e in E])
    assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("L", [10, 100])
def test_one_way_chain_norm_det_floor(L):
    # worst on-spectrum value: 1.0e-13 at L = 10, 3.4e-12 at L = 100
    chain = ONE_WAY.replace(L=L)
    evals = np.linalg.eigvals(build_bdg(chain))
    assert np.abs(boundary_determinant(chain, evals)).max() <= 1e-10
