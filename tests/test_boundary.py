import numpy as np
import pytest

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
from nhskin.boundary import BoundaryCoeffs
from nhskin.errors import SingularDenominator, WrongCase
from nhskin.nonbloch import BetaQuartet, CASE_NEITHER

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
    for E in six_site_eigenvalues:
        assert abs(boundary_determinant(COUPLINGS, E, 6)) <= 1e-8


def test_determinant_large_off_spectrum(six_site_eigenvalues):
    for E in off_spectrum_draws(six_site_eigenvalues):
        assert abs(boundary_determinant(COUPLINGS, E, 6)) >= 1e-3


def test_determinant_chain_length_mismatch(six_site_eigenvalues):
    E = max(six_site_eigenvalues, key=abs)
    assert abs(boundary_determinant(COUPLINGS, E, 6)) <= 1e-8
    assert abs(boundary_determinant(COUPLINGS, E, 7)) > 1e-10


def test_determinant_invariant_under_column_permutation(six_site_eigenvalues):
    # the factored Leibniz sum against the LU determinant of the plain
    # condition matrix, which is in double range at L = 6
    E = six_site_eigenvalues[2] + 0.4
    M, g = boundary_matrix(COUPLINGS, E, 6)
    M[2:] *= np.exp(g)
    from nhskin.boundary import _leibniz_terms
    base = boundary_determinant(COUPLINGS, E, 6)
    rng = np.random.default_rng(1)
    for _ in range(4):
        P = rng.permutation(4)
        terms = _leibniz_terms(M[:, P], np.zeros(4))
        det = np.linalg.det(M[:, P]) / max(max(abs(x) for x in terms), 1e-300)
        assert abs(abs(det) - abs(base)) <= 1e-12 * max(abs(base), 1.0)


def test_determinant_discriminates_past_double_range():
    # |beta| ~ 16 here, so beta^L alone is ~1e480 at L = 400
    chain = COUPLINGS.replace(L=400)
    evals = np.linalg.eigvals(build_bdg(chain))
    for E in evals[::40]:
        assert abs(boundary_determinant(chain, E, 400)) <= 1e-8
        assert abs(boundary_determinant(chain, E + 0.03 + 0.02j, 400)) >= 1e-3


def test_pairing_row_scales_linearly_with_delta():
    # B_j collapses with the pairing amplitude in the decoupled limit.
    # Only the branch with regular denominators decouples this way; the
    # other branch is a genuine 0/0 of the amplitude ratio as delta -> 0.
    E = 1.3 + 0.05j
    mags = []
    for d in (1e-2, 1e-4, 1e-6):
        spec = ModelSpec(t=1.0, gamma=0.0, delta=d, num_sites=10)
        q = solve_beta(spec, E)

        def denom(b):
            return abs(E - (spec.t + spec.gamma / 2) / b
                       - (spec.t - spec.gamma / 2) * b)

        keep = sorted(q.roots, key=lambda k: denom(q.roots[k]))[2:]
        regular = BetaQuartet(
            energy=E,
            roots={k: q.roots[k] for k in keep},
            sorted_moduli=q.sorted_moduli,
            continuum_case=q.continuum_case,
            mid_modulus_gap=q.mid_modulus_gap,
        )
        cf = boundary_coeffs(spec, E, regular)
        mags.append(max(abs(c.b) for c in cf.values()))
    assert mags[0] < 1.0
    assert mags[1] / mags[0] == pytest.approx(1e-2, rel=0.2)
    assert mags[2] / mags[1] == pytest.approx(1e-2, rel=0.2)


def test_coefficients_frozen_regression():
    # values computed once from the hand-derived closed forms
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=40)
    E = 0.8 + 0.3j
    q = solve_beta(spec, E)
    cf = boundary_coeffs(spec, E, q)
    want = {
        "1+": BoundaryCoeffs(
            a=(-0.12284372490179211 - 0.03825422942379307j),
            b=(-0.05495303715627238 - 0.13388980298327596j),
            c=(-0.00243943680883274 - 0.24116541518372311j),
            d=(-0.1469652373695212 - 0.13873615785771493j)),
        "2+": BoundaryCoeffs(
            a=(-2.0529083832140276 - 0.5423945524377984j),
            b=(-6.810179341249122 - 1.8983809335322799j),
            c=(4.218041709476222 - 0.45519189769304047j),
            d=(-1.3257583033956037 + 0.26379311522625404j)),
        "1-": BoundaryCoeffs(
            a=(-0.11666783875797337 + 0.007049370701440521j),
            b=(-0.033337435652907296 + 0.024672797455041303j),
            c=(-0.0026195345969780015 + 0.04312686474030072j),
            d=(-0.06275966431329282 + 0.05855077439335793j)),
        "2-": BoundaryCoeffs(
            a=(-2.1197898298489752 + 0.09885718135522836j),
            b=(-7.044264404471486 + 0.3460001347433277j),
            c=(4.599227038652385 + 4.967972677941373j),
            d=(-2.3113530830307716 - 1.734471910977089j)),
    }
    for lab, w in want.items():
        got = cf[lab]
        for field in "abcd":
            assert getattr(got, field) == pytest.approx(getattr(w, field), rel=1e-12)


def test_singular_denominator_reported():
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=10)
    beta = 0.5 + 0.0j
    E = (spec.t + spec.gamma / 2) / beta + (spec.t - spec.gamma / 2) * beta
    fake = BetaQuartet(energy=E, roots={"1+": beta, "2+": -1 / beta,
                                        "1-": 2.0 + 0j, "2-": -0.5 + 0j},
                       sorted_moduli=np.array([0.5, 0.5, 2.0, 2.0]),
                       continuum_case=CASE_NEITHER, mid_modulus_gap=1.5)
    with pytest.raises(SingularDenominator):
        boundary_coeffs(spec, E, fake)


def test_continuum_ratio_on_band_energies():
    spec = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=40)
    cases = set()
    for E in band_energies(spec, 16, offset=0.5):
        q = solve_beta(spec, complex(E))
        if q.continuum_case == CASE_NEITHER:
            continue
        cases.add(q.continuum_case)
        lhs, rhs = continuum_ratio(spec, complex(E), 40)
        assert abs(abs(lhs) - 1.0) <= 1e-6
        assert 1e-4 < abs(rhs) < 1e4
    assert len(cases) == 2  # both orderings occur and both paths run


def test_continuum_ratio_hermitian_limit_pure_phase():
    spec = ModelSpec(t=1.0, gamma=0.0, delta=0.4, num_sites=40)
    for E in band_energies(spec, 8, offset=0.5):
        q = solve_beta(spec, complex(E))
        if q.continuum_case == CASE_NEITHER:
            continue
        lhs, _ = continuum_ratio(spec, complex(E), 40)
        assert abs(abs(lhs) - 1.0) <= 1e-10


def test_continuum_ratio_wrong_case():
    with pytest.raises(WrongCase):
        continuum_ratio(COUPLINGS, 10.0 + 10.0j, 40)
