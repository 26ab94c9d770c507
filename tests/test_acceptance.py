"""End-to-end acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to
see them all).  Tolerances are fixed here, not configurable: these are
the exit criteria for the package.
"""

import json
import math
import os

import numpy as np
import pytest

from nhskin import (
    ModelSpec,
    OBC,
    PBC,
    band_energies,
    boundary_determinant,
    bonds,
    build_bdg,
    classify_states,
    commutator_residual,
    continuum_condition,
    continuum_ratio,
    default_candidates,
    eigendecompose,
    skin_metrics,
    solve_beta,
    theorem_verdict,
    zak_phase,
)
from nhskin.cli import main
from nhskin.nonbloch import gbz_modulus_report
from nhskin.symmetry import KIND_REDUCIBLE, SymmetryOp
from oracles import (band_energies_half_shifted, build_single_particle, negation_distance,
                     pbc_spectrum, quartic_coefficients, set_distance)

REFERENCE = ModelSpec(t=1.0, gamma=1.5, delta=0.5, num_sites=100)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reference_es():
    return eigendecompose(build_bdg(REFERENCE), 100)


def test_criterion_01_symmetry_commutation():
    S = SymmetryOp("sy", True)
    r = commutator_residual(bonds(REFERENCE), S)
    report(1, "symmetry commutation", r <= 1e-12, f"residual={r:.2e}")


def test_criterion_02_blocked_skin_effect(reference_es):
    st = classify_states(reference_es, ell=10, w_edge=0.9)
    min_pr = st.participation_ratio[~st.is_edge].min()
    rep = skin_metrics(reference_es, tau_skin=0.25)
    ok = (min_pr >= 0.1 * 100
          and abs(rep.skew) <= 0.05
          and not rep.skin_detected)
    report(2, "blocked skin effect", ok,
           f"minPR={min_pr:.1f} "
           f"skew={rep.skew:.2e} detected={rep.skin_detected}")


def test_criterion_03_edge_modes(reference_es):
    st = classify_states(reference_es, ell=10, w_edge=0.9)
    coms = sorted(st.center_of_mass[st.edge_weight > 0.9])
    ok = len(coms) == 2 and coms[0] < 10.0 and coms[1] > 91.0
    report(3, "two opposite edge modes", ok,
           f"n={len(coms)} coms={[round(float(c), 2) for c in coms]}")


def test_criterion_04_pair_product_invariant():
    rng = np.random.default_rng(2024)
    energies = []
    for _ in range(100):
        r = 4.0 * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        energies.append(r * complex(math.cos(phi), math.sin(phi)))
    b = solve_beta(REFERENCE, energies)  # columns 1+, 2+, 1-, 2-
    worst = float(max(np.abs(b[:, 0] * b[:, 1] + 1.0).max(),
                      np.abs(b[:, 2] * b[:, 3] + 1.0).max()))
    report(4, "pair products equal -1", worst <= 1e-10, f"worst={worst:.2e}")


def test_criterion_05_unit_circle_moduli():
    energies = band_energies(REFERENCE, 25)  # 50 bulk-band energies
    m = gbz_modulus_report(REFERENCE, energies)[0]
    worst_eq = (np.abs(m[:, 1] - m[:, 2]) / np.maximum(m[:, 1], m[:, 2])).max()
    worst_one = np.abs(m[:, 1:3] - 1.0).max()
    ok = worst_eq <= 1e-6 and worst_one <= 1e-6
    report(5, "middle moduli equal one", ok,
           f"eq={worst_eq:.2e} dev1={worst_one:.2e}")


def test_criterion_06_zak_phase():
    phase = zak_phase(REFERENCE)
    trivial = zak_phase(ModelSpec(t=1.0, num_sites=10))
    ok = (abs(abs(phase) - math.pi) <= 1e-2
          and abs(trivial) <= 1e-6)
    report(6, "loop phase pi vs 0", ok,
           f"|phase|={abs(phase):.6f} trivial={trivial:.2e}")


def test_criterion_07_theta_sweep(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "t": 1.0, "gamma": 1.5, "delta": 0.5,
        "V": 2.0, "theta": 0.0, "L": 96, "boundary": "obc",
    }))
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", str(cfg), "--out", out,
               "--steps", "24"])
    assert rc == 0
    rows = {}
    with open(os.path.join(out, "sweep.csv")) as fh:
        fh.readline()
        for line in fh:
            parts = line.strip().split(",")
            rows[int(parts[0])] = parts
    symmetric = {0, 4, 8, 12, 16, 20}
    ok = True
    for s, parts in rows.items():
        residual = float(parts[2])
        detected = parts[6] == "true"
        if s in symmetric:
            ok = ok and residual <= 1e-10 and not detected
        else:
            ok = ok and residual > 1e-3 and detected
    quarter = rows[3]  # theta = pi/4
    ok = ok and float(quarter[2]) > 1e-3 and quarter[6] == "true"
    report(7, "theta sweep symmetry vs skin", ok,
           f"sym residuals<=1e-10 at {sorted(symmetric)}, "
           f"pi/4 residual={float(quarter[2]):.2e}")


def test_criterion_08_spectral_negation():
    specs = [
        REFERENCE,
        REFERENCE.replace(V=2.0, theta=np.pi / 4),
        REFERENCE.replace(V=2.0, theta=0.9, L=99, boundary=PBC),
        REFERENCE.replace(boundary=PBC, L=50),
        ModelSpec(t=0.7, gamma=0.4, delta=0.3, num_sites=21),
    ]
    worst = 0.0
    for spec in specs:
        H = build_bdg(spec)
        vals = np.linalg.eigvals(H)
        worst = max(worst, negation_distance(vals) / np.linalg.norm(H))
    report(8, "spectrum equals its negation", worst <= 1e-9,
           f"worst relative={worst:.2e}")


def test_criterion_09_boundary_determinant_oracle():
    chain = REFERENCE.replace(L=6)
    ev = np.linalg.eigvals(build_bdg(chain))
    on_spectrum = np.abs(boundary_determinant(chain, ev)).max()
    rng = np.random.default_rng(42)
    off = []
    while len(off) < 20:
        E = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
        if np.abs(ev - E).min() >= 0.25:
            off.append(E)
    off_vals = np.abs(boundary_determinant(chain, off))
    ok = on_spectrum <= 1e-8 and min(off_vals) >= 1e-3
    report(9, "boundary determinant oracle", ok,
           f"on<= {on_spectrum:.2e} off>= {min(off_vals):.2e}")


def test_criterion_10_continuum_ratio_modulus():
    spec = REFERENCE.replace(L=40)
    energies = band_energies_half_shifted(spec, 16)
    on_band = energies[continuum_condition(solve_beta(spec, energies)) != "neither"]
    lhs, _ = continuum_ratio(spec, on_band)
    worst = np.abs(np.abs(lhs) - 1.0).max()
    tested = len(on_band)
    ok = tested >= 20 and worst <= 1e-6
    report(10, "continuum ratio unit modulus", ok,
           f"tested={tested} worst={worst:.2e}")


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_roots = 0.0
    for _ in range(100):
        spec = ModelSpec(
            t=rng.uniform(0.5, 1.5), gamma=rng.uniform(0.0, 2.0),
            delta=rng.uniform(0.1, 0.9), num_sites=10,
        )
        if abs(spec.delta ** 2 - spec.t ** 2 + spec.gamma ** 2 / 4) < 1e-3:
            continue
        E = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        mine = solve_beta(spec, E)[0]
        other = np.roots(quartic_coefficients(spec, E))
        worst_roots = max(worst_roots, set_distance(mine, other))
    spec = REFERENCE.replace(L=50, boundary=PBC)
    ring = pbc_spectrum(spec)
    spectral = set_distance(ring, band_energies(REFERENCE, 50))
    ok = worst_roots <= 1e-9 and spectral <= 1e-9
    report(11, "closed form vs companion; ring vs unit circle", ok,
           f"roots={worst_roots:.2e} ring={spectral:.2e}")


def test_criterion_12_reducibility_gate_and_control():
    v = theorem_verdict(bonds(REFERENCE.replace(delta=0.0, L=40)), default_candidates())
    gate_ok = (v.kind == KIND_REDUCIBLE
               and sorted(len(c) for c in v.components) == [40, 40])
    ctrl = ModelSpec(t=1.0, gamma=1.5, num_sites=40)
    es = eigendecompose(build_single_particle(ctrl), 40)
    rep = skin_metrics(es)
    ok = gate_ok and rep.skin_detected
    report(12, "reducibility gate + pile-up control", ok,
           f"components={[len(c) for c in v.components]} "
           f"control accumulation={rep.accumulation:.3f}")
