import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhskin import ModelSpec, build_bdg, classify_states, cli, eigendecompose, solve_beta
from nhskin.cli import MAX_ENERGIES, MAX_GRID, MAX_STEPS, main
from nhskin.errors import DegenerateLeadingCoeff
from nhskin.model import MAX_SITES, theta_orbits
from oracles import sweep_theta_loop

REFERENCE_CONFIG = {
    "t": 1.0, "gamma": 1.5, "delta": 0.5,
    "V": 0.0, "theta": 0.0, "L": 40, "boundary": "obc",
}

# At theta = pi/6 this chain has a defective eigenvalue pair near E = 1.93
# (an exceptional point); theta = pi/6 is step 1 of a 12-step sweep.
DEFECTIVE_CONFIG = {"gamma": 1.3942996588998975, "delta": 0.36033966956980074,
                    "V": 2.0, "L": 39}


@pytest.fixture
def config_path(tmp_path):
    def make(**overrides):
        cfg = {**REFERENCE_CONFIG, **overrides}
        p = tmp_path / "model.json"
        p.write_text(json.dumps(cfg))
        return str(p)
    return make


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


# the default edge window, min(10, L // 4) sites, leaves short chains
# their bulk rows
@pytest.mark.parametrize("L", [40, 12, 20, 21])
def test_spectrum_command(config_path, tmp_path, L):
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", config_path(L=L), "--out", out, "--svg"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert header == ["index", "re_E", "im_E", "class", "com", "edge_weight", "pr"]
    assert len(rows) == 2 * L
    edge_rows = [r for r in rows if r[3] == "edge"]
    assert len(edge_rows) == 2
    with open(os.path.join(out, "spectrum.svg")) as fh:
        assert fh.read().startswith("<svg")


def test_spectrum_reference_chain_full(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", config_path(L=100), "--out", out])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert len(rows) == 200
    assert sum(1 for r in rows if r[3] == "edge") == 2


def test_spectrum_reruns_are_byte_identical(config_path, tmp_path, capsys):
    # every command, not only spectrum: two runs write the same bytes, and
    # --svg writes <stem>.svg on the five commands that draw a figure and
    # is a usage error (exit 1) on the two that do not
    commands = {
        "spectrum": ("spectrum.csv", []),
        "profiles": ("profiles.csv", []),
        "symmetry": ("verdict.json", []),
        "gbz": ("gbz.csv", ["--num-energies", "10"]),
        "zak": ("zak.json", ["--grid", "64"]),
        "sweep-theta": ("sweep.csv", ["--steps", "6", "--L", "12"]),
        "boundary": ("boundary.csv", ["--L-check", "6"]),
    }
    for command, (name, flags) in commands.items():
        draws = command not in ("symmetry", "zak")
        want = sorted([name] + [os.path.splitext(name)[0] + ".svg"] * draws)
        runs = []
        for run in ("a", "b"):
            out = tmp_path / command / run
            argv = [command, "--config", config_path(), "--out", str(out), *flags]
            assert main(argv + ["--svg"] * draws) == 0, command
            assert capsys.readouterr().out == f"{out / name}\n"
            assert sorted(f.name for f in out.iterdir()) == want
            runs.append([(out / f).read_bytes() for f in want])
        assert runs[0] == runs[1], command
        if not draws:
            out = tmp_path / command / "svg"
            argv = [command, "--config", config_path(), "--out", str(out), "--svg"]
            assert main(argv) == 1
            assert not out.exists()


# Figure layout through the CLI: the axes rectangles side by side, and the
# marks of each panel (circles, polylines) between its rectangle and the next.
WIDE, HALF = ("60", "680", "460"), [("60", "310", "460"), ("430", "310", "460")]


@pytest.mark.parametrize("command, flags, axes, marks", [
    ("spectrum", ["--L", "12"], HALF, [(24, 0), (24, 0)]),
    ("profiles", ["--L", "40", "--selection", "bulk:3"], [WIDE], [(0, 3)]),
    ("sweep-theta", ["--L", "12", "--steps", "6"], HALF, [(6, 0), (6, 0)]),
])
def test_figure_layout(config_path, tmp_path, command, flags, axes, marks):
    out = tmp_path / "o"
    cfg = config_path(V=2.0, theta=0.3)
    assert main([command, "--config", cfg, "--out", str(out), "--svg", *flags]) == 0
    svg, = (p.read_text() for p in out.glob("*.svg"))
    panels = svg.split('<rect x="')[1:]
    assert [re.match(r'(\d+)" y="60" width="(\d+)" height="(\d+)"', p).groups()
            for p in panels] == axes
    assert [(p.count("<circle"), p.count("<polyline")) for p in panels] == marks


def test_spectrum_hermitian_chain_real(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", config_path(gamma=0.0), "--out", out])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert max(abs(float(r[2])) for r in rows) <= 1e-10


@pytest.mark.parametrize("L", [40, 12, 20, 21])
def test_profiles_bulk_selection(config_path, tmp_path, L):
    out = str(tmp_path / "out")
    rc = main(["profiles", "--config", config_path(L=L), "--out", out])  # bulk:4 by default
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "profiles.csv"))
    by_state = {}
    for r in rows:
        by_state.setdefault(int(r[0]), []).append(float(r[2]))
    assert len(by_state) == 4
    for dens in by_state.values():
        dens = np.array(dens)
        assert abs(dens.sum() - 1.0) <= 1e-12
        pr = 1.0 / (dens ** 2).sum()
        assert pr >= 0.1 * L  # delocalized


def test_profiles_edge_selection(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["profiles", "--config", config_path(), "--out", out,
               "--selection", "edge:all"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "profiles.csv"))
    by_state = {}
    for r in rows:
        by_state.setdefault(int(r[0]), []).append(float(r[2]))
    assert len(by_state) == 2
    coms = sorted(
        float(np.sum(np.arange(1, 41) * np.array(d))) for d in by_state.values()
    )
    assert coms[0] < 10 and coms[1] > 31


def test_profiles_broken_symmetry_localizes(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["profiles", "--config",
               config_path(V=2.0, theta=math.pi / 4, L=60),
               "--out", out, "--selection", "bulk:4"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "profiles.csv"))
    by_state = {}
    for r in rows:
        by_state.setdefault(int(r[0]), []).append(float(r[2]))
    # the selected bulk states are squeezed to an end
    displacements = []
    for dens in by_state.values():
        dens = np.array(dens)
        com = float(np.sum(np.arange(1, 61) * dens))
        displacements.append(abs(com - 30.5) / 30.0)
    assert np.mean(displacements) > 0.25


def test_profiles_indices_are_spectrum_rows(config_path, tmp_path):
    cfg = config_path(V=2.0, theta=0.3)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    _, spectrum = read_csv(tmp_path / "s" / "spectrum.csv")
    edge = [int(r[0]) for r in spectrum if r[3] == "edge"]
    bulk = [int(r[0]) for r in spectrum if r[3] == "bulk"]
    picked = [*edge, bulk[0], bulk[len(bulk) // 2], bulk[-1]]
    assert edge and len(set(picked)) == len(picked)
    assert main(["profiles", "--config", cfg, "--out", str(tmp_path / "p"),
                 "--selection", ",".join(map(str, picked))]) == 0
    _, rows = read_csv(tmp_path / "p" / "profiles.csv")
    assert [int(r[0]) for r in rows[::40]] == picked
    for i, state in zip(picked, np.array(rows, dtype=float).reshape(len(picked), 40, 3)):
        com = np.dot(state[:, 1], state[:, 2])
        assert abs(com - float(spectrum[i][4])) <= 1e-12


def test_explicit_edge_window_is_used_as_given(config_path, tmp_path):
    # the default window at L = 12 is 3 sites
    assert main(["spectrum", "--config", config_path(L=12), "--out", str(tmp_path / "o"),
                 "--edge-sites", "5"]) == 0
    _, rows = read_csv(tmp_path / "o" / "spectrum.csv")
    spec = ModelSpec.from_dict({**REFERENCE_CONFIG, "L": 12})
    weights = classify_states(eigendecompose(build_bdg(spec), 12), 5).edge_weight
    assert np.allclose(sorted(float(r[5]) for r in rows), np.sort(weights), rtol=0, atol=1e-12)
    assert max(weights) < 1.0


@pytest.mark.parametrize("command, flags", [
    ("sweep-theta", ["--steps", "6", "--V", "2"]),
    ("boundary", ["--L-check", "6"]),
])
def test_open_chain_commands_refuse_a_ring(config_path, tmp_path, capsys, command, flags):
    argv = [command, "--config", config_path(L=12), "--out", str(tmp_path / "o"), *flags]
    assert main([*argv, "--boundary", "pbc"]) == 1
    assert (capsys.readouterr().err.splitlines()[-1]
            == f"config error: {command} solves open chains only, not boundary 'pbc'")
    assert main([*argv, "--boundary", "obc"]) == 0


def test_profiles_bad_selection(config_path, tmp_path):
    rc = main(["profiles", "--config", config_path(),
               "--out", str(tmp_path / "o"), "--selection", "0,999"])
    assert rc == 1


def test_symmetry_command(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["symmetry", "--config", config_path(), "--out", out])
    assert rc == 0
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    assert verdict["kind"] == "nhse_blocked"
    assert verdict["candidate"] == {"internal": "sy", "staggered": True}
    assert verdict["residual"] <= 1e-12


def test_symmetry_command_reducible(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["symmetry", "--config", config_path(delta=0.0), "--out", out])
    assert rc == 0
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    assert verdict["kind"] == "inapplicable_reducible"
    assert sorted(len(c) for c in verdict["components"]) == [40, 40]


def test_symmetry_command_hermitian_chain(config_path, tmp_path):
    # gamma = 0 makes H real symmetric: no skin effect, although theta = 0.3
    # breaks every mirror candidate
    out = str(tmp_path / "out")
    rc = main(["symmetry", "--config", config_path(gamma=0.0, V=2.0, theta=0.3, L=96),
               "--out", out])
    assert rc == 0
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    assert verdict == {"kind": "hermitian_no_skin", "residual": None, "candidate": None,
                       "components": None}


@pytest.mark.parametrize("gamma, delta", [(1.5, 0.5), (1.2, 0.3), (1.7, 0.65)])
def test_symmetry_on_a_ring_tests_the_ring_centers(config_path, tmp_path, gamma, delta):
    # at every theta = k pi/3 one staggered sy ring center commutes; symmetry
    # on a ring whose length is a multiple of 6 agrees with sweep-theta's
    # ring, and names the center
    cfg = config_path(gamma=gamma, delta=delta, V=2.0, L=12)
    assert main(["sweep-theta", "--config", cfg, "--steps", "6",
                 "--out", str(tmp_path / "sweep")]) == 0
    _, rows = read_csv(str(tmp_path / "sweep" / "sweep.csv"))
    for L in (12, 48):
        for step, theta, _, kind, *_ in rows:
            out = tmp_path / f"ring{L}-{step}"
            assert main(["symmetry", "--config", cfg, "--boundary", "pbc", "--L", str(L),
                         "--theta", theta, "--out", str(out)]) == 0
            verdict = json.loads((out / "verdict.json").read_text())
            assert verdict["kind"] == kind
            cand = verdict["candidate"]
            assert cand.pop("internal") == "sy" and cand.pop("staggered") is True
            assert list(cand) == ["center"] and cand["center"] in range(6)
            assert type(cand["center"]) is int


# t = 0 leaves hopping -+gamma/2 and pairing delta: a ring reflection
# commutes at every theta = k pi/6, staggered sy on even k and the
# staggered identity on odd k, and ED finds no skin at any of them
T0_CHAIN = {"t": 0.0, "gamma": 1.0, "delta": 1.6, "V": 1.0}


def test_symmetry_on_a_ring_tests_every_candidate_at_every_center(config_path, tmp_path):
    cfg = config_path(**T0_CHAIN)
    for k in range(12):
        out = tmp_path / f"ring-{k}"
        assert main(["symmetry", "--config", cfg, "--boundary", "pbc", "--L", "12",
                     "--theta", repr(k * np.pi / 6.0), "--out", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["kind"] == "nhse_blocked", k
        center = verdict["candidate"]["center"]
        assert type(center) is int and center in range(6)


def test_sweep_blocks_skin_where_a_ring_commutes(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep-theta", "--config", config_path(**T0_CHAIN, L=48), "--steps", "12",
                 "--out", str(out)]) == 0
    _, rows = read_csv(str(out / "sweep.csv"))
    assert len(rows) == 12
    for r in rows:
        assert r[3] == "nhse_blocked" and r[6] == "false", r


def test_gbz_command(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["gbz", "--config", config_path(), "--out", out,
               "--num-energies", "20"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "gbz.csv"))
    assert header == ["re_E", "im_E", "m1", "m2", "m3", "m4", "case", "mid_gap"]
    assert len(rows) >= 10
    for r in rows:
        assert abs(float(r[3]) - 1.0) <= 1e-6
        assert abs(float(r[4]) - 1.0) <= 1e-6


# gamma and delta of the benchmark's seed-0 and seed-7 chains, and a
# reciprocal chain, whose bands are also even in k
@pytest.mark.parametrize("gamma, delta", [(1.706653110915029, 0.603181761176121),
                                          (1.3942996588998975, 0.36033966956980074),
                                          (0.0, 0.5)])
@pytest.mark.parametrize("count", [7, 51, 200])
def test_gbz_picks_distinct_energies(config_path, tmp_path, gamma, delta, count):
    # E(k) = E(pi - k), and at gamma = 0 E(k) = E(-k): the mirror grid
    # points would repeat energies
    out = str(tmp_path / "out")
    assert main(["gbz", "--config", config_path(gamma=gamma, delta=delta), "--out", out,
                 "--num-energies", str(count)]) == 0
    _, rows = read_csv(os.path.join(out, "gbz.csv"))
    E = np.array([complex(float(r[0]), float(r[1])) for r in rows])
    assert len(E) == count
    gaps = np.abs(E[:, None] - E[None, :]) + np.eye(count)
    assert gaps.min() > 1e-10


def test_gbz_rejects_potential(config_path, tmp_path):
    rc = main(["gbz", "--config", config_path(V=2.0, L=39),
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_zak_command(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["zak", "--config", config_path(), "--out", out,
               "--grid", "256"])
    assert rc == 0
    with open(os.path.join(out, "zak.json")) as fh:
        payload = json.load(fh)
    assert payload == {"band": "plus", "phase": math.pi}


def test_zak_numerical_error_exit_code(config_path, tmp_path):
    # bands of the t = 0 chain touch on the loop
    rc = main(["zak", "--config", config_path(t=0.0, gamma=0.1, delta=0.5),
               "--out", str(tmp_path / "o"), "--grid", "128"])
    assert rc == 2


def test_sweep_theta_command(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", config_path(V=2.0, L=24),
               "--out", out, "--steps", "8"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "sweep.csv"))
    assert header == ["step", "theta", "residual", "verdict", "skew",
                      "accumulation", "skin_detected"]
    assert len(rows) == 8
    by_step = {int(r[0]): r for r in rows}
    # steps 0 and 4 are theta = 0 and pi: symmetric; step 1 is pi/4: broken
    for s in (0, 4):
        assert float(by_step[s][2]) <= 1e-10
        assert by_step[s][3] == "nhse_blocked"
        assert by_step[s][6] == "false"
    assert float(by_step[1][2]) > 1e-3
    assert by_step[1][6] == "true"


def test_sweep_without_potential_always_symmetric(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", config_path(L=24),
               "--out", out, "--steps", "6"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "sweep.csv"))
    for r in rows:
        assert float(r[2]) <= 1e-10
        assert r[6] == "false"


def test_sweep_hermitian_chain_never_expects_skin(config_path, tmp_path):
    # every step is Hermitian; the residual column still carries the best
    # ring candidate's residual, which vanishes at every step: staggered sy
    # commutes on even steps and unstaggered sz on odd ones
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", config_path(gamma=0.0, V=2.0, L=48),
               "--out", out, "--steps", "12"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "sweep.csv"))
    assert len(rows) == 12
    for r in rows:
        assert r[3] == "hermitian_no_skin" and r[6] == "false"
        assert float(r[2]) <= 1e-10


@pytest.mark.parametrize("flags", [["--L", "2"], ["--L", "6"], ["--L", "10"],
                                   ["--V", "1", "--L", "12"]],
                         ids=["L2", "L6", "L10", "diagonal-L12"])
def test_sweep_refuses_an_uncoupled_chain(config_path, tmp_path, capsys, flags):
    # with t = gamma = delta = 0 every state sits on one site, and the spread
    # of their centers of mass would read as skin (accumulation 0.43 to 0.5)
    cfg = config_path(t=0.0, gamma=0.0, delta=0.0)
    out = tmp_path / "o"
    assert main(["sweep-theta", "--config", cfg, "--out", str(out), "--steps", "6",
                 *flags]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "config error: sweep-theta needs a coupled chain: with t, gamma and delta all 0 "
        "no bond joins two sites")
    assert not out.exists()
    assert main(["symmetry", "--config", cfg, "--out", str(out), *flags]) == 0
    assert json.loads((out / "verdict.json").read_text())["kind"] == "hermitian_no_skin"


def test_sweep_rejects_too_few_steps(config_path, tmp_path):
    rc = main(["sweep-theta", "--config", config_path(V=2.0, L=24),
               "--out", str(tmp_path / "o"), "--steps", "3"])
    assert rc == 1


def test_sweep_reads_tau_skin(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", config_path(V=2.0, L=24),
               "--out", out, "--steps", "8", "--tau-skin", "0.999"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "sweep.csv"))
    assert all(r[6] == "false" for r in rows)


def test_sweep_runs_through_a_defective_cluster(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", config_path(**DEFECTIVE_CONFIG),
               "--out", out, "--steps", "12"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "sweep.csv"))
    assert len(rows) == 12
    assert rows[1][3] == "nhse_expected" and rows[1][6] == "true"


@pytest.mark.parametrize("command", ["spectrum", "profiles"])
def test_per_state_commands_reject_a_defective_cluster(config_path, tmp_path,
                                                       capsys, command):
    cfg = config_path(**DEFECTIVE_CONFIG, theta=2.0 * np.pi * 1 / 12)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "defective" in capsys.readouterr().err


@pytest.mark.parametrize("L", [24, 48])
def test_control_chain_spectrum_runs_and_flags_conditioning(config_path, tmp_path,
                                                           capsys, L):
    # delta = 0 decouples two Hatano-Nelson blocks that share every
    # eigenvalue; the spectrum is exponentially ill-conditioned, not defective
    rc = main(["spectrum", "--config", config_path(delta=0.0, L=L),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "ill-conditioned" in capsys.readouterr().err


def test_well_conditioned_spectrum_prints_no_warning(config_path, tmp_path, capsys):
    assert main(["spectrum", "--config", config_path(), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_boundary_command(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["boundary", "--config", config_path(L=6), "--out", out,
               "--L-check", "6"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "boundary.csv"))
    assert header == ["re_E", "im_E", "L", "norm_det", "lhs_abs", "rhs_abs"]
    assert len(rows) == 12
    for r in rows:
        assert float(r[3]) <= 1e-8
        assert all(math.isfinite(float(x)) for x in r)


# The outer |beta| is ~16 on the README chain and ~1.6e5 at gamma 1.99, so
# beta^L alone leaves double range at these lengths.  The gamma 1.99 chain
# is nearly one-way (t - gamma/2 = 0.005): its eigenvalues agree with
# 40-digit references to ~5e-15, but the determinant's own rounding puts
# its floor near 1e-9 already at L = 10.
@pytest.mark.parametrize("model, L_check, bound", [
    ({}, 300, 1e-8),
    ({"gamma": 1.99, "delta": 0.1}, 100, 1e-6),
], ids=["readme-300", "gamma1.99-100"])
def test_boundary_past_double_range(config_path, tmp_path, model, L_check, bound):
    out = str(tmp_path / "out")
    rc = main(["boundary", "--config", config_path(**model), "--out", out,
               "--L-check", str(L_check)])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "boundary.csv"))
    assert len(rows) == 2 * L_check
    assert max(float(r[3]) for r in rows) <= bound


# perfbench seed-0 couplings: steps 2 and 14 of 24 have kappa*eps ~ 1.9e-4
SEED0_SWEEP = {"gamma": 1.706653110915029, "delta": 0.603181761176121, "V": 2.0, "L": 96}


def test_sweep_warns_about_ill_conditioned_steps(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", config_path(**SEED0_SWEEP), "--out", out,
               "--steps", "24"])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: eigenvalues at steps ")
    steps = err[0].split("steps ")[1].split(" are ")[0].split(", ")
    assert {"2", "14"} <= set(steps)
    kappa = float(err[0].split("max kappa ")[1].split(")")[0])
    assert 1e-5 < kappa * np.finfo(float).eps < 1e-3


@pytest.mark.parametrize("L, steps, model, orbits", [
    (96, 24, SEED0_SWEEP, 7),
    (95, 24, SEED0_SWEEP, 7),
    (40, 8, SEED0_SWEEP, 4),       # 3 does not divide 8 * 41: theta + pi only
    (40, 9, SEED0_SWEEP, 5),       # odd steps: the mirror map only
    (39, 12, DEFECTIVE_CONFIG, 4),  # step 1 holds an exceptional point
])
def test_sweep_solves_once_per_theta_orbit(monkeypatch, L, steps, model, orbits):
    spec = ModelSpec.from_dict({**REFERENCE_CONFIG, **model, "L": L})
    args = cli.build_parser().parse_args(["sweep-theta", "--steps", str(steps)])
    solves = []
    eigendecompose = cli.eigendecompose
    monkeypatch.setattr(cli, "eigendecompose",
                        lambda *a, **k: solves.append(1) or eigendecompose(*a, **k))
    out = cli.cmd_sweep_theta(spec, args)
    orbit = theta_orbits(L, steps)
    assert len(solves) == orbits == len({rep for rep, _ in orbit})
    want, flagged = sweep_theta_loop(spec, args, cli.RING_SITES)
    assert len(out.rows) == len(want) == steps
    for got, ref in zip(out.rows, want):
        # the verdict is the ring's at every step; the residual is that of
        # the first ring of the step's theta class, equal up to rounding
        assert got[:2] == ref[:2] and got[3] == ref[3] and got[6] == ref[6]
        assert got[2] == pytest.approx(ref[2], rel=0, abs=1e-13)
        if got[0] not in flagged:
            assert got[4] == pytest.approx(ref[4], rel=0, abs=1e-10)
            assert got[5] == pytest.approx(ref[5], rel=0, abs=1e-10)
    for s, (rep, sign) in enumerate(orbit):
        assert out.rows[s][5] == out.rows[rep][5]
        assert out.rows[s][4] == sign * out.rows[rep][4]
    # kappa is similarity-invariant: the same steps are flagged
    listed = out.warnings[0].split("steps ")[1].split(" are ")[0] if out.warnings else ""
    assert listed == ", ".join(map(str, flagged))


@pytest.mark.parametrize("steps, classes", [(6, 1), (8, 3), (10, 3), (24, 3), (30, 3)])
def test_sweep_tests_one_ring_per_theta_class(monkeypatch, steps, classes):
    # the rings at theta + k pi / 3 and -theta are exactly similar to the
    # ring at theta; checked against a ring verdict at every step
    rng = np.random.default_rng(steps)
    points = [{"t": rng.uniform(0.5, 1.5), "gamma": rng.uniform(-2.0, 2.0),
               "delta": rng.uniform(-1.0, 1.0), "V": rng.uniform(-3.0, 3.0)} for _ in range(10)]
    points += [{"gamma": 0.0, "delta": 0.5, "V": 2.0}, {"gamma": 1.5, "delta": 0.0, "V": 2.0},
               {"t": 0.0, "gamma": 1.0, "delta": 1.6, "V": 1.0}]
    verdicts = []
    theorem_verdict = cli.theorem_verdict
    monkeypatch.setattr(cli, "theorem_verdict",
                        lambda *a, **k: verdicts.append(1) or theorem_verdict(*a, **k))
    args = cli.build_parser().parse_args(["sweep-theta", "--steps", str(steps)])
    for point in points:
        spec = ModelSpec.from_dict({**point, "L": 6})
        verdicts.clear()
        out = cli.cmd_sweep_theta(spec, args)
        assert len(verdicts) == classes
        want, _ = sweep_theta_loop(spec, args, cli.RING_SITES)
        for got, ref in zip(out.rows, want, strict=True):
            assert got[3] == ref[3]
            assert got[2] == pytest.approx(ref[2], rel=0, abs=1e-13)


def test_solver_failure_is_a_numerical_error(config_path, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    rc = main(["boundary", "--config", config_path(), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "numerical error: Eigenvalues did not converge\n"


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**REFERENCE_CONFIG, "L": 1}))
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_malformed_config_exit_code(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_list_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([REFERENCE_CONFIG]))
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({**REFERENCE_CONFIG, "gama": 1.5}))
    rc = main(["symmetry", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "gama" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verdict.json").exists()


def test_non_integer_length_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "frac.json"
    cfg.write_text(json.dumps({**REFERENCE_CONFIG, "L": 12.7}))
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "12.7" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("t", True), ("t", "2"), ("gamma", None), ("delta", [0.5]), ("V", {"x": 1}),
    ("theta", False), ("L", "10"), ("L", True), ("boundary", 1), ("boundary", None),
    pytest.param("t", 10 ** 400, id="t-integer-past-float-range"),
])
def test_config_values_must_be_json_numbers(tmp_path, capsys, key, value):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({**REFERENCE_CONFIG, key: value}))
    rc = main(["symmetry", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "o" / "verdict.json").exists()


BROKEN_CHAIN = {"t": 1.0, "gamma": 1.5, "delta": 0.5, "V": 2.0, "theta": 0.3, "L": 12}


def run_scaled(tmp_path, name, command, *flags, factor=1.0, **model):
    """Run a command on BROKEN_CHAIN, updated by `model`, with every energy
    times `factor`; return its output directory."""
    cfg = {**BROKEN_CHAIN, **model}
    cfg.update({k: cfg[k] * factor for k in ("t", "gamma", "delta", "V")})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 0
    return out


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_verdicts_do_not_depend_on_the_energy_scale(tmp_path, scale):
    # the sums of squares behind the norms leave the float range here
    def run(name, command, *flags, factor=1.0):
        return run_scaled(tmp_path, name, command, *flags, factor=factor)
    unit = json.loads((run("unit", "symmetry") / "verdict.json").read_text())
    scaled = json.loads((run("scaled", "symmetry", factor=scale) / "verdict.json").read_text())
    assert unit["kind"] == scaled["kind"] == "nhse_expected"
    assert unit["candidate"] == scaled["candidate"]
    assert scaled["residual"] == pytest.approx(unit["residual"], rel=1e-12)
    _, unit = read_csv(run("sweep_unit", "sweep-theta", "--steps", "6") / "sweep.csv")
    _, scaled = read_csv(run("sweep_scaled", "sweep-theta", "--steps", "6", factor=scale)
                         / "sweep.csv")
    assert [r[3] for r in scaled] == [r[3] for r in unit]
    assert [float(r[2]) for r in scaled] == pytest.approx([float(r[2]) for r in unit],
                                                          rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_spectrum_classes_do_not_depend_on_the_energy_scale(tmp_path, scale):
    # an absolute cluster tolerance joined every eigenvalue at 1e-170 into
    # one cluster, and the position rotation mixed states of both ends
    unit, scaled = (read_csv(run_scaled(tmp_path, name, "spectrum", factor=f, L=24)
                             / "spectrum.csv")[1] for name, f in (("unit", 1.0), ("x", scale)))
    assert [r[3] for r in scaled] == [r[3] for r in unit]
    assert [float(r[4]) for r in scaled] == pytest.approx([float(r[4]) for r in unit], abs=1e-9)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_gbz_moduli_do_not_depend_on_the_energy_scale(tmp_path, scale):
    # the quartic's squared couplings overflowed (a traceback) at 1e160 and
    # underflowed (a false degenerate-line refusal) at 1e-170
    unit, scaled = (np.array([r[2:6] for r in read_csv(
        run_scaled(tmp_path, name, "gbz", "--num-energies", "20", factor=f, V=0.0)
        / "gbz.csv")[1]], dtype=float) for name, f in (("unit", 1.0), ("x", scale)))
    assert scaled == pytest.approx(unit, rel=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_boundary_and_zak_do_not_depend_on_the_energy_scale(tmp_path, scale):
    # an absolute denominator floor refused the chain at 1e-170, and the
    # products of four end coefficients overflowed to NaN at 1e160
    unit, scaled = (np.array(read_csv(run_scaled(
        tmp_path, name, "boundary", "--L-check", "10", factor=f, V=0.0)
        / "boundary.csv")[1], dtype=float) for name, f in (("unit", 1.0), ("x", scale)))
    assert scaled[:, 3].max() <= 1e-10
    assert scaled[:, 4:] == pytest.approx(unit[:, 4:], rel=1e-9)
    zak = run_scaled(tmp_path, "zak", "zak", factor=scale, V=0.0) / "zak.json"
    assert json.loads(zak.read_text())["phase"] == math.pi


def test_boundary_refuses_before_the_eigensolve(config_path, tmp_path, capsys, monkeypatch):
    # the 800 x 800 eigensolve of --L-check 400 used to run first
    built = []
    monkeypatch.setattr(cli, "build_bdg", lambda *a, **k: built.append(1))
    rc = main(["boundary", "--config", config_path(), "--out", str(tmp_path / "o"),
               "--L-check", "400", *DEGENERATE_LINE])
    with pytest.raises(DegenerateLeadingCoeff) as refused:
        solve_beta(ModelSpec(t=1.25, gamma=1.5, delta=1.0, num_sites=10), 0.0)
    assert rc == 2
    assert capsys.readouterr().err == f"numerical error: {refused.value}\n"
    assert not built


def test_missing_config_io_exit_code(tmp_path):
    rc = main(["spectrum", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 3


def test_flag_overrides_config(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", config_path(), "--out", out, "--L", "10"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert len(rows) == 20


@pytest.mark.parametrize("config, flags", [
    ({"boundary": "pbc", "V": 2.0, "L": 10}, ["--L", "12"]),  # the ring needs 3 | L
    ({"t": "2"}, ["--t", "1"]),
])
def test_flag_fixes_an_invalid_config(config_path, tmp_path, config, flags):
    # the config and the flags are merged before the spec is checked
    assert main(["symmetry", "--config", config_path(**config), "--out", str(tmp_path / "o"),
                 *flags]) == 0
    assert main(["symmetry", "--config", config_path(**config),
                 "--out", str(tmp_path / "o")]) == 1


DEGENERATE_LINE = ["--t", "1.25", "--gamma", "1.5", "--delta", "1"]


@pytest.mark.parametrize("argv, code", [
    (["profiles", "--selection", "bulk:x"], 1),
    (["profiles", "--selection", "bulk:"], 1),
    # an index list must name at least one state, each once
    (["profiles", "--selection", ","], 1),
    (["profiles", "--selection", "1,1"], 1),
    (["profiles", "--selection", "bulk:0"], 1),
    # no state's outer weight exceeds 1, so edge:all names no state
    (["profiles", "--w-edge", "1", "--selection", "edge:all"], 1),
    # an explicit edge window is not shrunk to fit the chain
    (["spectrum", "--L", "12", "--edge-sites", "7"], 1),
    (["sweep-theta", "--steps", "6.5"], 1),
    (["gbz", "--num-energies", "-3"], 1),
    (["spectrum", "--w-edge", "nan"], 1),
    (["symmetry", "--tol", "nan"], 1),
    # an infinite tol would pass any chain through the Hermitian gate
    (["symmetry", "--tol", "inf"], 1),
    (["sweep-theta", "--steps", "6", "--tol", "inf"], 1),
    (["spectrum", "--L", "abc"], 1),
    (["spectrum", "--no-such-flag"], 1),
    # only sweep-theta runs the skin test, so only it takes its threshold
    (["spectrum", "--tau-skin", "0.3"], 1),
    (["profiles", "--tau-skin", "0.3"], 1),
    (["sweep-theta", "--steps", "6", "--tau-skin", "1.5"], 1),
    # t = 0 closes the band gap on the unit circle
    (["zak", "--t", "0", "--gamma", "0.1", "--delta", "0.5"], 2),
    # delta^2 - t^2 + gamma^2/4 = 0: the quartic has two roots, not four
    (["gbz", *DEGENERATE_LINE], 2),
    (["zak", *DEGENERATE_LINE], 2),
    (["boundary", "--L-check", "10", *DEGENERATE_LINE], 2),
    # the decay-factor analysis needs the translation-invariant chain
    (["gbz", "--V", "2"], 1),
    (["zak", "--V", "2"], 1),
    (["boundary", "--V", "2"], 1),
    # every size cap, one past it
    (["spectrum", "--L", str(MAX_SITES + 1)], 1),
    (["boundary", "--L-check", str(MAX_SITES + 1)], 1),
    (["zak", "--grid", str(MAX_GRID + 1)], 1),
    (["sweep-theta", "--steps", str(MAX_STEPS + 1)], 1),
    (["gbz", "--num-energies", str(MAX_ENERGIES + 1)], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_bad_input_is_a_typed_error(config_path, tmp_path, capsys, argv, code):
    rc = main([*argv, "--config", config_path(), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    label = "config error: " if code == 1 else "numerical error: "
    assert err.splitlines()[-1].startswith(label)
    if argv[-len(DEGENERATE_LINE):] == DEGENERATE_LINE:
        # every command refuses the line with solve_beta's one message
        with pytest.raises(DegenerateLeadingCoeff) as refused:
            solve_beta(ModelSpec(t=1.25, gamma=1.5, delta=1.0, num_sites=10), 0.0)
        assert err.splitlines()[-1] == label + str(refused.value)


def test_boundary_flag_is_checked_like_a_config_value(config_path, tmp_path, capsys):
    # ModelSpec is the one gate for the boundary, from a flag or a config file
    chain = ["--L", "12", "--gamma", "1.5", "--delta", "0.5"]
    for name, source in (("flag", ["--boundary", "PBC"]),
                         ("config", ["--config", config_path(boundary="PBC")])):
        assert main(["symmetry", *source, *chain, "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "flag" / "verdict.json").read_text()
            == (tmp_path / "config" / "verdict.json").read_text())
    capsys.readouterr()
    assert main(["symmetry", "--boundary", "ring", *chain, "--out", str(tmp_path / "o")]) == 1
    assert (capsys.readouterr().err.splitlines()[-1]
            == "config error: boundary must be 'obc' or 'pbc', got 'ring'")


def test_length_cap_covers_config_files(config_path, tmp_path, capsys):
    rc = main(["symmetry", "--config", config_path(L=MAX_SITES + 1),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"<= {MAX_SITES}" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000 + b"]" * 100000],
                         ids=["not utf-8", "nested 100000 deep"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"config error: malformed config {path}: ")


@settings(max_examples=200)
@given(content=st.binary(max_size=64))
def test_any_config_bytes_run_or_are_a_config_error(tmp_path_factory, content):
    # a config file of any bytes either runs or is refused as a config error
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "model.json"
    path.write_bytes(content)
    assert main(["symmetry", "--config", str(path), "--out", str(tmp / "o")]) in (0, 1)
