import json
import math
import os

import numpy as np
import pytest

from nhskin import ModelSpec, cli, solve_beta
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


def test_spectrum_command(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", config_path(), "--out", out, "--svg"])
    assert rc == 0
    header, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert header == ["index", "re_E", "im_E", "class", "com", "edge_weight", "pr"]
    assert len(rows) == 80
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


def test_spectrum_hermitian_chain_real(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["spectrum", "--config", config_path(gamma=0.0), "--out", out])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "spectrum.csv"))
    assert max(abs(float(r[2])) for r in rows) <= 1e-10


def test_profiles_bulk_selection(config_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["profiles", "--config", config_path(), "--out", out,
               "--selection", "bulk:4"])
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
        assert pr >= 0.1 * 40  # delocalized


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
    # at every theta = k pi/3 one ring center commutes; symmetry on a ring
    # whose length is a multiple of 6 agrees with sweep-theta's ring
    cfg = config_path(gamma=gamma, delta=delta, V=2.0, L=12)
    assert main(["sweep-theta", "--config", cfg, "--steps", "6",
                 "--out", str(tmp_path / "sweep")]) == 0
    _, rows = read_csv(str(tmp_path / "sweep" / "sweep.csv"))
    for L in (12, 48):
        for step, theta, _, kind, *_ in rows:
            out = tmp_path / f"ring{L}-{step}"
            assert main(["symmetry", "--config", cfg, "--boundary", "pbc", "--L", str(L),
                         "--theta", theta, "--out", str(out)]) == 0
            assert json.loads((out / "verdict.json").read_text())["kind"] == kind


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
    assert payload["band"] == "plus"
    assert abs(abs(payload["phase"]) - math.pi) <= 1e-2
    assert payload["grid"] == 256


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
    # ring candidate's residual, which vanishes only at theta = k pi/3
    out = str(tmp_path / "out")
    rc = main(["sweep-theta", "--config", config_path(gamma=0.0, V=2.0, L=48),
               "--out", out, "--steps", "12"])
    assert rc == 0
    _, rows = read_csv(os.path.join(out, "sweep.csv"))
    assert len(rows) == 12
    for r in rows:
        assert r[3] == "hermitian_no_skin" and r[6] == "false"
        if int(r[0]) % 2 == 0:
            assert float(r[2]) <= 1e-10
        else:
            assert float(r[2]) > 1e-3


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
    want, flagged = sweep_theta_loop(spec, args, cli.RING_SITES, cli.resolve_ell(args, L))
    assert len(out.rows) == len(want) == steps
    for got, ref in zip(out.rows, want):
        # theta, residual and verdict come from the ring at every step
        assert got[:4] == ref[:4] and got[6] == ref[6]
        if got[0] not in flagged:
            assert got[4] == pytest.approx(ref[4], rel=0, abs=1e-10)
            assert got[5] == pytest.approx(ref[5], rel=0, abs=1e-10)
    for s, (rep, sign) in enumerate(orbit):
        assert out.rows[s][5] == out.rows[rep][5]
        assert out.rows[s][4] == sign * out.rows[rep][4]
    # kappa is similarity-invariant: the same steps are flagged
    listed = out.warnings[0].split("steps ")[1].split(" are ")[0] if out.warnings else ""
    assert listed == ", ".join(map(str, flagged))


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


DEGENERATE_LINE = ["--t", "1.25", "--gamma", "1.5", "--delta", "1"]


@pytest.mark.parametrize("argv, code", [
    (["profiles", "--selection", "bulk:x"], 1),
    (["profiles", "--selection", "bulk:"], 1),
    # an index list must name at least one state, each once
    (["profiles", "--selection", ","], 1),
    (["profiles", "--selection", "1,1"], 1),
    (["gbz", "--num-energies", "-3"], 1),
    (["spectrum", "--w-edge", "nan"], 1),
    (["symmetry", "--tol", "nan"], 1),
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


def test_length_cap_covers_config_files(config_path, tmp_path, capsys):
    rc = main(["symmetry", "--config", config_path(L=MAX_SITES + 1),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"<= {MAX_SITES}" in capsys.readouterr().err
