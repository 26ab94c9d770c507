"""Seeded workloads of nhskin command-line invocations, with output checks.

Each workload is a list of invocations that one client runs in order.
The seed draws the model parameters from a fixed box; the program only
ever sees the JSON config files written here.  Output checks compare
against physics tolerances, never against byte identity, so a change of
eigensolver that moves the last digits still passes.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Parameter box.  The open chain at V = 2 is symmetry-blocked only at
# theta = 2 pi / 3 and 5 pi / 3, so every theta drawn here is a broken point.
GAMMA = (1.2, 1.8)
DELTA = (0.3, 0.7)
THETA_BROKEN = (0.2, 1.8)
THETA_BLOCKED = 2.0 * math.pi / 3.0
V_SKIN = 2.0

BLOCKED = "nhse_blocked"
EXPECTED = "nhse_expected"

# "full" is what the benchmark measures; "tiny" keeps the same command
# shapes at sizes that finish in a second, for the smoke test.
SIZES = {
    "full": {
        "sweep_L": 96, "sweep_steps": 24, "chain_L": 192, "bulk_states": 8,
        "symmetry_L": (48, 96, 192, 384),
        "zak_grids": (4096, 16384), "gbz_energies": 200, "boundary_L": 100,
    },
    "tiny": {
        "sweep_L": 24, "sweep_steps": 12, "chain_L": 24, "bulk_states": 4,
        "symmetry_L": (12, 24),
        "zak_grids": (64,), "gbz_energies": 20, "boundary_L": 10,
    },
}

WORKLOADS = ("skin_sweep", "symmetry_sizes", "nonbloch_loop")

Check = Callable[[Path], "str | None"]


@dataclass
class Invocation:
    """One CLI call: its arguments after the program name, and its check."""

    label: str
    args: list[str]
    out: Path
    check: Check


def draw_params(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "gamma": rng.uniform(*GAMMA),
        "delta": rng.uniform(*DELTA),
        "theta": rng.uniform(*THETA_BROKEN),
    }


def build(workload: str, seed: int, workdir: Path, sizes: str = "full") -> list[Invocation]:
    """Write the configs for one workload under workdir and list its calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    params = draw_params(seed)
    make = {"skin_sweep": _skin_sweep, "symmetry_sizes": _symmetry_sizes,
            "nonbloch_loop": _nonbloch_loop}[workload]
    return make(params, SIZES[sizes], workdir)


def _config(workdir: Path, name: str, params: dict, **model) -> str:
    cfg = {"t": 1.0, "gamma": params["gamma"], "delta": params["delta"],
           "boundary": "obc", **model}
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _call(workdir: Path, label: str, command: str, config: str,
          flags: list[str], check: Check) -> Invocation:
    out = workdir / "out" / label
    return Invocation(label, [command, "--config", config, "--out", str(out), *flags],
                      out, check)


def _skin_sweep(p: dict, z: dict, workdir: Path) -> list[Invocation]:
    steps, L = z["sweep_steps"], z["chain_L"]
    sweep = _config(workdir, "sweep", p, V=V_SKIN, theta=p["theta"], L=z["sweep_L"])
    chain = _config(workdir, "broken_chain", p, V=V_SKIN, theta=p["theta"], L=L)
    return [
        _call(workdir, "sweep-theta", "sweep-theta", sweep,
              ["--svg", "--steps", str(steps)], _check_sweep(steps)),
        _call(workdir, "spectrum", "spectrum", chain, ["--svg"], _check_spectrum(L)),
        _call(workdir, "profiles", "profiles", chain,
              ["--selection", f"bulk:{z['bulk_states']}"],
              _check_profiles(L, z["bulk_states"])),
    ]


def _symmetry_sizes(p: dict, z: dict, workdir: Path) -> list[Invocation]:
    calls = []
    for L in z["symmetry_L"]:
        for point, theta, kind in (("blocked", THETA_BLOCKED, BLOCKED),
                                   ("broken", p["theta"], EXPECTED)):
            cfg = _config(workdir, f"{point}_L{L}", p, V=V_SKIN, theta=theta, L=L)
            calls.append(_call(workdir, f"symmetry-{point}-L{L}", "symmetry", cfg, [],
                               _check_verdict(kind)))
    return calls


def _nonbloch_loop(p: dict, z: dict, workdir: Path) -> list[Invocation]:
    cfg = _config(workdir, "clean_chain", p, V=0.0, theta=0.0, L=z["boundary_L"])
    calls = [
        _call(workdir, f"zak-{band}-{grid}", "zak", cfg,
              ["--band", band, "--grid", str(grid)], _check_zak())
        for grid in z["zak_grids"] for band in ("plus", "minus")
    ]
    calls.append(_call(workdir, "gbz", "gbz", cfg,
                       ["--num-energies", str(z["gbz_energies"]), "--svg"], _check_gbz()))
    calls.append(_call(workdir, "boundary", "boundary", cfg,
                       ["--L-check", str(z["boundary_L"]), "--svg"],
                       _check_boundary(z["boundary_L"])))
    return calls


# ------------------------------------------------------------------ checks

def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict, *keys: str) -> bool:
    return all(math.isfinite(float(row[k])) for k in keys)


def _svg_written(out: Path, name: str) -> str | None:
    path = out / name
    if not path.is_file() or b"<svg" not in path.read_bytes()[:512]:
        return f"{name} missing or not an SVG"
    return None


def _check_sweep(steps: int) -> Check:
    def check(out: Path) -> str | None:
        rows = _rows(out / "sweep.csv")
        if len(rows) != steps:
            return f"sweep.csv has {len(rows)} rows, want {steps}"
        for s, row in enumerate(rows):
            # the ring is blocked exactly at theta = k pi / 3
            want = BLOCKED if (6 * s) % steps == 0 else EXPECTED
            if row["verdict"] != want:
                return f"step {s}: verdict {row['verdict']}, want {want}"
            if (row["skin_detected"] == "true") != (want == EXPECTED):
                return f"step {s}: skin_detected {row['skin_detected']} with {want}"
            if not _finite(row, "theta", "residual", "skew", "accumulation"):
                return f"step {s}: non-finite value"
        return _svg_written(out, "sweep.svg")
    return check


def _check_spectrum(L: int) -> Check:
    def check(out: Path) -> str | None:
        rows = _rows(out / "spectrum.csv")
        if len(rows) != 2 * L:
            return f"spectrum.csv has {len(rows)} rows, want {2 * L}"
        for row in rows:
            if row["class"] not in ("bulk", "edge"):
                return f"unknown class {row['class']!r}"
            if not _finite(row, "re_E", "im_E", "com", "edge_weight", "pr"):
                return f"state {row['index']}: non-finite value"
        return _svg_written(out, "spectrum.svg")
    return check


def _check_profiles(L: int, states: int) -> Check:
    def check(out: Path) -> str | None:
        density: dict[str, list[float]] = {}
        for row in _rows(out / "profiles.csv"):
            density.setdefault(row["state_index"], []).append(float(row["density"]))
        if len(density) != states:
            return f"profiles.csv covers {len(density)} states, want {states}"
        for state, rho in density.items():
            if len(rho) != L or not all(x >= 0.0 and math.isfinite(x) for x in rho):
                return f"state {state}: bad density column"
            if abs(sum(rho) - 1.0) > 1e-9:
                return f"state {state}: density sums to {sum(rho)}"
        return None
    return check


def _check_verdict(kind: str) -> Check:
    def check(out: Path) -> str | None:
        got = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["kind"]
        return None if got == kind else f"verdict {got}, want {kind}"
    return check


def _check_zak() -> Check:
    def check(out: Path) -> str | None:
        phase = json.loads((out / "zak.json").read_text(encoding="utf-8"))["phase"]
        return None if abs(abs(phase) - math.pi) <= 1e-6 else f"Zak phase {phase}, want pi"
    return check


def _check_gbz() -> Check:
    def check(out: Path) -> str | None:
        rows = _rows(out / "gbz.csv")
        if not rows:
            return "gbz.csv is empty"
        for row in rows:
            dev = max(abs(float(row["m2"]) - 1.0), abs(float(row["m3"]) - 1.0))
            if not dev <= 1e-6:
                return f"middle moduli {dev:.3g} off the unit circle at E = {row['re_E']}"
        return _svg_written(out, "gbz.svg")
    return check


def _check_boundary(L: int) -> Check:
    def check(out: Path) -> str | None:
        rows = _rows(out / "boundary.csv")
        if len(rows) != 2 * L:
            return f"boundary.csv has {len(rows)} rows, want {2 * L}"
        worst = max(float(row["norm_det"]) for row in rows)
        if not worst <= 1e-8:
            return f"norm_det {worst:.3g} exceeds 1e-8 at an open-chain eigenvalue"
        return _svg_written(out, "boundary.svg")
    return check
