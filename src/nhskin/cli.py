"""Command-line front end.

Subcommands: spectrum, profiles, symmetry, gbz, zak, sweep-theta,
boundary.  Each is a function (spec, args) -> Output: one primary CSV or
JSON file, plus a figure for all but symmetry and zak.  `main` does the
rest for every command: it reads the model from a JSON config file (keys
t, gamma, delta, V, theta, L, boundary; flags take precedence and are
merged in before the spec is built, which checks it), writes the primary
file into --out and, under --svg, <stem>.svg beside it, prints the
primary path and any warnings (spectrum, profiles and sweep-theta warn on
stderr about ill-conditioned eigenvalues), and maps errors to exit codes.
Output is deterministic: identical configuration gives byte-identical
files.  spectrum prints the states in (Re E, Im E) order; a row's index
is the state index that profiles selects and prints, and profiles
refuses a selection that names no state (edge:all included).  symmetry
tests the 8 open-chain candidates, and on a ring whose length is a
multiple of 6 then the 6 ring centers of `ring_candidates`.  sweep-theta
tests the symmetry on a RING_SITES-site ring and the skin effect on the
open chain of length L, one eigensolve per orbit of `model.theta_orbits`.
sweep-theta and boundary solve open chains only and refuse boundary pbc.
zak writes the closed-form phase of `nonbloch.zak_phase`, the same for
both bands; its --grid is range checked but sets nothing.  gbz, zak and
boundary refuse V != 0 and the line delta^2 - t^2 + gamma^2/4 = 0 with
the one message each of `nonbloch.unit_couplings` and `solve_beta`,
boundary before its eigensolve.  Sizes are capped before any work starts
(MAX_SITES for L and --L-check, MAX_GRID, MAX_STEPS, MAX_ENERGIES).

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
error (numpy's LinAlgError included), 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import svgplot
from .boundary import boundary_determinant, continuum_ratio
from .errors import (ConfigError, DegenerateAmbiguity, NhskinError, NumericalError,
                     SelectionOutOfRange)
from .model import MAX_SITES, ModelSpec, OBC, PBC, bonds, build_bdg, theta_orbits
from .nonbloch import band_energies, gbz_modulus_report, leading_coeff, unit_couplings, zak_phase
from .spectra import (DEFAULT_EDGE_WEIGHT, DEFAULT_TAU_SKIN, KAPPA_EPS_BOUND,
                      classify_states, eigendecompose, skin_metrics)
from .symmetry import (DEFAULT_TOL, commutator_residual, default_candidates,
                       ring_candidates, theorem_verdict)

FMT = "%.17g"

# Each cap is far above any size the commands are meant for, and far
# below what would run for minutes or exhaust memory.
MAX_GRID = 2 ** 20
MAX_STEPS = 3600
MAX_ENERGIES = 10 ** 5

# sweep-theta's symmetry ring: two 6-site cells, 6 being the least common
# multiple of the staggering period 2 and the potential period 3.  The
# ring is translation invariant with period 6, so its commutator residual
# does not depend on the number of cells.  The ring at theta + 2 pi / 3 is
# the ring at theta translated by one site, the ring at theta + pi is
# -G H(theta) G with G = diag((-1)^n), and the ring at -theta is a signed
# mirror image of it; each map sends `ring_candidates` onto itself, so
# the verdict is the same on the whole class {+-theta + k pi / 3}.
RING_SITES = 12

# Model flags shared by every command, with their value types.
MODEL_FLAGS = {key: type(value) for key, value in ModelSpec().to_dict().items()}


@dataclass
class Output:
    """A command's result: its primary file (CSV rows or a JSON payload),
    for commands that draw one a callable that builds the figure, a list
    of `svgplot` panels (title, xlabel, ylabel, series), and warnings for
    stderr."""

    name: str
    header: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    payload: dict | None = None
    figure: Callable[[], list] | None = None
    warnings: list[str] = field(default_factory=list)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return FMT % x  # also integers (exact below 1e17) and nan


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) if not isinstance(x, str) else x for x in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(args) -> ModelSpec:
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed config {args.config}: {exc}") from exc
    if isinstance(raw, dict):  # flags take precedence; from_dict refuses a non-object
        raw = {**raw, **{k: getattr(args, k) for k in MODEL_FLAGS if getattr(args, k) is not None}}
    return ModelSpec.from_dict(raw)


def _scatter(rows, x: int, *panels):
    """Figure callable: one panel per (title, xlabel, ylabel, y columns),
    each scattering those columns of `rows` against column x."""
    return lambda: [(title, xlabel, ylabel, [([r[x] for r in rows], [r[y] for r in rows],
                                              "scatter") for y in ys])
                    for title, xlabel, ylabel, ys in panels]


def _ill_conditioned(which: str, kappa: float) -> str:
    """Warning text for a chain whose largest kappa*eps passes KAPPA_EPS_BOUND,
    that kappa given to one digit: past the bound, the inverse that pairs
    the left vectors leaves kappa an order-of-magnitude estimate."""
    return (f"{which} ill-conditioned (kappa*eps > {KAPPA_EPS_BOUND:g}, max kappa "
            f"{kappa:.0e}); they hold only to about kappa*eps*|H|_F")


def _classified(spec: ModelSpec, args):
    """State table, its energy order (state order[i] is spectrum.csv's row
    i, the index selections use) and conditioning warnings; per-state
    output refuses a defective cluster, which has no well-defined states."""
    es = eigendecompose(build_bdg(spec), spec.num_sites)
    if es.defective:
        raise DegenerateAmbiguity(
            f"{len(es.defective)} eigenvalues in defective clusters, "
            f"first near {es.values[es.defective[0]]}")
    warnings = ([_ill_conditioned("the chain's eigenvalues are", es.condition.max())]
                if es.ill_conditioned else [])
    st = classify_states(es, args.edge_sites, args.w_edge)
    return st, np.lexsort((st.energy.imag, st.energy.real)), warnings


def cmd_spectrum(spec: ModelSpec, args) -> Output:
    st, order, warnings = _classified(spec, args)
    rows = list(zip(range(len(order)), st.energy.real[order], st.energy.imag[order],
                    np.where(st.is_edge[order], "edge", "bulk"), st.center_of_mass[order],
                    st.edge_weight[order], st.participation_ratio[order]))
    figure = _scatter(rows, 0, ("Re E per state", "state index", "Re E", [1]),
                      ("Im E per state", "state index", "Im E", [2]))
    return Output("spectrum.csv", ["index", "re_E", "im_E", "class", "com", "edge_weight",
                                   "pr"], rows, figure=figure, warnings=warnings)


def parse_selection(selection: str, edge: np.ndarray) -> list[int]:
    """Rows of spectrum.csv that a selection names; `edge` is the edge mask
    in that row order."""
    try:
        if selection.startswith("bulk:"):
            return _bulk_quantiles(edge, int(selection[len("bulk:"):]))
        idx = (np.flatnonzero(edge).tolist() if selection == "edge:all"
               else [int(s) for s in selection.split(",") if s.strip() != ""])
    except ValueError as exc:
        raise SelectionOutOfRange(f"bad selection {selection!r}") from exc
    if not idx:
        raise SelectionOutOfRange(f"selection {selection!r} names no state")
    for i in idx:
        if not (0 <= i < len(edge)):
            raise SelectionOutOfRange(f"state index {i} out of range")
    if len(set(idx)) < len(idx):
        raise SelectionOutOfRange(f"selection {selection!r} repeats a state index")
    return idx


def _bulk_quantiles(edge: np.ndarray, k: int) -> list[int]:
    """k bulk-classified indices at quantiles of the energy order, without
    repeats; `edge` is the edge mask in that order."""
    bulk = np.flatnonzero(~edge).tolist()
    if k < 1 or not bulk:
        raise SelectionOutOfRange(f"cannot take {k} bulk states")
    if k >= len(bulk):
        return bulk
    picks = [bulk[int(round(q * (len(bulk) - 1)))] for q in np.linspace(0.1, 0.9, k)]
    return list(dict.fromkeys(picks))


def cmd_profiles(spec: ModelSpec, args) -> Output:
    st, order, warnings = _classified(spec, args)
    sites = range(1, spec.num_sites + 1)
    chosen = parse_selection(args.selection, st.is_edge[order])
    rows = [(i, n, st.density[order[i], n - 1]) for i in chosen for n in sites]
    return Output("profiles.csv", ["state_index", "site", "density"], rows, warnings=warnings,
                  figure=lambda: [("state densities", "site", "density",
                                   [(sites, st.density[order[i]], "line") for i in chosen])])


def cmd_symmetry(spec: ModelSpec, args) -> Output:
    candidates = default_candidates()
    if spec.boundary == PBC and spec.num_sites % 6 == 0:
        candidates += ring_candidates()
    verdict = theorem_verdict(bonds(spec), candidates, args.tol)
    return Output("verdict.json", payload=verdict.to_dict())


def cmd_gbz(spec: ModelSpec, args) -> Output:
    # bulk band energies, deterministically sampled by Re-E quantiles.  On an
    # even grid E(k) = E(pi - k), and at gamma = 0 also E(k) = E(-k): only the
    # first grid point of each orbit, k in [0, pi/2] on a twice finer grid at
    # gamma = 0, is a candidate
    even = spec.gamma == 0.0
    n = max(args.num_energies + args.num_energies % 2, 8) * (2 if even else 1)
    j = np.arange(n)
    first = j <= (n // 4 if even else (n // 2 - j) % n)
    cand = band_energies(spec, n).reshape(n, 2)[first].ravel()
    cand = cand[np.lexsort((cand.imag, cand.real))]
    picks = np.unique(np.round(np.linspace(0, len(cand) - 1, args.num_energies)).astype(int))
    q = gbz_modulus_report(spec, cand[picks])
    rows = list(zip(q.energy.real, q.energy.imag, *q.sorted_moduli.T, q.continuum_case,
                    q.mid_modulus_gap))
    return Output("gbz.csv", ["re_E", "im_E", "m1", "m2", "m3", "m4", "case", "mid_gap"], rows,
                  figure=_scatter(rows, 0, ("decay-factor moduli", "Re E", "|beta|", [2, 3, 4, 5])))


def cmd_zak(spec: ModelSpec, args) -> Output:
    return Output("zak.json", payload={"band": args.band, "phase": zak_phase(spec)})


def cmd_sweep_theta(spec: ModelSpec, args) -> Output:
    if spec.boundary != OBC:
        raise ConfigError("sweep-theta solves open chains only, not boundary 'pbc'")
    candidates = ring_candidates()
    L = spec.num_sites
    # one eigensolve per orbit of the exact theta similarities; every other
    # member reuses its representative's skin report and conditioning
    solved, tested, rows, flagged, kappa = {}, {}, [], [], 0.0
    for s, (rep, sign) in enumerate(theta_orbits(L, args.steps)):
        theta = 2.0 * np.pi * s / args.steps
        if rep == s:
            es = eigendecompose(build_bdg(spec.replace(theta=theta)), L)
            solved[s] = (skin_metrics(es, args.tau_skin, args.edge_sites, args.w_edge),
                         es.condition.max() if es.ill_conditioned else None)
        report, worst = solved[rep]
        if worst is not None:
            flagged.append(str(s))
            kappa = max(kappa, worst)
        # the symmetry test runs on the periodic ring, where shifted
        # reflection centers are legitimate lattice maps; one ring per class
        # {+-theta + k pi / 3} (see RING_SITES)
        key = min(6 * s % args.steps, -6 * s % args.steps)
        if key not in tested:
            H_ring = bonds(spec.replace(theta=theta, boundary=PBC, L=RING_SITES))
            verdict = theorem_verdict(H_ring, candidates, args.tol)
            residual = verdict.commutator_residual
            if residual is None:
                residual = min(commutator_residual(H_ring, c) for c in candidates)
            tested[key] = (residual, verdict.kind)
        rows.append((s, theta, *tested[key], sign * report.skew,
                     report.accumulation, report.skin_detected))
    warnings = [_ill_conditioned(f"eigenvalues at steps {', '.join(flagged)} are",
                                 kappa)] if flagged else []
    return Output("sweep.csv", ["step", "theta", "residual", "verdict", "skew",
                                "accumulation", "skin_detected"], rows, warnings=warnings,
                  figure=lambda: _scatter([(r[1], max(r[2], 1e-18), r[5]) for r in rows], 0,
                                          ("commutator residual", "theta", "residual", [1]),
                                          ("bulk accumulation", "theta", "accumulation", [2]))())


def cmd_boundary(spec: ModelSpec, args) -> Output:
    if spec.boundary != OBC:
        raise ConfigError("boundary solves open chains only, not boundary 'pbc'")
    leading_coeff(*unit_couplings(spec)[1:])  # both refusals before the O(L^3) eigvals
    L = args.L_check
    chain = spec.replace(L=L)
    evals = np.linalg.eigvals(build_bdg(chain))
    E = evals[np.lexsort((evals.imag, evals.real))]
    norm_det = np.abs(boundary_determinant(chain, E))
    lhs, rhs = continuum_ratio(chain, E)
    rows = list(zip(E.real, E.imag, [L] * len(E), norm_det, np.abs(lhs), np.abs(rhs)))
    return Output("boundary.csv", ["re_E", "im_E", "L", "norm_det", "lhs_abs", "rhs_abs"], rows,
                  figure=_scatter(rows, 0, ("determinant at eigenvalues", "Re E",
                                            "normalized |det|", [3])))


def _int_in(lo: int, hi: int):
    """argparse type for an integer in [lo, hi]."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"expected an integer in [{lo}, {hi}], got {text!r}")
        return n
    return parse


SVG = (("--svg", {"action": "store_true", "help": "also write <stem>.svg"}),)
TOL = (("--tol", {"type": float, "default": DEFAULT_TOL}),)
THRESHOLDS = (
    ("--edge-sites", {"type": int, "default": None,
                      "help": "edge window (default max(1, min(10, L//4)))"}),
    ("--w-edge", {"type": float, "default": DEFAULT_EDGE_WEIGHT}),
)

# (name, function, help, flags beyond --config, --out and the model flags)
COMMANDS = (
    ("spectrum", cmd_spectrum, "full spectrum with state classification",
     SVG + THRESHOLDS),
    ("profiles", cmd_profiles, "site densities of selected states",
     SVG + THRESHOLDS + (("--selection", {
         "default": "bulk:4", "help": "bulk:k | edge:all | comma-separated indices"}),)),
    ("symmetry", cmd_symmetry, "combined-reflection verdict", TOL),
    ("gbz", cmd_gbz, "decay-factor moduli on the bulk bands",
     SVG + (("--num-energies", {"type": _int_in(1, MAX_ENERGIES), "default": 50}),)),
    ("zak", cmd_zak, "band geometric phase around the unit circle",
     (("--band", {"choices": ["plus", "minus"], "default": "plus"}),
      ("--grid", {"type": _int_in(64, MAX_GRID), "default": 4096,
                  "help": "has no effect: the phase has a closed form"}))),
    ("sweep-theta", cmd_sweep_theta, "potential-phase sweep: symmetry vs skin",
     SVG + THRESHOLDS + TOL + (("--tau-skin", {"type": float, "default": DEFAULT_TAU_SKIN}),
                               ("--steps", {"type": _int_in(6, MAX_STEPS), "default": 24}))),
    ("boundary", cmd_boundary, "finite-chain determinant oracle",
     SVG + (("--L-check", {"type": _int_in(2, MAX_SITES), "default": 6}),)),
)


# First match wins: the error label printed to stderr and the exit code.
# numpy's LinAlgError is a solver that failed outside nhskin's own checks.
EXIT_CODES = ((ConfigError, "config error", 1), (NumericalError, "numerical error", 2),
              (np.linalg.LinAlgError, "numerical error", 2), (NhskinError, "error", 2),
              (OSError, "io error", 3))


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); argparse would exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="nhskin",
                 description="skin-effect symmetry diagnostics for 1D chains")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON model config")
        p.add_argument("--out", default=".", help="output directory")
        for key, kind in MODEL_FLAGS.items():
            p.add_argument(f"--{key}", type=kind,
                           help="obc or pbc, any case" if key == "boundary" else None)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.func(load_model(args), args)
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, result.name)
        if result.payload is None:
            write_csv(path, result.header, result.rows)
        else:
            write_json(path, result.payload)
        if getattr(args, "svg", False):
            svgplot.write_svg(os.path.splitext(path)[0] + ".svg", result.figure())
        print(path)
        for text in result.warnings:
            print(f"warning: {text}", file=sys.stderr)
        return 0
    except tuple(kind for kind, _, _ in EXIT_CODES) as exc:
        label, code = next((label, code) for kind, label, code in EXIT_CODES
                           if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
