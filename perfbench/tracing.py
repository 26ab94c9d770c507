"""In-process span recording around the public functions of each nhskin layer.

Nothing in the package is edited.  `Tracer.installed()` replaces every
module attribute through which the CLI or a layer reaches a traced
function (for example `nhskin.cli.eigendecompose`,
`nhskin.symmetry.commutator_residual`, `nhskin.boundary.solve_beta`)
with a wrapper that records a span, and restores the originals on exit.
A function that no longer exists under its name is reported as missing
and its layer simply shows zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

# span name -> the (module, function) pairs it times.  The CLI's own
# span is "cli"; "cli.io" is its file output.
TRACED = {
    "model.build_bdg": [("nhskin.model", "build_bdg")],
    "spectra.eigendecompose": [("nhskin.spectra", "eigendecompose")],
    "spectra.classify_states": [("nhskin.spectra", "classify_states")],
    "spectra.skin_metrics": [("nhskin.spectra", "skin_metrics")],
    "spectra.density_profile": [("nhskin.spectra", "density_profile")],
    "symmetry.candidates": [("nhskin.symmetry", "default_candidates"),
                            ("nhskin.symmetry", "ring_candidates")],
    "symmetry.theorem_verdict": [("nhskin.symmetry", "theorem_verdict")],
    "symmetry.commutator_residual": [("nhskin.symmetry", "commutator_residual")],
    "nonbloch.zak_phase": [("nhskin.nonbloch", "zak_phase")],
    "nonbloch.solve_beta": [("nhskin.nonbloch", "solve_beta")],
    "nonbloch.band_energies": [("nhskin.nonbloch", "band_energies")],
    "nonbloch.gbz_modulus_report": [("nhskin.nonbloch", "gbz_modulus_report")],
    "boundary.boundary_determinant": [("nhskin.boundary", "boundary_determinant")],
    "boundary.continuum_ratio": [("nhskin.boundary", "continuum_ratio")],
    "cli.io": [("nhskin.cli", "write_csv"), ("nhskin.cli", "write_json"),
               ("nhskin.svgplot", "write_svg")],
}

# Modules whose globals are searched for references to traced functions.
CALLERS = ("nhskin.cli", "nhskin.model", "nhskin.spectra", "nhskin.symmetry",
           "nhskin.nonbloch", "nhskin.boundary", "nhskin.svgplot")

ROOT = "cli"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    invocation: int
    end: float = 0.0
    raised: bool = False


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _invocation: int = -1

    def span(self, name: str):
        """Context manager recording one span under the innermost open one."""
        return _SpanContext(self, name)

    def invocation(self):
        """The root span of one CLI call; its children share its id."""
        self._invocation += 1
        return self.span(ROOT)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to a traced function; undo on exit."""
        patched = []
        self.missing = []
        try:
            for name, targets in TRACED.items():
                for module, attr in targets:
                    fn = _lookup(module, attr)
                    if fn is None:
                        self.missing.append(f"{module}.{attr}")
                        continue
                    wrapper = self.wrap(name, fn)
                    for caller in _modules(CALLERS):
                        for key, value in list(vars(caller).items()):
                            if value is fn:
                                patched.append((caller, key, fn))
                                setattr(caller, key, wrapper)
            yield self
        finally:
            for caller, key, fn in reversed(patched):
                setattr(caller, key, fn)


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t._stack.append(self.index)
        t.spans.append(Span(self.name, time.perf_counter(), parent, t._invocation))

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        span = t.spans[self.index]
        span.end = time.perf_counter()
        span.raised = exc_type is not None
        t._stack.pop()
        return False


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def _modules(names):
    for name in names:
        try:
            yield importlib.import_module(name)
        except ImportError:
            continue


def _has_ancestor(spans: list[Span], span: Span, prefix: str) -> bool:
    p = span.parent
    while p is not None:
        if spans[p].name.startswith(prefix):
            return True
        p = spans[p].parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Calls, self time and waste ratios per layer from one pass's spans.

    A span's self time is its duration minus that of its direct children;
    spans nest strictly because the CLI runs on one thread.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    calls = {name: 0 for name in (*TRACED, ROOT)}
    self_s = {name: 0.0 for name in calls}
    raised = {name: 0 for name in calls}
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - child_time[i]
        raised[s.name] += s.raised
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.self_s"] = self_s[name]
    boundary_solves = sum(1 for s in spans if s.name == "nonbloch.solve_beta"
                          and _has_ancestor(spans, s, "boundary."))
    out.update({
        "symmetry.residuals_per_verdict": _ratio(
            calls["symmetry.commutator_residual"], calls["symmetry.theorem_verdict"]),
        "boundary.continuum_ratio.fail_frac": _ratio(
            raised["boundary.continuum_ratio"], calls["boundary.continuum_ratio"]),
        "boundary.solve_beta_per_energy": _ratio(
            boundary_solves, calls["boundary.boundary_determinant"]),
        "cli.invocations": float(calls[ROOT]),
        "cli.self_s": self_s[ROOT],
        "cli.io_s": self_s["cli.io"],
    })
    return out
