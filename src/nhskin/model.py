"""Lattice model definition and its bond list.

The model is a 1D chain with asymmetric nearest-neighbour hopping
t +- gamma/2, real p-wave pairing delta, and an optional period-3 onsite
potential V_n = V sin(2 pi n / 3 + theta).  Matrices are built in the
doubled (Nambu) representation

    [[ h,      dm     ],
     [ -dm,   -h^T    ]]

acting on the component order (a_1 ... a_L, b_1 ... b_L), with

    h[n, n+1]  = -(t + gamma/2)      dm[n, n+1] = -delta
    h[n+1, n]  = -(t - gamma/2)      dm[n+1, n] = +delta

and the onsite potential entering the particle block as +V_n and the
hole block as -V_n.  Under periodic boundaries the same amplitudes wrap
the (L, 1) bond.  The model is stored as its ~10L nonzero couplings
(`bonds`); `build_bdg` densifies them for the eigensolvers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NonFinite, NonPositiveSize, PbcPeriodMismatch

OBC = "obc"
PBC = "pbc"

# Largest chain: a dense 2L x 2L eigensolve at this size takes minutes.
MAX_SITES = 2048


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of the chain.

    t, gamma, delta, big_v are energies; theta is a phase in radians;
    num_sites is the number of lattice sites; boundary is "obc" or "pbc".
    """

    t: float = 1.0
    gamma: float = 0.0
    delta: float = 0.0
    big_v: float = 0.0
    theta: float = 0.0
    num_sites: int = 2
    boundary: str = OBC

    def replace(self, **kwargs) -> "ModelSpec":
        alias = {"V": "big_v", "L": "num_sites"}
        kwargs = {alias.get(k, k): v for k, v in kwargs.items()}
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "t": self.t, "gamma": self.gamma, "delta": self.delta,
            "V": self.big_v, "theta": self.theta,
            "L": self.num_sites, "boundary": self.boundary,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        """Inverse of `to_dict`; rejects non-objects, unknown keys and non-integer L."""
        if not isinstance(d, dict):
            raise ConfigError(f"model config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - set(ModelSpec().to_dict()))
        if unknown:
            raise ConfigError(f"unknown model keys: {', '.join(unknown)}")
        L = d.get("L", 2)
        if isinstance(L, bool) or (isinstance(L, float) and not L.is_integer()):
            raise ConfigError(f"L must be an integer, got {L!r}")
        return ModelSpec(
            t=float(d.get("t", 1.0)),
            gamma=float(d.get("gamma", 0.0)),
            delta=float(d.get("delta", 0.0)),
            big_v=float(d.get("V", 0.0)),
            theta=float(d.get("theta", 0.0)),
            num_sites=int(L),
            boundary=str(d.get("boundary", OBC)).lower(),
        )


def validate_spec(spec: ModelSpec) -> ModelSpec:
    """Check the model invariants and return the spec unchanged.

    Raises NonFinite for NaN/Inf parameters, NonPositiveSize for chains
    shorter than two sites, ConfigError for chains longer than MAX_SITES,
    and PbcPeriodMismatch when a periodic ring with V != 0 has a length
    that is not a multiple of 3 (the potential period).
    """
    for name in ("t", "gamma", "delta", "big_v", "theta"):
        x = getattr(spec, name)
        if not math.isfinite(x):
            raise NonFinite(f"parameter {name} is not finite: {x!r}")
    if spec.num_sites < 2:
        raise NonPositiveSize(f"num_sites must be >= 2, got {spec.num_sites}")
    if spec.num_sites > MAX_SITES:
        raise ConfigError(f"num_sites must be <= {MAX_SITES}, got {spec.num_sites}")
    if spec.boundary not in (OBC, PBC):
        raise ConfigError(f"boundary must be 'obc' or 'pbc', got {spec.boundary!r}")
    if spec.boundary == PBC and spec.big_v != 0.0 and spec.num_sites % 3 != 0:
        raise PbcPeriodMismatch(
            f"PBC with V != 0 requires num_sites divisible by 3, got {spec.num_sites}"
        )
    return spec


def onsite_potential(spec: ModelSpec) -> np.ndarray:
    """V_n = V sin(2 pi n / 3 + theta) on sites n = 1..L."""
    n = np.arange(1, spec.num_sites + 1)
    return spec.big_v * np.sin(2.0 * np.pi * n / 3.0 + spec.theta)


class Bonds(NamedTuple):
    """H[rows[k], cols[k]] = vals[k] (float64): one entry per position,
    sorted row-major, exact zeros dropped; dim = 2L is the matrix size."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int


def bonds(spec: ModelSpec) -> Bonds:
    """Nonzero entries of [[h, dm], [-dm, -h^T]], summed per position (the two-site
    ring's wrap bond lands on the inner one); no normal-ordering constant."""
    validate_spec(spec)
    L, N = spec.num_sites, 2 * spec.num_sites
    n = np.arange(L if spec.boundary == PBC else L - 1)  # bonds (n, n+1), PBC wrap included
    m, site, k = (n + 1) % L, np.arange(L), len(n)
    r, c = np.concatenate([n, m, site]), np.concatenate([m, n, site])
    hv = np.concatenate([np.full(k, -(spec.t + spec.gamma / 2.0)),
                         np.full(k, -(spec.t - spec.gamma / 2.0)), onsite_potential(spec)])
    dv = np.concatenate([np.full(k, -spec.delta), np.full(k, spec.delta), np.zeros(L)])
    # h, dm, -dm and -h^T sit at (r, c), (r, c + L), (r + L, c) and (c + L, r + L)
    keys, where = np.unique(np.concatenate([r * N + c, r * N + c + L, (r + L) * N + c,
                                            (c + L) * N + r + L]), return_inverse=True)
    vals = np.bincount(where, weights=np.concatenate([hv, dv, -dv, -hv]))
    return Bonds(*np.divmod(keys[vals != 0.0], N), vals[vals != 0.0], N)


def build_bdg(spec: ModelSpec) -> np.ndarray:
    """The dense real (float64) 2L x 2L form of `bonds`, for the eigensolvers."""
    b = bonds(spec)
    H = np.zeros((b.dim, b.dim))
    H[b.rows, b.cols] = b.vals
    return H
