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

A `ModelSpec` checks its values when it is built (also by `replace`
and `from_dict`) and raises a ConfigError subclass on a bad one, so a
spec that exists is valid and no function that takes one re-checks it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NonFinite, NonPositiveSize, PbcPeriodMismatch

OBC = "obc"
PBC = "pbc"

# Largest chain: a dense 2L x 2L eigensolve at this size takes minutes.
MAX_SITES = 2048
# Largest magnitude of t, gamma, delta and V: the entries of H (sums of
# two couplings) and the band energies then stay in double range.
MAX_ENERGY = 1e300


# Config key of each field, in field order; V and L are the names the
# config files and command-line flags use.
FIELDS = {"t": "t", "gamma": "gamma", "delta": "delta", "V": "big_v", "theta": "theta",
          "L": "num_sites", "boundary": "boundary"}


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of the chain, checked once when it is built.

    t, gamma, delta, big_v are energies (|x| <= MAX_ENERGY); theta is a
    phase in radians; num_sites is the number of lattice sites, in
    [2, MAX_SITES]; boundary is "obc" or "pbc" in any case.  A ring with
    V != 0 needs 3 | L.  Values are stored as floats, an int and a
    lower-case string.  A bad value raises a ConfigError subclass that
    names its config key: NonFinite, NonPositiveSize, PbcPeriodMismatch.
    """

    t: float = 1.0
    gamma: float = 0.0
    delta: float = 0.0
    big_v: float = 0.0
    theta: float = 0.0
    num_sites: int = 2
    boundary: str = OBC

    def __post_init__(self):
        for key, name in FIELDS.items():
            x = getattr(self, name)
            if key == "boundary":
                if not isinstance(x, str) or x.lower() not in (OBC, PBC):
                    raise ConfigError(f"boundary must be 'obc' or 'pbc', got {x!r}")
                x = x.lower()
            elif isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ConfigError(f"{key} must be a number, got {x!r}")
            elif key == "L":
                if not isinstance(x, numbers.Integral) and not (
                        isinstance(x, float) and x.is_integer()):
                    raise ConfigError(f"L must be an integer, got {x!r}")
                x = int(x)
                if x < 2:
                    raise NonPositiveSize(f"L must be >= 2, got {x}")
                if x > MAX_SITES:
                    raise ConfigError(f"L must be <= {MAX_SITES}, got {x}")
            else:
                try:
                    x = float(x)
                except OverflowError as exc:  # an integer past float range
                    raise ConfigError(f"{key} is out of range: {exc}") from exc
                if not math.isfinite(x):
                    raise NonFinite(f"{key} is not finite: {x!r}")
                if key != "theta" and abs(x) > MAX_ENERGY:
                    raise ConfigError(f"|{key}| must be <= {MAX_ENERGY:g}, got {x!r}")
            object.__setattr__(self, name, x)
        if self.boundary == PBC and self.big_v != 0.0 and self.num_sites % 3 != 0:
            raise PbcPeriodMismatch(
                f"PBC with V != 0 requires L divisible by 3, got {self.num_sites}")

    def replace(self, **changes) -> "ModelSpec":
        """A checked copy with the given fields, named by field or config key."""
        return dataclasses.replace(self, **{FIELDS.get(k, k): v for k, v in changes.items()})

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in FIELDS.items()}

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        """Inverse of `to_dict`; missing keys take their defaults.  Rejects a
        non-object and unknown keys; the values are checked on construction."""
        if not isinstance(d, dict):
            raise ConfigError(f"model config must be a JSON object, got {type(d).__name__}")
        unknown = sorted(set(d) - set(FIELDS))
        if unknown:
            raise ConfigError(f"unknown model keys: {', '.join(unknown)}")
        return ModelSpec(**{FIELDS[k]: v for k, v in d.items()})


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


def theta_orbits(num_sites: int, steps: int) -> list[tuple[int, int]]:
    """(representative step, skew sign) for each step of the grid
    theta_s = 2 pi s / steps of the open chain of num_sites sites.

    H is linear in (t, gamma, delta, V), and two exact signed-permutation
    similarities relate open chains at different theta (sites n = 1..L):

    (A) theta -> theta + pi:  H(theta + pi) = -G H(theta) G with
        G = diag((-1)^n) on both Nambu halves.  Energies change sign and
        site densities are unchanged.  On the grid: s -> s + steps/2,
        when steps is even.
    (B) theta -> -2 pi (L+1)/3 - theta:  H = M H(theta) M^T with
        M = G tau_z tau_x (P + P), P the site reversal n -> L+1-n, that is
        M[n, L + (L+1-n)] = (-1)^n and M[L+n, L+1-n] = -(-1)^n (1-based
        rows and columns).  Energies are unchanged and site densities are
        mirrored, so the signed skew changes sign.  On the grid:
        s -> (-steps (L+1)/3 - s) mod steps, when 3 divides steps (L+1).

    Both maps are involutions and commute, so an orbit is {s, As, Bs, ABs};
    its representative is its smallest step.  A member reached by A (or
    the representative itself) has sign +1, one reached only by B or AB
    sign -1.  Where a map leaves the grid, the orbits are singletons of it.
    """
    half = steps // 2 if steps % 2 == 0 else 0  # off the grid, A acts as the identity
    mirror, shift = steps * (num_sites + 1) % 3 == 0, steps * (num_sites + 1) // 3
    orbits: list = [None] * steps
    for s in range(steps):
        if orbits[s] is None:
            members = [(s, 1), (s + half, 1)]
            if mirror:
                members += [(-shift - s, -1), (-shift - s - half, -1)]
            for m, sign in members:
                if orbits[m % steps] is None:
                    orbits[m % steps] = (s, sign)
    return orbits
