"""Random reservoir adjacency construction and its spectral summaries.

Construction recipe: start from the all-ones off-diagonal matrix, zero an
exact half of the off-diagonal entries (chosen uniformly without
replacement), flip an exact half of the surviving entries to -1, then rescale
so the magnitude of the spectral abscissa (the largest real part among
eigenvalues) equals the target.  Odd counts round up.  The RNG stream order
is fixed as (zero mask, sign mask, input coupling) so runs are reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, SpectralRadiusError


@dataclass(frozen=True)
class ReservoirNetwork:
    """Adjacency matrix A (A[i, j] couples node j into node i) plus input
    coupling vector w."""

    a: np.ndarray
    w: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if w.shape != (a.shape[0],):
            raise ValueError("input coupling length must match the node count")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
            raise ValueError("adjacency and coupling must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenstructure facts consumed by the stability analysis.

    rho_plus / rho_minus are the largest uniform right/left shifts of the
    whole spectrum along the real axis that keep every eigenvalue inside the
    closed unit disk; critical_plus / critical_minus index the eigenvalues
    that bind those shifts.
    """

    alpha_max: float
    eigenvalues: np.ndarray
    rho_plus: float
    rho_minus: float
    critical_plus: int
    critical_minus: int


def spectral_abscissa(a: np.ndarray) -> float:
    """Largest real part among the eigenvalues of a."""
    return float(np.linalg.eigvals(np.asarray(a, dtype=float)).real.max())


def alpha_max(a) -> float:
    """Largest eigenvalue of the symmetric part (A + A^T)/2."""
    a = np.asarray(a, dtype=float)
    sym = 0.5 * (a + a.T)
    return float(np.linalg.eigvalsh(sym)[-1])


def spectral_normalize(a, target: float) -> np.ndarray:
    """Scale a so |spectral abscissa| equals target."""
    a = np.asarray(a, dtype=float)
    abscissa = spectral_abscissa(a)
    if abs(abscissa) < 1e-12:
        raise ConstructionError(
            "spectral abscissa is zero; the matrix cannot be normalized"
        )
    return a * (float(target) / abs(abscissa))


def construct_adjacency(
    m: int,
    seed: int,
    spectral_target: float = 0.5,
    input_coupling: str = "uniform",
) -> ReservoirNetwork:
    """Build one realization of the random reservoir topology.

    input_coupling selects the distribution of w: "uniform" draws i.i.d. from
    U[-1, 1]; "signs" uses the signs of the same draws (w_i in {-1, +1}), so
    both choices consume the RNG stream identically.
    """
    if m < 2:
        raise ValueError(f"need at least 2 nodes, got {m}")
    if input_coupling not in ("uniform", "signs"):
        raise ValueError(f"unknown input_coupling {input_coupling!r}")
    rng = np.random.default_rng(seed)

    a = np.ones((m, m)) - np.eye(m)
    off_rows, off_cols = np.nonzero(~np.eye(m, dtype=bool))
    n_off = off_rows.shape[0]

    n_zero = (n_off + 1) // 2
    zero_perm = rng.permutation(n_off)
    zero_idx = zero_perm[:n_zero]
    a[off_rows[zero_idx], off_cols[zero_idx]] = 0.0

    surv_idx = zero_perm[n_zero:]
    n_surv = surv_idx.shape[0]
    n_neg = (n_surv + 1) // 2
    sign_perm = rng.permutation(n_surv)
    neg_idx = surv_idx[sign_perm[:n_neg]]
    a[off_rows[neg_idx], off_cols[neg_idx]] = -1.0

    draws = rng.uniform(-1.0, 1.0, size=m)
    w = draws if input_coupling == "uniform" else np.where(draws >= 0.0, 1.0, -1.0)

    try:
        a = spectral_normalize(a, spectral_target)
    except ConstructionError as exc:
        raise ConstructionError(
            f"construction with seed {seed} produced an unnormalizable "
            f"matrix; reseed ({exc})"
        ) from exc
    return ReservoirNetwork(a=a, w=w, seed=seed)


def critical_shifts(a) -> SpectralSummary:
    """Per-eigenvalue admissible real-axis shifts and the binding ones.

    Requires every eigenvalue strictly inside the unit circle; the rightward
    room of eigenvalue g is sqrt(1 - Im(g)^2) - Re(g) and the leftward room
    is -(sqrt(1 - Im(g)^2) + Re(g)).
    """
    a = np.asarray(a, dtype=float)
    eig = np.linalg.eigvals(a)
    mags = np.abs(eig)
    if np.any(mags >= 1.0):
        worst = eig[int(np.argmax(mags))]
        raise SpectralRadiusError(
            f"eigenvalue {worst:.6g} has magnitude {abs(worst):.6g} >= 1; the "
            "discrete-time origin is not stabilizable by a spectrum shift"
        )
    half_chord = np.sqrt(1.0 - eig.imag**2)
    rho_p = half_chord - eig.real
    rho_m = -(half_chord + eig.real)
    i_plus = int(np.argmin(rho_p))
    i_minus = int(np.argmax(rho_m))
    return SpectralSummary(
        alpha_max=alpha_max(a),
        eigenvalues=eig,
        rho_plus=float(rho_p[i_plus]),
        rho_minus=float(rho_m[i_minus]),
        critical_plus=i_plus,
        critical_minus=i_minus,
    )

