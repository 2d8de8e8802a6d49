"""Independent recomputation of the values the workloads check.

Every function works on plain one-dimensional cell arrays (natural order,
which is Z-order for d = 1) and evaluates a definition directly with its own
numpy formulation, without calling the czlab routine whose output it checks.
"""

from __future__ import annotations

import numpy as np


def _averages(v: np.ndarray, level: int) -> np.ndarray:
    return v.reshape(1 << level, -1).mean(axis=1)


def _levels(v: np.ndarray) -> int:
    return int(v.size).bit_length() - 1


def ap(w: np.ndarray, p: float) -> float:
    """sup over dyadic Q of avg_Q(w) avg_Q(sigma)^(p-1), sigma = w^(1-p')."""
    sigma = w ** (1.0 - p / (p - 1.0))
    return max(float((_averages(w, k) * _averages(sigma, k) ** (p - 1.0)).max())
               for k in range(_levels(w) + 1))


def joint_ap(w: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """sup over dyadic Q of avg_Q(w)^(1/p) avg_Q(sigma)^(1/p')."""
    pprime = p / (p - 1.0)
    return max(float((_averages(w, k) ** (1.0 / p) * _averages(sigma, k) ** (1.0 / pprime)).max())
               for k in range(_levels(w) + 1))


def ainfty_dyadic(w: np.ndarray) -> float:
    """sup over dyadic Q of w(Q)^-1 times the integral over Q of the dyadic
    maximal function of w restricted to subcubes of Q."""
    N = _levels(w)
    M = w.size
    best = 0.0
    running = w.copy()
    for r in range(N, -1, -1):
        running = np.maximum(running, np.repeat(_averages(w, r), M >> r))
        ratios = running.reshape(1 << r, -1).sum(axis=1) / w.reshape(1 << r, -1).sum(axis=1)
        best = max(best, float(ratios.max()))
    return best


def _centered_maximal_on(v: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """At each listed cell centre x: the largest average of v over the windows
    [x - m dx, x + m dx], m = 1..M, clipped to [0, 1) but divided by their full
    length 2 m dx, and never below |v(x)|."""
    M = v.size
    prefix = np.concatenate([[0.0], np.cumsum(v)])
    m = np.arange(1, M + 1)[None, :]
    i = cells[:, None]
    inner = prefix[np.minimum(i + m, M)] - prefix[np.maximum(i - m + 1, 0)]
    padded = np.concatenate([v, [0.0]])
    left = np.where(i - m >= 0, padded[np.maximum(i - m, 0)], 0.0)
    right = padded[np.minimum(i + m, M)]
    means = (inner + 0.5 * (left + right)) / (2.0 * m)
    return np.maximum(np.abs(v[cells]), means.max(axis=1))


def ainfty_centered(w: np.ndarray) -> float:
    """sup over dyadic Q of w(Q)^-1 times the integral over Q of the centred
    maximal function of w 1_Q."""
    N = _levels(w)
    M = w.size
    best = 0.0
    for r in range(N + 1):
        width = M >> r
        for z in range(1 << r):
            cells = np.arange(z * width, (z + 1) * width)
            masked = np.zeros(M)
            masked[cells] = w[cells]
            ratio = _centered_maximal_on(masked, cells).sum() / w[cells].sum()
            best = max(best, float(ratio))
    return best


def sawyer_constant(tau: list, w: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """sup over dyadic R of w(R)^(-1/p') || sum_{Q in R} tau_Q avg_Q(w) 1_Q ||_{L^p'(sigma)}.

    tau[k] holds the coefficients of the level-k cubes."""
    pprime = p / (p - 1.0)
    N = _levels(w)
    M = w.size
    vol = 1.0 / M
    best = 0.0
    localized = np.zeros(M)
    for r in range(N, -1, -1):
        localized = localized + np.repeat(tau[r] * _averages(w, r), M >> r)
        mass = (localized ** pprime * sigma * vol).reshape(1 << r, -1).sum(axis=1)
        wmass = (w * vol).reshape(1 << r, -1).sum(axis=1)
        best = max(best, float((mass ** (1.0 / pprime) / wmass ** (1.0 / pprime)).max()))
    return best


def interval_indicator(M: int, lo: float, hi: float) -> np.ndarray:
    v = np.zeros(M)
    v[int(round(lo * M)) : int(round(hi * M))] = 1.0
    return v


def hilbert_pairing(f: np.ndarray, g: np.ndarray) -> float:
    """<Hf, g> for the midpoint-rule kernel 1/(x - y) without the self-cell."""
    M = f.size
    fi, gi = np.flatnonzero(f), np.flatnonzero(g)
    diff = (gi[:, None] - fi[None, :]).astype(float)
    kernel = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)
    return float(g[gi] @ kernel @ f[fi]) / M


def _petermichl_pairings(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Row-wise <P F, G> for the Petermichl shift P.

    P f = sum over intervals Q of length 2^-l, l <= N-2, of
    2^l (f(Q_left) - f(Q_right)) (1_Qll - 1_Qlr - 1_Qrl + 1_Qrr),
    f(I) denoting the integral of f over I.
    """
    B, M = F.shape
    N = _levels(F[0])
    fint, gint = [F / M], [G / M]  # integrals over the level N, N-1, ... intervals
    for _ in range(N):
        fint.append(fint[-1].reshape(B, -1, 2).sum(axis=2))
        gint.append(gint[-1].reshape(B, -1, 2).sum(axis=2))
    total = np.zeros(B)
    for level in range(N - 1):
        halves = fint[N - level - 1].reshape(B, -1, 2)
        quarters = gint[N - level - 2].reshape(B, -1, 4)
        coef = (halves[:, :, 0] - halves[:, :, 1]) * float(1 << level)
        pattern = quarters[:, :, 0] - quarters[:, :, 1] - quarters[:, :, 2] + quarters[:, :, 3]
        total += (coef * pattern).sum(axis=1)
    return total


def translation_average(f: np.ndarray, g: np.ndarray, offsets: np.ndarray,
                        chunk: int = 256) -> float:
    """Average of <P f(. + o), g(. + o)> over the cyclic cell offsets o."""
    M = f.size
    distinct, counts = np.unique(offsets, return_counts=True)
    cells = np.arange(M)
    total = 0.0
    for s in range(0, distinct.size, chunk):
        off = distinct[s : s + chunk]
        idx = (cells[None, :] + off[:, None]) % M
        total += float(_petermichl_pairings(f[idx], g[idx]) @ counts[s : s + chunk])
    return total / offsets.size
