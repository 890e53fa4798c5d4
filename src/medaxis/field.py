"""Distance field calculus on a site scene.

For a query point x in the open domain the field consists of:

  R(x)      distance to the scene set (sites or wall),
  theta(x)  witness points attaining that distance within the tie band,
  F(x)      radius of the smallest ball enclosing theta(x),
  grad(x)   (x - center(theta)) / R, the steepest-ascent direction of R,
  F_alpha   (R - alpha)/R * F, the offset-rescaled witness radius.

The identity |grad|^2 = 1 - (F/R)^2 holds whenever the witnesses are exactly
equidistant, which is the case up to the tie band.  The critical function
chi(t) = inf {|grad(x)| : R(x) = t} is estimated by sprinkling points,
marching them onto the level set along the local ascent direction, and
taking an ordered minimum of the band-widened gradient norm.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .scene import (
    InvalidSceneError,
    OffsetDomainError,
    SiteScene,
    _nearest,
    nearest_site_info,
    witness_ball,
)

__all__ = [
    "FieldSample",
    "eval_field",
    "eval_field_batch",
    "r_batch",
    "CriticalProfile",
    "estimate_critical_function",
    "profile_to_csv",
    "profile_from_csv",
    "ReachSummary",
    "reach_summary",
]


@dataclass(frozen=True)
class FieldSample:
    point: np.ndarray
    R: float
    theta: list
    F: float
    grad: np.ndarray
    F_alpha: float | None
    witness_ids: tuple


def _offset_rescale(R, F, alpha):
    """F_alpha = (R - alpha)/R * F, defined only outside the alpha-offset."""
    alpha = float(alpha)
    if alpha < 0.0:
        raise InvalidSceneError("alpha must be nonnegative")
    if np.any(R <= alpha):
        raise OffsetDomainError("point lies within offset distance alpha of the scene")
    return (R - alpha) / R * F


def eval_field(scene: SiteScene, x, alpha: float | None = None,
               witness_band: float | None = None) -> FieldSample:
    """Evaluate the distance field at one point.

    ``witness_band`` widens the witness band to an absolute length (the
    default is the scene's relative tie band); integrators use a band at
    their step scale so that sheet contact is observable.
    """
    x = np.asarray(x, float)
    dmin, labels, points, _ = nearest_site_info(scene, x, band=witness_band)
    center, f_val = witness_ball(points)
    f_alpha = None if alpha is None else _offset_rescale(dmin, f_val, alpha)
    return FieldSample(point=x, R=dmin, theta=points, F=f_val,
                       grad=(x - center) / dmin, F_alpha=f_alpha,
                       witness_ids=tuple(labels))


def r_batch(scene: SiteScene, X) -> np.ndarray:
    return _nearest(scene, np.atleast_2d(np.asarray(X, float))).R


def eval_field_batch(scene: SiteScene, X, alpha: float | None = None,
                     witness_band: float | None = None):
    """Vectorized field evaluation; returns dict of arrays.

    Rows with a single witness (the generic case) are handled in bulk; only
    tie rows take the smallest enclosing ball of their witnesses.
    """
    X = np.atleast_2d(np.asarray(X, float))
    near = _nearest(scene, X)
    near.check()
    sites, wall = near.cut(witness_band)
    counts = sites.sum(axis=1) + wall
    centers = near.nearest_points()
    F = np.zeros(len(X))
    for i in np.nonzero(counts > 1)[0]:
        centers[i], F[i] = witness_ball(near.points(i, near.labels(i, sites, wall)))
    out = {"R": near.R, "F": F, "grad": (X - centers) / near.R[:, None],
           "witness_count": counts}
    if alpha is not None:
        out["F_alpha"] = _offset_rescale(near.R, F, alpha)
    return out


# --- critical function -------------------------------------------------

@dataclass(frozen=True)
class CriticalProfile:
    t_grid: np.ndarray
    chi: np.ndarray
    sample_count: np.ndarray
    band_width: float
    r_max: float
    flags: tuple = ()


def _sprinkle(scene: SiteScene, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Seed points for one level: anchored near sites/wall plus uniform."""
    dim = scene.dim
    r_bound = scene.bounding_radius
    n_anchor = (3 * n) // 4
    n_free = n - n_anchor

    dirs = rng.standard_normal((n_anchor, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = t * (0.05 + 0.9 * rng.random(n_anchor))
    anchor_idx = rng.integers(0, len(scene.sites) + 1, n_anchor)
    pts = np.empty((n_anchor, dim))
    site_mask = anchor_idx < len(scene.sites)
    pts[site_mask] = scene.sites[anchor_idx[site_mask]] + radii[site_mask, None] * dirs[site_mask]
    wall_mask = ~site_mask
    if np.any(wall_mask):
        pts[wall_mask] = (r_bound - radii[wall_mask])[:, None] * dirs[wall_mask]

    free_dirs = rng.standard_normal((n_free, dim))
    free_dirs /= np.linalg.norm(free_dirs, axis=1, keepdims=True)
    free_r = r_bound * 0.999 * rng.random(n_free) ** (1.0 / dim)
    free = free_r[:, None] * free_dirs

    out = np.vstack([pts, free])
    inside = np.linalg.norm(out, axis=1) < r_bound * (1.0 - 1e-12)
    return out[inside]


def _march_to_level(scene: SiteScene, X: np.ndarray, t: float, band: float,
                    max_iters: int = 200):
    """March seeds along +-ascent until the R = t level is bracketed, then bisect.

    Returns points with |R - t| <= band (bracketed points are bisected down to
    rounding; stalled points are kept only if they already sit in the band).
    """
    r_bound = scene.bounding_radius
    pts = X.copy()
    lo = np.empty_like(pts)
    hi = np.empty_like(pts)
    have_bracket = np.zeros(len(pts), bool)
    active = np.ones(len(pts), bool)
    for _ in range(max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        cur = pts[idx]
        near = _nearest(scene, cur)
        r_here = near.R
        u = (cur - near.nearest_points()) / r_here[:, None]
        gap = t - r_here
        step = np.clip(0.9 * np.abs(gap), band / 4.0, 0.05 * r_bound)
        # never step through the wall
        step = np.minimum(step, 0.5 * near.d_wall)
        del near  # frees its distance matrix before the trial query
        trial = cur + np.sign(gap)[:, None] * step[:, None] * u
        r_new = _nearest(scene, trial).R
        crossed = (r_here - t) * (r_new - t) <= 0.0
        sel = idx[crossed]
        lo[sel] = cur[crossed]
        hi[sel] = trial[crossed]
        have_bracket[sel] = True
        active[sel] = False
        keep = idx[~crossed]
        pts[keep] = trial[~crossed]
    accepted = []
    if np.any(have_bracket):
        a = lo[have_bracket]
        b = hi[have_bracket]
        fa = r_batch(scene, a) - t
        swap = fa > 0.0
        a[swap], b[swap] = b[swap].copy(), a[swap].copy()
        for _ in range(60):
            mid = 0.5 * (a + b)
            neg = (r_batch(scene, mid) - t) < 0.0
            a[neg] = mid[neg]
            b[~neg] = mid[~neg]
        accepted.append(0.5 * (a + b))
    stalled = active & ~have_bracket
    if np.any(stalled):
        rest = pts[stalled]
        in_band = np.abs(r_batch(scene, rest) - t) <= band
        if np.any(in_band):
            accepted.append(rest[in_band])
    if not accepted:
        return np.empty((0, X.shape[1]))
    out = np.vstack(accepted)
    near = _nearest(scene, out)
    keep = (near.norm < r_bound * (1.0 - 1e-15)) & (np.abs(near.R - t) <= band)
    return out[keep]


def _band_gradient_norms(scene: SiteScene, X: np.ndarray, band: float) -> np.ndarray:
    """|grad| with the witness band widened to ``band`` (absolute)."""
    near = _nearest(scene, X)
    sites, wall = near.cut(band)
    out = np.ones(len(X))
    for i in np.nonzero(sites.sum(axis=1) + wall > 1)[0]:
        _, f_val = witness_ball(near.points(i, near.labels(i, sites, wall)))
        ratio = f_val / near.R[i]
        out[i] = math.sqrt(max(0.0, 1.0 - ratio * ratio))
    return out


def estimate_critical_function(scene: SiteScene, t_grid,
                               samples_per_level: int = 4000,
                               band_width: float | None = None,
                               seed: int = 0,
                               r_max: float | None = None) -> CriticalProfile:
    """Sampled upper estimate of the critical function on a level grid.

    Per level: sprinkle seeds, march them onto the level set, and take the
    minimum band-widened gradient norm.  Levels that collect no sample in
    the band report chi = 1 and are flagged.  Deterministic given the seed.
    """
    t_grid = np.asarray(t_grid, float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) <= 0):
        raise InvalidSceneError("t_grid must be a strictly increasing 1-d array")
    if np.any(t_grid <= 0.0):
        raise InvalidSceneError("levels must be positive")
    if r_max is not None and np.any(t_grid >= r_max):
        raise InvalidSceneError("levels must stay below the maximal distance value")
    if band_width is None:
        band_width = scene.bounding_radius / 2000.0
    rng = np.random.default_rng(seed)
    chi = np.ones(len(t_grid))
    counts = np.zeros(len(t_grid), int)
    flags = []
    seen_r = 0.0
    for k, t in enumerate(t_grid):
        seeds = _sprinkle(scene, float(t), samples_per_level, rng)
        if len(seeds) == 0:
            flags.append(f"empty-band:{t:.6g}")
            continue
        seen_r = max(seen_r, float(r_batch(scene, seeds).max()))
        on_level = _march_to_level(scene, seeds, float(t), band_width)
        counts[k] = len(on_level)
        if len(on_level) == 0:
            flags.append(f"empty-band:{t:.6g}")
            continue
        norms = _band_gradient_norms(scene, on_level, band_width)
        chi[k] = float(norms.min())
    if r_max is None:
        r_max_val = max(seen_r, float(t_grid[-1]))
        flags.append("r-max-sampled")
    else:
        r_max_val = float(r_max)
    return CriticalProfile(t_grid=t_grid, chi=chi, sample_count=counts,
                           band_width=float(band_width), r_max=r_max_val,
                           flags=tuple(flags))


def profile_to_csv(profile: CriticalProfile) -> str:
    buf = io.StringIO()
    buf.write("t,chi\n")
    for t, c in zip(profile.t_grid, profile.chi):
        buf.write(f"{t:.17g},{c:.17g}\n")
    return buf.getvalue()


def profile_from_csv(text: str, band_width: float = float("nan"),
                     r_max: float = float("nan")) -> CriticalProfile:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0].strip() != "t,chi":
        raise InvalidSceneError("profile CSV must start with header 't,chi'")
    ts, cs = [], []
    for ln in lines[1:]:
        a, b = ln.split(",")
        ts.append(float(a))
        cs.append(float(b))
    t_grid = np.asarray(ts)
    chi = np.asarray(cs)
    return CriticalProfile(t_grid=t_grid, chi=chi,
                           sample_count=np.zeros(len(t_grid), int),
                           band_width=band_width, r_max=r_max,
                           flags=("from-csv",))


# --- reach summary ------------------------------------------------------

@dataclass(frozen=True)
class ReachSummary:
    mu: float
    alpha: float
    lam: float
    r_mu_alpha: float
    wfs: float
    r_max: float
    mu_tilde: float
    flags: tuple = ()


def _first_crossing(t_grid: np.ndarray, chi: np.ndarray, level: float,
                    t_min: float) -> float | None:
    """First t > t_min where chi drops below ``level`` (linear interpolation)."""
    for k in range(len(t_grid)):
        if t_grid[k] <= t_min:
            continue
        if chi[k] < level:
            if k > 0 and chi[k - 1] >= level and t_grid[k - 1] > t_min:
                t0, t1 = t_grid[k - 1], t_grid[k]
                c0, c1 = chi[k - 1], chi[k]
                frac = (c0 - level) / (c0 - c1)
                return float(t0 + frac * (t1 - t0))
            return float(t_grid[k])
    return None


def reach_summary(profile: CriticalProfile, mu: float, alpha: float, lam: float,
                  chi_zero_threshold: float = 0.05,
                  window_alpha: float | None = None) -> ReachSummary:
    """Reach-scale quantities read off an estimated critical profile.

    The crossing search starts just above ``window_alpha`` (default: alpha),
    so variants that watch the field from a smaller offset can be formed from
    the same profile; the mu_tilde gap always subtracts alpha itself.
    """
    if not (0.0 < mu <= 1.0):
        raise InvalidSceneError("mu must lie in (0, 1]")
    if alpha < 0.0 or lam <= 0.0:
        raise InvalidSceneError("need alpha >= 0 and lambda > 0")
    if window_alpha is None:
        window_alpha = alpha
    flags = list(profile.flags)
    t_grid = profile.t_grid
    chi = profile.chi

    wfs = _first_crossing(t_grid, chi, chi_zero_threshold, 0.0)
    if wfs is None:
        wfs = float("nan")
        flags.append("wfs-censored")

    r_mu = _first_crossing(t_grid, chi, mu, window_alpha)
    if r_mu is None:
        r_mu = profile.r_max
        flags.append("reach-censored")

    gap = r_mu - alpha
    if gap > lam:
        mu_tilde = min(mu, math.sqrt(1.0 - (lam / gap) ** 2))
    else:
        mu_tilde = float("nan")
        flags.append("mu-tilde-undefined")
    return ReachSummary(mu=float(mu), alpha=float(alpha), lam=float(lam),
                        r_mu_alpha=float(r_mu), wfs=float(wfs),
                        r_max=float(profile.r_max), mu_tilde=float(mu_tilde),
                        flags=tuple(flags))
