"""Distance field calculus on a site scene.

For a query point x in the open domain the field consists of:

  R(x)      distance to the scene set (sites or wall),
  theta(x)  witness points attaining that distance within the tie band,
  F(x)      radius of the smallest ball enclosing theta(x),
  grad(x)   (x - center(theta)) / R, the steepest-ascent direction of R,
  F_alpha   (R - alpha)/R * F, the offset-rescaled witness radius.

The identity |grad|^2 = 1 - (F/R)^2 holds whenever the witnesses are exactly
equidistant, which is the case up to the tie band.  The critical function
chi(t) = inf {|grad(x)| : R(x) = t} of a scene in any dimension is
estimated here by sprinkling points, marching them onto the level set along
the local ascent direction, and taking an ordered minimum of the
band-widened gradient norm; a planar scene, and one whose sites span a
plane through the origin, has it in closed form
(``axis.exact_critical_function``), which the experiments use for both.
The seeds march one level at a time, and every march step and every
halving of a bracketed seed's bisection queries every site.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .scene import (
    DomainError,
    InvalidSceneError,
    OffsetDomainError,
    SiteScene,
    _check_count,
    _check_real,
    _in_ball,
    _nearest,
    _seb_stack,
)

__all__ = [
    "FieldSample",
    "eval_field",
    "eval_field_batch",
    "r_batch",
    "CriticalProfile",
    "estimate_critical_function",
    "profile_to_csv",
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


def _f_alpha(R, F, alpha):
    """F_alpha = (R - alpha)/R * F, NaN where R <= alpha."""
    return np.where(R > alpha, (R - alpha) / R * F, np.nan)


def _offset_rescale(R, F, alpha):
    """F_alpha, defined only outside the alpha-offset."""
    _check_real("alpha", alpha, positive=False)
    if np.any(R <= alpha):
        raise OffsetDomainError("point lies within offset distance alpha of the scene")
    return _f_alpha(R, F, alpha)


def eval_field(scene: SiteScene, x, alpha: float | None = None) -> FieldSample:
    """Evaluate the distance field at one point: ``eval_field_batch``'s
    path on one row, with the witness labels (site indices, then -1 for
    the wall) and points read off the row's witness mask, whose band is
    the scene's relative tie band.
    """
    x = np.asarray(x, float)
    if x.shape != (scene.dim,):
        raise DomainError("query point has wrong dimension")
    near = _nearest(scene, x[None])
    near.check()
    cols = near.cut().nonzero()[1]
    theta = near.witnesses(np.zeros(1, int), cols[None])
    centers, F = _seb_stack(theta)  # ``near.balls`` of the row
    R, f_val = float(near.R[0]), float(F[0])
    f_alpha = None if alpha is None else float(_offset_rescale(R, f_val, alpha))
    labels = np.where(cols < len(scene.sites), cols, -1)
    return FieldSample(point=x, R=R, theta=list(theta[0]), F=f_val,
                       grad=(x - centers[0]) / R, F_alpha=f_alpha,
                       witness_ids=tuple(labels.tolist()))


def r_batch(scene: SiteScene, X) -> np.ndarray:
    """Distance R to the scene set of each row of X, which must lie in
    the open domain."""
    near = _nearest(scene, np.atleast_2d(np.asarray(X, float)))
    near.check()
    return near.R


def eval_field_batch(scene: SiteScene, X, alpha: float | None = None):
    """Vectorized field evaluation; returns dict of arrays.

    Row for row equal to ``eval_field``: the witness balls of rows with the
    same witness count are computed as one stack.
    """
    X = np.atleast_2d(np.asarray(X, float))
    near = _nearest(scene, X)
    near.check()
    mask = near.cut()
    centers, F = near.balls(mask)
    out = {"R": near.R, "F": F, "grad": (X - centers) / near.R[:, None],
           "witness_count": mask.sum(axis=1)}
    if alpha is not None:
        out["F_alpha"] = _offset_rescale(near.R, F, alpha)
    return out


# --- critical function -------------------------------------------------

# March iterations before a level's unbracketed seeds give up.
_MARCH_ITERS = 200
# chi below this reads as zero: the weak feature size is its first crossing.
_CHI_ZERO = 0.05


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

    out = np.vstack([pts, _in_ball(rng, n_free, dim, r_bound * 0.999)])
    inside = np.linalg.norm(out, axis=1) < r_bound * (1.0 - 1e-12)
    return out[inside]


def _march_to_level(scene: SiteScene, X: np.ndarray, t: float, band: float):
    """March each seed along +-ascent until the level ``t`` is bracketed,
    then bisect.

    Every step is row-wise, so a seed's result does not depend on which
    seeds march with it.  Each march iteration makes one kernel query: the
    trial query's R, wall distance and nearest witness of the seeds that
    stay active are their current values in the next iteration.  Each
    halving of the brackets makes one more.  Returns the kept points,
    which satisfy |R - t| <= band: bracketed seeds, bisected down to
    rounding, in seed order, then stalled seeds that already sit in the
    band, in seed order; and the largest R of the seeds (0 when there are
    none).
    """
    r_bound = scene.bounding_radius
    lo = np.empty_like(X)   # the bracket end with R <= t
    hi = np.empty_like(X)
    bracketed = np.zeros(len(X), bool)
    idx = np.arange(len(X))
    cur = X
    near = _nearest(scene, cur)
    r_here, d_wall, foot = near.R, near.d_wall, near.nearest_points()
    r_seeds = float(r_here.max(initial=0.0))
    for _ in range(_MARCH_ITERS):
        if idx.size == 0:
            break
        u = (cur - foot) / r_here[:, None]
        gap = t - r_here
        step = np.clip(0.9 * np.abs(gap), band / 4.0, 0.05 * r_bound)
        # never step through the wall
        step = np.minimum(step, 0.5 * d_wall)
        trial = cur + np.sign(gap)[:, None] * step[:, None] * u
        near = _nearest(scene, trial)
        crossed = (r_here - t) * (near.R - t) <= 0.0
        sel = idx[crossed]
        above = (r_here[crossed] - t > 0.0)[:, None]
        lo[sel] = np.where(above, trial[crossed], cur[crossed])
        hi[sel] = np.where(above, cur[crossed], trial[crossed])
        bracketed[sel] = True
        stay = ~crossed
        idx, cur = idx[stay], trial[stay]
        r_here, d_wall = near.R[stay], near.d_wall[stay]
        foot = near.nearest_points()[stay]
    rows = np.nonzero(bracketed)[0]
    a, b = lo[rows], hi[rows]
    # A row whose (a, b) an iteration leaves bitwise unchanged would repeat
    # that iteration forever, so it leaves the bisection early.
    live = np.arange(len(rows))
    for _ in range(60):
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        neg = (_nearest(scene, mid).R - t) < 0.0
        old = np.where(neg[:, None], a[live], b[live])
        moved = (old.view(np.int64) != mid.view(np.int64)).any(axis=1)
        a[live[neg]] = mid[neg]
        b[live[~neg]] = mid[~neg]
        live = live[moved]
    pts = np.vstack([0.5 * (a + b), cur[np.abs(r_here - t) <= band]])
    near = _nearest(scene, pts)
    keep = (near.norm < r_bound * (1.0 - 1e-15)) & (np.abs(near.R - t) <= band)
    return pts[keep], r_seeds


def _grad_norm(F, R):
    """|grad| = sqrt(1 - (F/R)^2) of witness balls of radius F at distance
    R, clamped at zero."""
    ratio = F / R
    return np.sqrt(np.maximum(0.0, 1.0 - ratio * ratio))


def _band_gradient_norms(scene: SiteScene, X: np.ndarray, band: float) -> np.ndarray:
    """|grad| with the witness band widened to ``band`` (absolute)."""
    near = _nearest(scene, X)
    return _grad_norm(near.balls(near.cut(band))[1], near.R)


def _check_sampling(samples_per_level, band_width) -> None:
    """Reject sampler settings that would silently yield no samples."""
    _check_count("samples_per_level", samples_per_level)
    if band_width is not None:
        _check_real("band_width", band_width)


def _check_levels(t_grid, r_max: float | None) -> np.ndarray:
    """The level grid as a float array, rejected unless it is 1-d, finite,
    positive, strictly increasing and, when ``r_max`` is given, below it."""
    t_grid = np.asarray(t_grid, float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise InvalidSceneError("t_grid must be a strictly increasing 1-d array")
    if not np.isfinite(t_grid).all():
        raise InvalidSceneError("levels must be finite")
    if np.any(np.diff(t_grid) <= 0):
        raise InvalidSceneError("t_grid must be a strictly increasing 1-d array")
    if np.any(t_grid <= 0.0):
        raise InvalidSceneError("levels must be positive")
    if r_max is not None and np.any(t_grid >= r_max):
        raise InvalidSceneError("levels must stay below the maximal distance value")
    return t_grid


def estimate_critical_function(scene: SiteScene, t_grid,
                               samples_per_level: int = 4000,
                               band_width: float | None = None,
                               seed: int = 0,
                               r_max: float | None = None) -> CriticalProfile:
    """Sampled upper estimate of the critical function on a level grid.

    Level by level, in grid order, seeds are sprinkled from one generator,
    marched onto the level set, and chi is the minimum band-widened gradient
    norm of the marched points.  Levels that collect no sample in the band
    report chi = 1 and are flagged.  The result is deterministic given the
    seed.

    The estimate approximates the band-windowed minimum of the gradient
    norm over |R - t| <= band_width, not the pointwise chi(t), and it misses
    features that no seed reaches; ``axis.exact_critical_function`` gives
    the pointwise chi of a planar scene, or of coplanar sites through the
    origin.
    """
    t_grid = _check_levels(t_grid, r_max)
    _check_sampling(samples_per_level, band_width)
    if band_width is None:
        band_width = scene.bounding_radius / 2000.0
    rng = np.random.default_rng(seed)
    chi = np.ones(len(t_grid))
    counts = np.zeros(len(t_grid), int)
    seen_r = 0.0
    for k, t in enumerate(t_grid.tolist()):
        X = _sprinkle(scene, t, samples_per_level, rng)
        on_level, r_seeds = _march_to_level(scene, X, t, band_width)
        seen_r = max(seen_r, r_seeds)
        counts[k] = len(on_level)
        if counts[k]:
            chi[k] = float(_band_gradient_norms(scene, on_level, band_width).min())
    flags = [f"empty-band:{t:.6g}" for t, c in zip(t_grid, counts) if c == 0]
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

    @property
    def reach_holds(self) -> bool:
        """The reach hypothesis of the stability bounds: mu_tilde is defined
        and r_mu_alpha exceeds alpha + lam."""
        return (math.isfinite(self.mu_tilde) and math.isfinite(self.r_mu_alpha)
                and self.r_mu_alpha > self.alpha + self.lam)


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
                  window_alpha: float | None = None) -> ReachSummary:
    """Reach-scale quantities read off an estimated critical profile.

    The crossing search starts just above ``window_alpha`` (default: alpha),
    so variants that watch the field from a smaller offset can be formed from
    the same profile; the mu_tilde gap always subtracts alpha itself.
    """
    if not (0.0 < mu <= 1.0):
        raise InvalidSceneError("mu must lie in (0, 1]")
    _check_real("alpha", alpha, positive=False)
    _check_real("lam", lam)
    if window_alpha is None:
        window_alpha = alpha
    _check_real("window_alpha", window_alpha, positive=False)
    flags = list(profile.flags)
    t_grid = profile.t_grid
    chi = profile.chi

    wfs = _first_crossing(t_grid, chi, _CHI_ZERO, 0.0)
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
