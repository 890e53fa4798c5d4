"""Point-site scenes inside a bounding ball, plus elementary ball primitives.

A scene is the closed set K made of a finite list of point sites together
with the complement of the open bounding ball (the "wall").  Every distance
query on the domain (the open ball minus the sites) reduces to point-site
distances plus the radial wall distance, so all downstream geometry is exact
in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "Ball",
    "SiteScene",
    "InvalidSceneError",
    "DomainError",
    "OffsetDomainError",
    "smallest_enclosing_ball",
    "nearest_site_info",
    "witness_ball",
    "wall_witness",
    "random_scene",
    "scene_to_json",
    "scene_from_json",
    "save_scene",
    "load_scene",
]

# Relative slack used when testing ball containment; guards the move-to-front
# recursion against re-adding a boundary point due to rounding.
_CONTAINS_EPS = 1e-12


class InvalidSceneError(ValueError):
    """Scene data violates a structural invariant (site placement, radius)."""


class DomainError(ValueError):
    """Query point is outside the open domain (bounding ball minus sites)."""


class OffsetDomainError(DomainError):
    """Query point is within offset distance alpha of the scene set."""


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def contains(self, point, slack: float = 0.0) -> bool:
        gap = float(np.linalg.norm(np.asarray(point, float) - self.center))
        return gap <= self.radius * (1.0 + _CONTAINS_EPS) + slack


@dataclass(frozen=True)
class SiteScene:
    """Finite point sites strictly inside a bounding ball.

    The modelled closed set is  {sites} union {|x| >= bounding_radius}.
    ``tie_tolerance`` is the relative band within which near-minimal
    distances count as witnesses.
    """

    sites: np.ndarray
    bounding_radius: float
    tie_tolerance: float = 1e-9

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, float))
        object.__setattr__(self, "sites", sites)
        r = float(self.bounding_radius)
        object.__setattr__(self, "bounding_radius", r)
        if not math.isfinite(r) or r <= 0.0:
            raise InvalidSceneError("bounding_radius must be positive and finite")
        if sites.ndim != 2 or sites.shape[0] == 0 or sites.shape[1] < 2:
            raise InvalidSceneError("sites must be a nonempty (m, d) array with d >= 2")
        if not np.all(np.isfinite(sites)):
            raise InvalidSceneError("site coordinates must be finite")
        norms = np.linalg.norm(sites, axis=1)
        if np.any(norms >= r):
            raise InvalidSceneError("every site must lie strictly inside the bounding ball")
        # Pairwise separation must clear the tie band by a wide margin,
        # otherwise witness sets are ill-defined.
        min_sep = 10.0 * self.tie_tolerance * r
        for i in range(len(sites)):
            gaps = np.linalg.norm(sites[i + 1:] - sites[i], axis=1)
            if gaps.size and float(gaps.min()) <= min_sep:
                raise InvalidSceneError("sites must be pairwise distinct (separation above the tie band)")

    @property
    def dim(self) -> int:
        return int(self.sites.shape[1])


def _ball_from_support(support: list[np.ndarray]) -> Ball | None:
    """Smallest ball with every support point on its boundary.

    The center lies in the affine hull of the support; solve the Gram system
    2 G a = diag(G) for the affine coefficients.  Degenerate supports fall
    back to least squares.
    """
    k = len(support)
    if k == 0:
        return None
    p0 = support[0]
    if k == 1:
        return Ball(p0.copy(), 0.0)
    m = np.stack([p - p0 for p in support[1:]])
    gram = m @ m.T
    rhs = 0.5 * np.diag(gram)
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = p0 + coef @ m
    radius = float(max(np.linalg.norm(p - center) for p in support))
    return Ball(center, radius)


def _seb_grow(points: np.ndarray, support: list[np.ndarray], dim: int) -> Ball:
    ball = _ball_from_support(support)
    if len(support) == dim + 1:
        return ball if ball is not None else Ball(np.zeros(dim), 0.0)
    for i in range(len(points)):
        p = points[i]
        if ball is None or not ball.contains(p):
            ball = _seb_grow(points[:i], support + [p], dim)
    return ball if ball is not None else Ball(points[0].copy(), 0.0)


def _seb_three_2d(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> Ball:
    # Try each pair's diameter ball first; an obtuse triangle is covered by
    # its longest side's ball, otherwise the circumcircle is minimal.
    best = None
    for p, q, r in ((a, b, c), (a, c, b), (b, c, a)):
        center = 0.5 * (p + q)
        radius = 0.5 * float(np.linalg.norm(p - q))
        ball = Ball(center, radius)
        if ball.contains(r) and (best is None or ball.radius < best.radius):
            best = ball
    if best is not None:
        return best
    ball = _ball_from_support([a, b, c])
    return ball


def smallest_enclosing_ball(points) -> Ball:
    """Minimum enclosing ball of a finite point list (any dimension >= 1).

    Deterministic for a fixed input ordering; the returned radius is
    permutation-invariant up to rounding.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[0] == 0:
        raise InvalidSceneError("smallest_enclosing_ball needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise InvalidSceneError("points must be finite")
    n, dim = pts.shape
    if n == 1:
        return Ball(pts[0].copy(), 0.0)
    if n == 2:
        return Ball(0.5 * (pts[0] + pts[1]), 0.5 * float(np.linalg.norm(pts[0] - pts[1])))
    if n == 3 and dim == 2:
        return _seb_three_2d(pts[0], pts[1], pts[2])
    ball = _seb_grow(pts, [], dim)
    # Tighten radius to the true max gap so containment checks are exact.
    radius = float(np.linalg.norm(pts - ball.center, axis=1).max())
    return Ball(ball.center, radius)


def wall_witness(scene: SiteScene, x: np.ndarray) -> np.ndarray:
    """Radial projection of x onto the bounding sphere."""
    x = np.asarray(x, float)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        w = np.zeros(scene.dim)
        w[0] = scene.bounding_radius
        return w
    return x * (scene.bounding_radius / nx)


class _Nearest(NamedTuple):
    """Distances from n query rows to a scene, as computed by ``_nearest``."""

    scene: SiteScene
    X: np.ndarray        # (n, d) query rows
    norm: np.ndarray     # (n,) |x|
    d_sites: np.ndarray  # (n, m) site distances
    d_wall: np.ndarray   # (n,) wall distances r - |x|
    R: np.ndarray        # (n,) distance to the scene set

    def check(self) -> None:
        """Raise DomainError unless every row lies in the open domain."""
        if self.R.size and self.R.min() <= 0.0:
            if self.d_wall.min() <= 0.0:
                raise DomainError("query point is outside the open bounding ball")
            raise DomainError("query point coincides with a site")

    def cut(self, band: float | None = None, keep=()):
        """Site mask (n, m) and wall mask (n,) of the witnesses within a cut.

        The cut is the scene's relative tie band when ``band`` is None and
        the absolute band R + ``band`` otherwise.  Labels in ``keep`` (known
        witnesses) stay in up to R + 2 ``band``; this hysteresis stops a
        witness hovering at the cut from flickering in and out.
        """
        if band is None:
            cut = self.R * (1.0 + self.scene.tie_tolerance)
        else:
            cut = self.R + float(band)
        sites = self.d_sites <= cut[:, None]
        wall = self.d_wall <= cut
        if keep:
            far = self.R + 2.0 * band
            for k in keep:
                if k < 0:
                    wall |= self.d_wall <= far
                else:
                    sites[:, k] |= self.d_sites[:, k] <= far
        return sites, wall

    def labels(self, i: int, sites: np.ndarray, wall: np.ndarray) -> list:
        """Row ``i``'s witness labels in a cut returned by ``cut``: site
        indices in ascending order, then -1 for the wall."""
        labels = sites[i].nonzero()[0].tolist()
        if wall[i]:
            labels.append(-1)
        return labels

    def points(self, i: int, labels: list) -> list:
        """The witness points of row ``i`` for a list of labels."""
        return [self.scene.sites[k] if k >= 0 else wall_witness(self.scene, self.X[i])
                for k in labels]

    def nearest_points(self) -> np.ndarray:
        """Each row's nearest witness: a site, which wins a distance tie
        with the wall, or else the row's wall projection."""
        j = self.d_sites.argmin(axis=1)
        pts = self.scene.sites[j]
        on_wall = self.d_wall < self.d_sites[np.arange(len(j)), j]
        scale = self.scene.bounding_radius / self.norm[on_wall]
        pts[on_wall] = self.X[on_wall] * scale[:, None]
        return pts


def _nearest(scene: SiteScene, X: np.ndarray) -> _Nearest:
    """The distance kernel: distances from the rows of a 2-d array to the
    scene set.

    Every site and wall distance of a query point is computed here, so one
    point gets the same R and witnesses whichever path asks for it.  Site
    distances are ``cdist``'s; |x| is sqrt(x . x) as a per-row matrix
    product, which equals ``np.linalg.norm`` of the single row bit for bit.
    Rows are not checked against the domain; see ``_Nearest.check``.
    """
    d_sites = cdist(X, scene.sites)
    norm = np.sqrt(X[:, None, :] @ X[:, :, None])[:, 0, 0]
    d_wall = scene.bounding_radius - norm
    R = d_sites.min(axis=1)
    return _Nearest(scene, X, norm, d_sites, d_wall, np.minimum(R, d_wall, out=R))


def nearest_site_info(scene: SiteScene, x, band: float | None = None,
                      keep=frozenset()):
    """One-row view of the distance kernel.

    Returns the distance R to the scene, the labels (site indices, then -1
    for the wall) and points of the witnesses within the cut, and the label
    set within the relative tie band (the exact witness set).  ``band`` is
    an absolute widening of the cut (length units); None means the tie
    band.  ``keep`` holds known witness labels, kept up to two bands out.
    """
    x = np.asarray(x, float)
    if x.shape != (scene.dim,):
        raise DomainError("query point has wrong dimension")
    near = _nearest(scene, x[None])
    R = float(near.R[0])
    if not R > 0.0:
        near.check()
    labels = near.labels(0, *near.cut(band, keep))
    ties = frozenset(labels if band is None else near.labels(0, *near.cut()))
    return R, labels, near.points(0, labels), ties


def witness_ball(points):
    """Center and radius F of the smallest ball enclosing a witness list;
    a single witness is its own center, with F = 0."""
    if len(points) == 1:
        return points[0], 0.0
    ball = smallest_enclosing_ball(np.stack(points))
    return ball.center, ball.radius


# --- JSON round trip (17 significant digits: exact float round trip) ---

def _fmt(v: float) -> float:
    return float(f"{float(v):.17g}")


def scene_to_json(scene: SiteScene) -> str:
    payload = {
        "sites": [[_fmt(c) for c in row] for row in scene.sites],
        "bounding_radius": _fmt(scene.bounding_radius),
        "tie_tolerance": _fmt(scene.tie_tolerance),
    }
    return json.dumps(payload)


def scene_from_json(text: str) -> SiteScene:
    try:
        payload = json.loads(text)
        sites = payload["sites"]
        radius = payload["bounding_radius"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidSceneError(f"malformed scene JSON: {exc}") from exc
    tie = payload.get("tie_tolerance", 1e-9)
    return SiteScene(np.asarray(sites, float), float(radius), float(tie))


def random_scene(n_sites: int, bounding_radius: float = 10.0, seed: int = 0,
                 dim: int = 2, margin: float = 0.85,
                 min_separation: float | None = None) -> SiteScene:
    """Seeded scene with sites drawn uniformly in a shrunken ball.

    Draws are rejected until all pairwise separations exceed
    ``min_separation`` (default: 2% of the bounding radius).
    """
    if min_separation is None:
        min_separation = 0.02 * bounding_radius
    rng = np.random.default_rng(seed)
    for _ in range(500):
        raw = rng.normal(size=(n_sites, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = margin * bounding_radius * rng.uniform(size=(n_sites, 1)) ** (1.0 / dim)
        sites = raw * radii
        diff = sites[:, None, :] - sites[None, :, :]
        gaps = np.sqrt((diff ** 2).sum(-1)) + np.eye(n_sites) * bounding_radius
        if gaps.min() > min_separation:
            return SiteScene(sites=sites, bounding_radius=bounding_radius)
    raise InvalidSceneError("could not place %d separated sites" % n_sites)


def save_scene(scene: SiteScene, path) -> None:
    with open(path, "w") as fh:
        fh.write(scene_to_json(scene))
        fh.write("\n")


def load_scene(path) -> SiteScene:
    with open(path) as fh:
        return scene_from_json(fh.read())
