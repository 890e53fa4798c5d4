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
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

__all__ = [
    "Ball",
    "SiteScene",
    "InvalidSceneError",
    "DomainError",
    "OffsetDomainError",
    "smallest_enclosing_ball",
    "nearest_site_info",
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
        if not (0.0 <= self.tie_tolerance < math.inf):
            raise InvalidSceneError("tie_tolerance must be nonnegative and finite")
        norms = np.linalg.norm(sites, axis=1)
        if np.any(norms >= r):
            raise InvalidSceneError("every site must lie strictly inside the bounding ball")
        # Pairwise separation must clear the tie band by a wide margin,
        # otherwise witness sets are ill-defined.  The tree's radius is a
        # little wide; the gaps it finds are measured again as ``norm`` does.
        min_sep = 10.0 * self.tie_tolerance * r
        close = cKDTree(sites).query_pairs(min_sep * (1.0 + 1e-6),
                                           output_type="ndarray")
        if np.any(np.linalg.norm(sites[close[:, 1]] - sites[close[:, 0]], axis=1) <= min_sep):
            raise InvalidSceneError("sites must be pairwise distinct (separation above the tie band)")

    @property
    def dim(self) -> int:
        return int(self.sites.shape[1])


def _ball_from_support(support: list[np.ndarray]) -> Ball:
    """Smallest ball with every support point (at least one) on its boundary.

    The center lies in the affine hull of the support; solve the Gram system
    2 G a = diag(G) for the affine coefficients.  Degenerate supports fall
    back to least squares.
    """
    p0 = support[0]
    if len(support) == 1:
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
    # The empty support's ball, of radius -1, contains no point.
    ball = _ball_from_support(support) if support else Ball(np.zeros(dim), -1.0)
    if len(support) == dim + 1:
        return ball
    for i, p in enumerate(points):
        if np.linalg.norm(p - ball.center) > ball.radius * (1.0 + _CONTAINS_EPS):
            ball = _seb_grow(points[:i], support + [p], dim)
    return ball


def _dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products along the last axis (broadcast), as one matrix product
    per row, which equals ``float(a @ b)`` of the single rows bit for bit."""
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


def _row_norms(D: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, sqrt(x . x), which equals
    ``np.linalg.norm`` of the single row bit for bit."""
    return np.sqrt(_dot(D, D))


def _gram_centers(S: np.ndarray) -> np.ndarray:
    """Centers (n, d) of the balls with all three points of each row of a
    stack S (n, 3, d) on their boundary: ``_ball_from_support``'s Gram
    solve of the support S[i, 0], S[i, 1], S[i, 2], row-wise."""
    m = S[:, 1:] - S[:, :1]
    gram = m @ m.transpose(0, 2, 1)
    coef = np.linalg.solve(gram, 0.5 * np.diagonal(gram, axis1=1, axis2=2)[..., None])
    return S[:, 0] + (coef.transpose(0, 2, 1) @ m)[:, 0]


def _welzl_three(P: np.ndarray) -> np.ndarray:
    """Centers of ``_seb_grow(P[i], [], d)`` for a stack of three-point sets:
    its fixed decision tree, row-wise, with its arithmetic.

    The ball starts as the point p0.  Each containment test below replaces
    it, in the rows where the tested point lies outside, by the ball of the
    recursion's next support: a pair, whose 1 x 1 Gram solve gives exactly
    0.5, or last the three points.
    """
    p0, p1, p2 = P[:, 0], P[:, 1], P[:, 2]
    center, radius = p0, np.zeros(len(P))

    def outside(p):
        return _row_norms(p - center) > radius * (1.0 + _CONTAINS_EPS)

    def grow(mask, a, b):  # to the ball with support [a, b]
        c = a + 0.5 * (b - a)
        r = np.maximum(_row_norms(a - c), _row_norms(b - c))
        return np.where(mask[:, None], c, center), np.where(mask, r, radius)

    center, radius = grow(outside(p1), p1, p0)
    regrow = outside(p2)
    # ``_seb_grow([p0, p1], [p2])``: the ball restarts at the point p2
    center, radius = np.where(regrow[:, None], p2, center), np.where(regrow, 0.0, radius)
    center, radius = grow(regrow & outside(p0), p2, p0)
    regrow &= outside(p1)
    center, radius = grow(regrow, p2, p1)
    regrow &= outside(p0)
    if regrow.any():
        # Only an acute triangle gets here (each point lies outside the
        # other two's diameter ball), so no Gram matrix is singular.
        center[regrow] = _gram_centers(P[regrow][:, ::-1])
    return center


def _seb_stack(P: np.ndarray):
    """Centers (n, d) and radii (n,) of the smallest balls enclosing a stack
    of k-point sets, shaped (n, k, d): the one smallest-enclosing-ball routine.

    One and two points in any dimension, and three in the plane, take closed
    forms row-wise over the stack.  Other sets follow Welzl's move-to-front
    recursion (1991): three points in d >= 3 row-wise over the stack
    (``_welzl_three``), the rest one row at a time (``_seb_grow``).  The
    radius is tightened to the largest gap.  A row's result does not depend
    on the stack it is in.
    """
    n, k, dim = P.shape
    if k == 1:
        return P[:, 0].copy(), np.zeros(n)
    if k == 2:
        return 0.5 * (P[:, 0] + P[:, 1]), 0.5 * _row_norms(P[:, 0] - P[:, 1])
    if k > 3 or dim != 2:
        centers = (_welzl_three(P) if k == 3 and dim > 2 else
                   np.array([_seb_grow(pts, [], dim).center for pts in P]))
        return centers, np.linalg.norm(P - centers[:, None], axis=2).max(axis=1)
    # Each side's diameter disk (sides ab, ac, bc): the first of the smallest
    # covering ones, an obtuse triangle's longest side; else the circumcircle.
    p, q, r = P[:, [[0, 0, 1], [1, 2, 2], [2, 1, 0]]].swapaxes(0, 1)
    centers, radii = 0.5 * (p + q), 0.5 * _row_norms(p - q)
    covers = _row_norms(r - centers) <= radii * (1.0 + _CONTAINS_EPS)
    side = np.where(covers, radii, np.inf).argmin(axis=1)
    center, radius = centers[np.arange(n), side], radii[np.arange(n), side]
    acute = np.nonzero(~covers.any(axis=1))[0]
    if acute.size:
        # an uncovered triangle is never flat enough for its Gram matrix
        # to be singular
        center[acute] = _gram_centers(P[acute])
        radius[acute] = _row_norms(P[acute] - center[acute, None]).max(axis=1)
    return center, radius


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
    centers, radii = _seb_stack(pts[None])
    return Ball(centers[0], float(radii[0]))


def _wall_points(scene: SiteScene, X: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Radial projections onto the bounding sphere of the rows of X, whose
    norms are ``norm``; the origin goes to (r, 0, ..., 0)."""
    zero = norm == 0.0
    pts = X * (scene.bounding_radius / np.where(zero, 1.0, norm))[:, None]
    if zero.any():
        pts[zero] = 0.0
        pts[zero, 0] = scene.bounding_radius
    return pts


def wall_witness(scene: SiteScene, x: np.ndarray) -> np.ndarray:
    """Radial projection of x onto the bounding sphere."""
    X = np.asarray(x, float)[None]
    return _wall_points(scene, X, _row_norms(X))[0]


class _Nearest(NamedTuple):
    """Distances from n query rows to a scene, as computed by ``_nearest``."""

    scene: SiteScene
    X: np.ndarray        # (n, d) query rows
    norm: np.ndarray     # (n,) |x|
    d_sites: np.ndarray  # (n, m) site distances, or (n, k) to candidates
    d_wall: np.ndarray   # (n,) wall distances r - |x|
    R: np.ndarray        # (n,) distance to the scene set

    def check(self) -> None:
        """Raise DomainError unless every row lies in the open domain."""
        if self.R.size and self.R.min() <= 0.0:
            if self.d_wall.min() <= 0.0:
                raise DomainError("query point is outside the open bounding ball")
            raise DomainError("query point coincides with a site")

    def cut(self, band: float | None = None, keep: np.ndarray | None = None):
        """Site mask (n, m) and wall mask (n,) of the witnesses within a cut.

        The cut is the scene's relative tie band when ``band`` is None and
        the absolute band R + ``band`` (``band`` >= 0) otherwise.  ``keep``
        marks each row's known witnesses, shaped (n, m + 1) with the wall
        last, so that a label indexes its column; they stay in up to
        R + 2 ``band``.  This hysteresis stops a witness hovering at the cut
        from flickering in and out.
        """
        if band is None:
            if keep is not None:
                raise ValueError("keep needs an absolute band, but band is None")
            cut = self.R * (1.0 + self.scene.tie_tolerance)
        else:
            if band < 0.0:
                raise ValueError("witness band must be nonnegative")
            cut = self.R + float(band)
        if keep is None:
            return self.d_sites <= cut[:, None], self.d_wall <= cut
        far = self.R + 2.0 * band  # never below the cut
        bound = np.where(keep, far[:, None], cut[:, None])
        return self.d_sites <= bound[:, :-1], self.d_wall <= bound[:, -1]

    def candidates(self, reach: np.ndarray) -> np.ndarray:
        """Table (n, k) of each row's sites within ``reach`` (n,) of it, in
        ascending order, padded with the row's first one; k is the largest
        count.  Every reach must be at least the row's nearest site
        distance, so that no row is empty."""
        within = self.d_sites <= reach[:, None]
        counts = within.sum(axis=1)
        rows, cols = within.nonzero()
        first = np.cumsum(counts) - counts
        table = np.repeat(cols[first][:, None], counts.max(), axis=1)
        table[rows, np.arange(len(cols)) - first[rows]] = cols
        return table

    def labels(self, i: int, sites: np.ndarray, wall: np.ndarray) -> list:
        """Row ``i``'s witness labels in a cut returned by ``cut``: site
        indices in ascending order, then -1 for the wall."""
        labels = sites[i].nonzero()[0].tolist()
        if wall[i]:
            labels.append(-1)
        return labels

    def nearest_points(self) -> np.ndarray:
        """Each row's nearest witness: a site, which wins a distance tie
        with the wall, or else the row's wall projection."""
        j = self.d_sites.argmin(axis=1)
        pts = self.scene.sites[j]
        on_wall = self.d_wall < self.d_sites[np.arange(len(j)), j]
        pts[on_wall] = _wall_points(self.scene, self.X[on_wall], self.norm[on_wall])
        return pts

    def balls(self, sites: np.ndarray, wall: np.ndarray):
        """Center (n, d) and radius F (n,) of each row's witness ball in a
        cut returned by ``cut``: rows are grouped by witness count and wall
        flag, and each group's witnesses, in ``labels`` order, go to
        ``_seb_stack`` as one stack."""
        counts = sites.sum(axis=1)
        cols = sites.nonzero()[1]  # row by row, each row's sites ascending
        key = 2 * counts + wall
        groups = np.bincount(key).nonzero()[0].tolist()
        if len(groups) == 1:  # one group: every row, in order
            return _seb_stack(self._witnesses(groups[0], slice(None),
                                              cols.reshape(len(key), groups[0] // 2)))
        first = np.cumsum(counts) - counts
        centers, F = np.empty_like(self.X), np.empty(len(self.X))
        for g in groups:
            rows = np.nonzero(key == g)[0]
            centers[rows], F[rows] = _seb_stack(self._witnesses(
                g, rows, cols[first[rows, None] + np.arange(g // 2)]))
        return centers, F

    def _witnesses(self, key: int, rows, cols: np.ndarray) -> np.ndarray:
        """The witness stack of a group of rows whose key is 2 x site count
        + wall flag and whose site columns are ``cols``."""
        pts = self.scene.sites[cols]
        if key % 2:
            wall = _wall_points(self.scene, self.X[rows], self.norm[rows])
            pts = np.concatenate((pts, wall[:, None]), axis=1)
        return pts


def _nearest(scene: SiteScene, X: np.ndarray, cand: np.ndarray | None = None,
             out: np.ndarray | None = None) -> _Nearest:
    """The distance kernel: distances from the rows of a 2-d array to the
    scene set.

    Every site and wall distance of a query point is computed here, so one
    point gets the same R and witnesses whichever path asks for it.  Site
    distances are ``cdist``'s and |x| is ``_row_norms``'.  A table ``cand``
    (n, k) of site indices (``_Nearest.candidates``) restricts each row to
    its own sites: ``d_sites`` then holds those k distances, which equal
    ``cdist``'s bit for bit.  Without ``cand``, a C-contiguous (n, m) array
    ``out`` receives the site distances.  Rows are not checked against the
    domain; see ``_Nearest.check``.
    """
    if cand is None:
        d_sites = cdist(X, scene.sites, out=out)
    else:  # squares summed coordinate by coordinate, as cdist does
        diff = X[:, None] - scene.sites[cand]
        d_sites = diff[..., 0] * diff[..., 0]
        for j in range(1, X.shape[1]):
            d_sites += diff[..., j] * diff[..., j]
        np.sqrt(d_sites, out=d_sites)
    norm = _row_norms(X)
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
    mask = None
    if keep:
        mask = np.zeros((1, len(scene.sites) + 1), bool)
        mask[0, list(keep)] = True
    labels = near.labels(0, *near.cut(band, mask))
    ties = frozenset(labels if band is None else near.labels(0, *near.cut()))
    points = [scene.sites[k] if k >= 0 else wall_witness(scene, x) for k in labels]
    return R, labels, points, ties


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
