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
import numbers
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
    "random_scene",
    "scene_to_json",
    "scene_from_json",
    "save_scene",
    "load_scene",
]

# Relative slack used when testing ball containment; guards the move-to-front
# recursion against re-adding a boundary point due to rounding.
_CONTAINS_EPS = 1e-12
# Margin, relative to a set's largest gap plus its largest |coordinate|, by
# which its points must clear its farthest pair's ball to certify a ball.
_PAIR_SLACK = 1e-9


class InvalidSceneError(ValueError):
    """Scene data violates a structural invariant (site placement, radius)."""


class DomainError(ValueError):
    """Query point is outside the open domain (bounding ball minus sites)."""


class OffsetDomainError(DomainError):
    """Query point is within offset distance alpha of the scene set."""


def _check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer >= ``least`` (a bool included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidSceneError("%s must be an integer >= %d" % (name, least))


def _check_real(name: str, value, positive: bool = True) -> None:
    """Reject all but finite real numbers > 0, or >= 0 unless ``positive``
    (a bool included)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0.0 or positive and value == 0.0):
        raise InvalidSceneError("%s must be finite and %s"
                                % (name, "positive" if positive else "nonnegative"))


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


def _seb_stack(P: np.ndarray):
    """Centers (n, d) and radii (n,) of the smallest balls enclosing a stack
    of k-point sets, shaped (n, k, d): the one smallest-enclosing-ball routine.

    One and two points, and three in the plane, take closed forms.  Other
    sets get the centers of Welzl's move-to-front recursion (1991),
    ``_seb_grow``, bit for bit: where all other points lie inside the
    farthest pair's ball by the margin ``_PAIR_SLACK``, that ball is the
    smallest, and it is built as the recursion builds it; a triangle whose
    third point lies outside by the margin takes its circumcenter in the
    recursion's order; the recursion itself serves the rest, rows with tied
    farthest pairs among them.  The radius is tightened to the largest gap.
    A row's result does not depend on the stack it is in.
    """
    n, k, dim = P.shape
    if k == 1:
        return P[:, 0].copy(), np.zeros(n)
    if k == 2:
        return 0.5 * (P[:, 0] + P[:, 1]), 0.5 * _row_norms(P[:, 0] - P[:, 1])
    rows = np.arange(n)
    if k == 3 and dim == 2:
        # Each side's diameter disk (sides ab, ac, bc): the first of the smallest
        # covering ones, an obtuse triangle's longest side; else the circumcircle.
        p, q, r = P[:, [[0, 0, 1], [1, 2, 2], [2, 1, 0]]].swapaxes(0, 1)
        centers, radii = 0.5 * (p + q), 0.5 * _row_norms(p - q)
        covers = _row_norms(r - centers) <= radii * (1.0 + _CONTAINS_EPS)
        side = np.where(covers, radii, np.inf).argmin(axis=1)
        center, radius = centers[rows, side], radii[rows, side]
        acute = ~covers.any(axis=1)  # never flat enough for a singular Gram matrix
        center[acute] = _gram_centers(P[acute])
        radius[acute] = _row_norms(P[acute] - center[acute, None]).max(axis=1)
        return center, radius
    i, j = np.triu_indices(k, 1)
    gaps = _row_norms(P[:, i] - P[:, j])
    top = gaps.argmax(axis=1)
    # the recursion's ball on a pair: its support is [later, earlier]
    a, b = P[rows, j[top]], P[rows, i[top]]
    centers = a + 0.5 * (b - a)
    depth = (np.maximum(_row_norms(a - centers), _row_norms(b - centers))[:, None]
             - _row_norms(P - centers[:, None]))
    depth[rows, i[top]] = depth[rows, j[top]] = np.inf
    depth = depth.min(axis=1)  # the shallowest other point's
    slack = _PAIR_SLACK * (gaps[rows, top] + np.abs(P).max(axis=(1, 2)))
    if k == 3:  # an acute triangle: its Gram matrix is regular
        acute = depth <= -slack
        centers[acute] = _gram_centers(P[acute][:, ::-1])
        depth[acute] = slack[acute]
    for row in np.nonzero(depth < slack)[0]:
        centers[row] = _seb_grow(P[row], [], dim).center
    return centers, np.linalg.norm(P - centers[:, None], axis=2).max(axis=1)


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


class _Nearest(NamedTuple):
    """Distances from n query rows to a scene, as computed by ``_nearest``."""

    scene: SiteScene
    X: np.ndarray        # (n, d) query rows
    norm: np.ndarray     # (n,) |x|
    d_sites: np.ndarray  # (n, m) site distances, or (n, k) to ``cand``'s sites
    d_wall: np.ndarray   # (n,) wall distances r - |x|
    R: np.ndarray        # (n,) distance to the scene set
    cand: np.ndarray | None = None  # (n, k) site of each column, None: column j is site j

    def check(self) -> None:
        """Raise DomainError unless every row lies in the open domain."""
        if self.R.size and not self.R.min() > 0.0:
            if not np.isfinite(self.X).all():
                raise DomainError("query point must be finite")
            if self.d_wall.min() <= 0.0:
                raise DomainError("query point is outside the open bounding ball")
            raise DomainError("query point coincides with a site")

    def cut(self, band: float | None = None, keep: np.ndarray | None = None) -> np.ndarray:
        """Witness mask (n, m + 1) of the witnesses within a cut: column j < m
        is ``d_sites``' column j and column m the wall.

        The cut is the scene's relative tie band when ``band`` is None and
        the absolute band R + ``band`` (``band`` >= 0) otherwise.  ``keep``,
        a witness mask, marks each row's known witnesses; they stay in up to
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
        mask = np.empty((len(self.R), self.d_sites.shape[1] + 1), bool)
        if keep is None:
            bound = np.broadcast_to(cut[:, None], mask.shape)
        else:
            far = self.R + 2.0 * band  # never below the cut
            bound = np.where(keep, far[:, None], cut[:, None])
        np.less_equal(self.d_sites, bound[:, :-1], out=mask[:, :-1])
        np.less_equal(self.d_wall, bound[:, -1], out=mask[:, -1])
        return mask

    def nearest_points(self) -> np.ndarray:
        """Each row's nearest witness: a site, which wins a distance tie
        with the wall, or else the row's wall projection."""
        rows = np.arange(len(self.R))
        j = self.d_sites.argmin(axis=1)
        pts = self.scene.sites[j if self.cand is None else self.cand[rows, j]]
        on_wall = self.d_wall < self.d_sites[rows, j]
        pts[on_wall] = _wall_points(self.scene, self.X[on_wall], self.norm[on_wall])
        return pts

    def balls(self, mask: np.ndarray):
        """Center (n, d) and radius F (n,) of each row's witness ball in a
        witness mask (``cut``): rows are grouped by witness count, and each
        group's witnesses, in column order, go to ``_seb_stack`` as one
        stack."""
        counts = mask.sum(axis=1)
        cols = mask.nonzero()[1]  # row by row, each row's columns ascending
        first = np.cumsum(counts) - counts
        centers, F = np.empty_like(self.X), np.empty(len(self.X))
        for k in np.bincount(counts).nonzero()[0].tolist():
            rows = np.nonzero(counts == k)[0]
            centers[rows], F[rows] = _seb_stack(self.witnesses(
                rows, cols[first[rows, None] + np.arange(k)]))
        return centers, F

    def witnesses(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The witness stack (len(rows), k, d) of ``rows`` whose witness
        mask columns are ``cols`` (len(rows), k), ascending: sites, then
        the row's wall projection where its last column is the wall's."""
        m = self.d_sites.shape[1]
        ids = np.minimum(cols, m - 1)
        pts = self.scene.sites[ids if self.cand is None else self.cand[rows[:, None], ids]]
        wall = (cols[:, -1] == m).nonzero()[0]
        if wall.size:
            pts[wall, -1] = _wall_points(self.scene, self.X[rows[wall]],
                                         self.norm[rows[wall]])
        return pts


def _nearest(scene: SiteScene, X: np.ndarray, cand: np.ndarray | None = None) -> _Nearest:
    """The distance kernel: distances from the rows of a 2-d array to the
    scene set.

    Every site and wall distance of a query point is computed here, so one
    point gets the same R and witnesses whichever path asks for it.  Site
    distances are ``cdist``'s and |x| is ``_row_norms``'.  A table ``cand``
    (n, k) of site indices, ascending along each row, restricts each row to
    its own sites, such as those near a skeleton vertex:
    ``d_sites`` then holds those k distances, which equal ``cdist``'s bit
    for bit.  Rows are not checked against the domain; see
    ``_Nearest.check``.
    """
    if cand is None:
        d_sites = cdist(X, scene.sites)
    else:  # squares summed coordinate by coordinate, as cdist does
        diff = X[:, None] - scene.sites[cand]
        d_sites = diff[..., 0] * diff[..., 0]
        for j in range(1, X.shape[1]):
            d_sites += diff[..., j] * diff[..., j]
        np.sqrt(d_sites, out=d_sites)
    norm = _row_norms(X)
    d_wall = scene.bounding_radius - norm
    R = d_sites.min(axis=1)
    return _Nearest(scene, X, norm, d_sites, d_wall, np.minimum(R, d_wall, out=R), cand)


# --- JSON round trip (Python's float repr round-trips every finite double) ---

def scene_to_json(scene: SiteScene) -> str:
    payload = {
        "sites": scene.sites.tolist(),
        "bounding_radius": scene.bounding_radius,
        "tie_tolerance": float(scene.tie_tolerance),
    }
    return json.dumps(payload)


def scene_from_json(text: str) -> SiteScene:
    try:  # a JSON decoding error is a ValueError
        payload = json.loads(text)
        sites = np.asarray(payload["sites"], float)
        radius = float(payload["bounding_radius"])
        tie = float(payload.get("tie_tolerance", 1e-9))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSceneError(f"malformed scene JSON: {exc}") from exc
    return SiteScene(sites, radius, tie)


def _in_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n seeded points drawn uniformly in the centered ball of the radius: a
    normal direction, normalised, times radius * u ** (1 / dim)."""
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * (radius * rng.uniform(size=(n, 1)) ** (1.0 / dim))


def random_scene(n_sites: int, bounding_radius: float = 10.0, seed: int = 0,
                 dim: int = 2, min_separation: float | None = None) -> SiteScene:
    """Seeded scene with sites drawn uniformly in the ball of 0.85 times
    the bounding radius.

    Draws are rejected until all pairwise separations exceed
    ``min_separation`` (default: 2% of the bounding radius).
    """
    _check_count("n_sites", n_sites)
    if min_separation is None:
        min_separation = 0.02 * bounding_radius
    rng = np.random.default_rng(seed)
    for _ in range(500):
        sites = _in_ball(rng, n_sites, dim, 0.85 * bounding_radius)
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
