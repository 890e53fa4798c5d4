"""Voronoi skeleton of a planar site scene and its (lambda, alpha) filtration.

For two interior sites p, q the locus of points equidistant to both and
closer to them than to anything else is a sub-interval of their bisector
line.  Parametrize the bisector by arc length s from the midpoint of pq.
Then along the edge

    R(s) = sqrt(h^2 + s^2),   F = h = |p - q| / 2   (constant),

so the filter F_alpha = (R - alpha)/R * F >= lambda has the closed form

    R >= R* = alpha * h / (h - lambda)   (lambda < h),

i.e. |s| >= s* = sqrt(R*^2 - h^2) when R* > h, the whole edge when
R* <= h, and nothing when lambda >= h.  The bounding wall is a clipping
locus, not a site: each edge is cut where site distance equals wall
distance (one quadratic in s per edge), and the portions beyond the cut
are excluded.

The pairs are the Delaunay edges of the sites, each bounded by the third
sites of its (at most two) triangles; collinear sites pair up in order
along their line.  One rule holds for every site count, so a single site
has an empty skeleton: its site/wall bisector is not an edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, QhullError, cKDTree

from .scene import InvalidSceneError, OffsetDomainError, SiteScene, _dot, _nearest, _row_norms
from .field import (CriticalProfile, _check_levels, _f_alpha, _grad_norm, _row_chunks,
                    eval_field, eval_field_batch)

__all__ = [
    "VoronoiSkeleton",
    "build_skeleton",
    "FilteredAxis",
    "filter_axis",
    "axis_membership",
    "scene_r_max",
    "exact_critical_function",
    "axis_to_json",
]

# Qhull codes for an input it finds flat: "initial simplex is flat" and
# "initial hull is narrow".
_QHULL_FLAT = ("QH6154", "QH7089")


@dataclass(frozen=True)
class VoronoiSkeleton:
    """The skeleton as arrays: vertex rows (V,) and edge rows (E,).

    Edge e is the interval s[e, 0] < s[e, 1] of the bisector mid[e] + s u[e]
    of the sites ``pairs[e]`` (i < j), with half-gap h[e].  Its ends are the
    vertices ``edges[e]``, each bounded by the site ``bound[e]`` or, where
    that is -1, clipped by the wall.  R and F are the vertices' distances to
    the scene and witness radii.
    """

    scene: SiteScene
    vertices: np.ndarray  # (V, 2)
    R: np.ndarray         # (V,)
    F: np.ndarray         # (V,)
    edges: np.ndarray     # (E, 2) vertex ids of the ends
    pairs: np.ndarray     # (E, 2) site pairs
    h: np.ndarray         # (E,) half-gaps
    mid: np.ndarray       # (E, 2) bisector midpoints
    u: np.ndarray         # (E, 2) unit bisector directions
    s: np.ndarray         # (E, 2) parameters of the ends
    bound: np.ndarray     # (E, 2) bounding site of each end, -1 at the wall
    flags: tuple = ()


def _wall_intervals(scene: SiteScene, m: np.ndarray, u: np.ndarray, h: np.ndarray):
    """Parameter ranges (lo, hi, ok) on the bisectors where sites beat the wall.

    Solves sqrt(h^2+s^2) <= R - |m + s u| exactly: one downward condition
    quadratic plus the half-line where the squaring step was valid plus the
    inside-the-ball range.  ``ok`` is False where the range is empty.
    """
    r = scene.bounding_radius
    beta = _dot(m, u)
    m2 = _dot(m, m)
    a_lin = r * r + m2 - h * h

    qa = 4.0 * (r * r - beta * beta)
    qb = 4.0 * beta * (2.0 * r * r - a_lin)
    qc = 4.0 * r * r * m2 - a_lin * a_lin
    disc = qb * qb - 4.0 * qa * qc
    disc_b = beta * beta - (m2 - r * r)
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(disc)
        lo = (-qb - root) / (2.0 * qa)
        hi = (-qb + root) / (2.0 * qa)
        # validity of the squaring step: a_lin + 2 beta s >= 0
        valid = -a_lin / (2.0 * beta)
        lo = np.where((beta > 0.0) & (valid > lo), valid, lo)
        hi = np.where((beta < 0.0) & (valid < hi), valid, hi)
        # stay inside the ball: s^2 + 2 beta s + m2 - r^2 <= 0
        root_b = np.sqrt(disc_b)
    lo = np.where(-beta - root_b > lo, -beta - root_b, lo)
    hi = np.where(-beta + root_b < hi, -beta + root_b, hi)
    ok = ~((disc < 0.0) | ((beta == 0.0) & (a_lin < 0.0)) | (disc_b < 0.0) | (lo >= hi))
    return lo, hi, ok


def _line_edges(sites: np.ndarray):
    """Consecutive pairs of flat (collinear) sites in order along their line.

    Their bisectors are parallel, so no site bounds another pair's
    interval; only the wall clips them.
    """
    rel = sites - sites[0]
    far = rel[int(np.argmax(np.einsum("ij,ij->i", rel, rel)))]
    order = np.argsort(rel @ far, kind="stable")
    pairs = np.sort(np.column_stack([order[:-1], order[1:]]), axis=1)
    return pairs[np.lexsort(pairs.T[::-1])], np.empty((len(pairs), 0), int)


def _spans_all(tri: Delaunay, n: int) -> bool:
    """Whether the triangles use every site and nothing else (Qhull can drop
    nearly collinear sites, or leak its point at infinity into a triangle)."""
    return np.array_equal(np.unique(tri.simplices), np.arange(n))


def _delaunay_edges(scene: SiteScene):
    """Delaunay edges (E, 2) of site indices i < j in ascending order, and
    the third sites (E, 2) of each edge's (at most two) triangles, ascending,
    with -1 where a hull edge has one triangle.

    The wall clips bisector intervals but never creates adjacencies, so the
    edges of the site triangulation are the exact candidate set, and the
    interval of edge (i, j) ends at the circumcenters of its triangles,
    which only those third sites determine.  Flat inputs (rank < 2, or ones
    Qhull reports flat) take the sorted-line path, with no third sites;
    sites that Qhull drops as coplanar are kept by a joggled
    retriangulation.
    """
    sites = scene.sites
    n = len(sites)
    if np.linalg.matrix_rank(sites - sites[0]) < 2:
        return _line_edges(sites)
    try:
        tri = Delaunay(sites)
    except QhullError as err:
        if not any(code in str(err) for code in _QHULL_FLAT):
            raise
        return _line_edges(sites)
    if not _spans_all(tri, n):
        tri = Delaunay(sites, qhull_options="QJ")
        if not _spans_all(tri, n):
            raise RuntimeError("Qhull left sites out of the joggled triangulation")
    # the three sides of every triangle, each with the triangle's third site
    simplices = tri.simplices.astype(np.intp)
    ends = np.sort(np.stack([simplices[:, [1, 2, 0]], simplices[:, [2, 0, 1]]], axis=2),
                   axis=2).reshape(-1, 2)
    key = ends[:, 0] * n + ends[:, 1]
    order = np.lexsort((simplices.ravel(), key))
    key, third = key[order], simplices.ravel()[order]
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    pairs = np.column_stack([key[first] // n, key[first] % n])
    return pairs, np.column_stack([third[first], np.where(count == 2, third[first + count - 1], -1)])


def _pair_edges(scene: SiteScene, pairs: np.ndarray, opposite: np.ndarray):
    """Clipped bisector intervals of the site pairs (E, 2), each bounded by
    its row of ``opposite`` (E, K) sites, where -1 is no site.

    Each site k cuts the bisector of (p, q) where it becomes as close as p
    and q: a s <= b with a = 2 (k - p).u, b = |k|^2 - |p|^2 - 2 (k - p).m;
    the nearest cut on each side bounds the interval, the first in row order
    on a tie.  Returns the kept pairs and their (m, u, h, s, bound): ``s``
    (E', 2) are the interval ends and ``bound`` (E', 2) their bounding sites,
    -1 where the wall clips.
    """
    sites = scene.sites
    r = scene.bounding_radius
    p, q = sites[pairs[:, 0]], sites[pairs[:, 1]]
    dvec = q - p
    length = _row_norms(dvec)
    h = 0.5 * length
    m = 0.5 * (p + q)
    u = np.column_stack([-dvec[:, 1], dvec[:, 0]]) / length[:, None]

    k = sites[opposite]
    rel = k - p[:, None]
    a = 2.0 * _dot(rel, u[:, None])
    b = _dot(k, k) - _dot(p, p)[:, None] - 2.0 * _dot(rel, m[:, None])
    flat = np.abs(a) < 1e-14 * r
    cuts = (opposite >= 0) & ~flat
    ratio = np.divide(b, a, out=np.zeros_like(b), where=cuts)
    # column 0 is the open end, which a cut must beat strictly
    rows = np.arange(len(pairs))
    labels = np.column_stack([np.full(len(pairs), -1), opposite])
    ups = np.column_stack([np.full(len(pairs), np.inf), np.where(cuts & (a > 0.0), ratio, np.inf)])
    downs = np.column_stack([np.full(len(pairs), -np.inf), np.where(cuts & (a < 0.0), ratio, -np.inf)])
    k_hi, k_lo = ups.argmin(axis=1), downs.argmax(axis=1)
    hi, lo = ups[rows, k_hi], downs[rows, k_lo]

    w_lo, w_hi, w_ok = _wall_intervals(scene, m, u, h)
    at_site = np.column_stack([lo >= w_lo, hi <= w_hi])
    s = np.where(at_site, np.column_stack([lo, hi]), np.column_stack([w_lo, w_hi]))
    bound = np.where(at_site, np.column_stack([labels[rows, k_lo], labels[rows, k_hi]]), -1)
    dead = ((opposite >= 0) & flat & (b < 0.0)).any(axis=1)
    keep = ~dead & ~(lo >= hi) & w_ok & ~(s[:, 1] - s[:, 0] <= 1e-12 * r)
    return pairs[keep], m[keep], u[keep], h[keep], s[keep], bound[keep]


def _components(n: int, ends: np.ndarray) -> np.ndarray:
    """Component label of each of the n nodes of the graph with the edges
    ``ends`` (k, 2), as ``connected_components`` numbers them: in the order
    of their lowest node, whatever the order of the edges.  The CSR arrays
    are built from the ends sorted by their first node, which costs less
    than a conversion from COO."""
    order = np.argsort(ends[:, 0])
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(ends[:, 0], minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(len(ends)), ends[order, 1].astype(np.int32), indptr),
                       shape=(n, n))
    return connected_components(graph, directed=False)[1].astype(np.intp)


def _endpoint_vertices(points: np.ndarray, tol: float):
    """Vertices of the endpoints (N, 2) and each endpoint's vertex id.

    Endpoints linked by steps of at most ``tol`` are one vertex; vertices
    are numbered by first occurrence and sit at their first endpoint.
    """
    close = cKDTree(points).query_pairs(tol * (1.0 + 1e-6), output_type="ndarray")
    a, b = points[close[:, 0]], points[close[:, 1]]
    # components are labelled in the order of their lowest node, which is
    # the order of first occurrence
    label = _components(len(points), close[np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1]) <= tol])
    return points[np.unique(label, return_index=True)[1]], label


def build_skeleton(scene: SiteScene) -> VoronoiSkeleton:
    """Medial skeleton of the scene: Voronoi edges between sites, wall-clipped.

    Every edge is a site/site bisector interval; the wall only clips it
    (wall as clipping locus), for every site count.  Site/wall ties carry
    no edge, so a single-site scene has an empty skeleton, flagged
    ``empty-skeleton``.
    """
    if scene.dim != 2:
        raise InvalidSceneError("skeleton construction is planar (d = 2)")
    pairs, mid, u, h, s, bound = _pair_edges(scene, *_delaunay_edges(scene))
    ends = (mid[:, None] + s[:, :, None] * u[:, None]).reshape(-1, 2)
    vertices, ids = _endpoint_vertices(ends, 1e-9 * scene.bounding_radius)
    R, F = np.empty(len(vertices)), np.empty(len(vertices))
    for rows in _row_chunks(scene, len(vertices)):
        got = eval_field_batch(scene, vertices[rows])
        R[rows], F[rows] = got["R"], got["F"]
    return VoronoiSkeleton(scene=scene, vertices=vertices, R=R, F=F, edges=ids.reshape(-1, 2),
                           pairs=pairs, h=h, mid=mid, u=u, s=s, bound=bound,
                           flags=() if len(pairs) else ("empty-skeleton",))


def scene_r_max(scene: SiteScene, skeleton: VoronoiSkeleton | None = None) -> float:
    """Maximum of the distance field over the domain (planar scenes).

    Attained either at a skeleton vertex or at a site/wall antipodal point
    x = -(r - |p|)/2 * p_hat, which is valid only when no other site is closer.
    """
    if scene.dim != 2:
        raise InvalidSceneError("exact maximal distance value needs a planar scene")
    if skeleton is None:
        skeleton = build_skeleton(scene)
    r = scene.bounding_radius
    norm = _row_norms(scene.sites)
    cand = 0.5 * (r + norm)
    with np.errstate(invalid="ignore", divide="ignore"):
        X = -scene.sites * (0.5 * (r - norm) / norm)[:, None]
    X[norm == 0.0] = (-0.5 * r, 0.0)
    valid = np.empty(len(X), bool)
    for rows in _row_chunks(scene, len(X)):
        valid[rows] = _nearest(scene, X[rows]).d_sites.min(axis=1) >= cand[rows] * (1.0 - 1e-12)
    return max([0.0] + skeleton.R.tolist() + cand[valid].tolist())


def _site_wall_points(scene: SiteScene, t: np.ndarray):
    """Points where level t meets the site/wall ellipse of a site p: the at
    most two intersections of |x| = r - t and |x - p| = t (one where they
    touch), as rows (N, 2) with their level and site indices.  For a site
    at the origin the circles meet only at t = r/2, and every level is
    below that, since R <= r/2 in such a scene."""
    r = scene.bounding_radius
    d = _row_norms(scene.sites)
    site = np.flatnonzero(d > 0.0)
    d, p = d[site], scene.sites[site]
    # x = a p/d + b p_perp/d with a^2 + b^2 = (r - t)^2
    a = (r * (r - 2.0 * t[:, None]) + d * d) / (2.0 * d)
    b2 = (r - t[:, None]) ** 2 - a * a
    level, k = np.nonzero(b2 >= 0.0)
    a, b = a[level, k], np.sqrt(b2[level, k])
    two = b > 0.0
    level, k = np.concatenate([level, level[two]]), np.concatenate([k, k[two]])
    a, b = np.concatenate([a, a[two]]), np.concatenate([b, -b[two]])
    along, perp = p[k] / d[k, None], np.column_stack([-p[k, 1], p[k, 0]]) / d[k, None]
    return a[:, None] * along + b[:, None] * perp, level, site[k]


def exact_critical_function(scene: SiteScene, t_grid,
                            skeleton: VoronoiSkeleton | None = None) -> CriticalProfile:
    """The critical function of a planar scene in closed form, read off its
    skeleton.

    The reported quantity is the paper's pointwise infimum
    chi(t) = inf {|grad R(x)| : R(x) = t} at each level t exactly, with
    |grad R| = sqrt(1 - (F/R)^2) and witness sets in the scene's tie band.
    (``field.estimate_critical_function`` approximates a band-windowed
    minimum instead: the band-widened norm over |R - t| <= band_width.)
    Off the medial set |grad R| = 1, so chi(t) = sqrt(1 - (H(t)/t)^2), where
    H(t) is the largest F over the features that level t meets:

    - a site/site edge, with F = h on the R-range
      [sqrt(h^2 + s_near^2), sqrt(h^2 + s_far^2)] of its span s, s_near = 0
      when the span holds 0;
    - a site/wall point of site p, where |x| = r - t meets |x - p| = t, kept
      where the tie band marks both p and the wall, with F its witness ball
      radius as ``eval_field`` reads it;
    - a skeleton vertex with R == t.

    A level that meets none has chi = 1.  ``sample_count`` counts the
    features met per level and ``band_width`` is 0.  ``reach_summary`` reads
    wfs and r_mu off either profile as first crossings on its level grid, so
    a critical value between two levels shows only through the dip of chi
    around it.  The levels must be finite, positive, strictly increasing and
    below ``scene_r_max``.
    """
    if scene.dim != 2:
        raise InvalidSceneError("the exact critical function needs a planar scene")
    if skeleton is None:
        skeleton = build_skeleton(scene)
    r_max = scene_r_max(scene, skeleton)
    t = _check_levels(t_grid, r_max)
    X, level, site = _site_wall_points(scene, t)
    F, kept = np.empty(len(X)), np.empty(len(X), bool)
    for rows in _row_chunks(scene, len(X)):
        near = _nearest(scene, X[rows])
        mask = near.cut()
        kept[rows] = mask[np.arange(len(mask)), site[rows]] & mask[:, -1]
        F[rows] = near.balls(mask)[1]
    # every feature as an R-range [lo, hi] with its F: edges, vertices and
    # the kept wall points, each on its own level
    h, s0, s1 = skeleton.h, skeleton.s[:, 0], skeleton.s[:, 1]
    s_near = np.maximum(0.0, np.maximum(s0, -s1))
    s_far = np.maximum(-s0, s1)
    lo = np.concatenate([np.sqrt(h * h + s_near * s_near), skeleton.R, t[level[kept]]])
    hi = np.concatenate([np.sqrt(h * h + s_far * s_far), skeleton.R, t[level[kept]]])
    weight = np.concatenate([h, skeleton.F, F[kept]])
    H, counts = np.zeros(len(t)), np.zeros(len(t), int)
    for rows in _row_chunks(scene, len(t)):
        met = (lo <= t[rows, None]) & (t[rows, None] <= hi)
        H[rows] = np.where(met, weight, 0.0).max(axis=1, initial=0.0)
        counts[rows] = met.sum(axis=1)
    return CriticalProfile(t_grid=t, chi=_grad_norm(H, t),
                           sample_count=counts, band_width=0.0, r_max=r_max)


# --- filtration ---------------------------------------------------------

@dataclass(frozen=True)
class FilteredAxis:
    lam: float
    alpha: float
    vertices: np.ndarray
    segments: np.ndarray
    isolated: np.ndarray
    component_ids: np.ndarray
    flags: tuple = ()

    @property
    def isolated_points(self) -> np.ndarray:
        if len(self.isolated) == 0:
            return np.empty((0, 2))
        return self.vertices[self.isolated]

    @property
    def is_empty(self) -> bool:
        return len(self.segments) == 0 and len(self.isolated) == 0

    def total_length(self) -> float:
        if len(self.segments) == 0:
            return 0.0
        a = self.vertices[self.segments[:, 0]]
        b = self.vertices[self.segments[:, 1]]
        return float(np.linalg.norm(b - a, axis=1).sum())


def filter_axis(skeleton: VoronoiSkeleton, lam: float, alpha: float) -> FilteredAxis:
    """Retain the part of the skeleton where F_alpha >= lambda (closed form).

    Edge e keeps the sub-intervals of [s0, s1] outside |s| < s*, where
    s* = sqrt(R*^2 - h^2): at most a low span ending at -s* and a high one
    starting at s*, or the whole edge.  Vertices are numbered in the order
    segments first reach them: a skeleton vertex at a kept end, else the cut
    point (edge, s rounded to 12 places); surviving skeleton vertices on no
    segment follow as isolated points.
    """
    if not lam > 0.0:
        raise InvalidSceneError("lambda must be positive")
    if not alpha >= 0.0:
        raise InvalidSceneError("alpha must be nonnegative")
    n_v = len(skeleton.vertices)
    h, s0, s1 = skeleton.h, skeleton.s[:, 0], skeleton.s[:, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        r_star = alpha * h / (h - lam)
        s_star = np.sqrt(r_star * r_star - h * h)
    whole = (h >= lam) if alpha == 0.0 else (h > lam) & (r_star <= h)
    cut = (h > lam) & ~whole
    lo = np.column_stack([s0, np.where(s_star > s0, s_star, s0)])
    hi = np.column_stack([np.where(whole | ~(-s_star < s1), s1, -s_star), s1])
    kept = np.column_stack([whole | cut & (s0 < -s_star), cut & (s1 > s_star)])
    e, side = np.nonzero(kept & ~(hi - lo <= 1e-12 * skeleton.scene.bounding_radius))
    a, b = lo[e, side], hi[e, side]
    at_v0, at_v1 = a == s0[e], b == s1[e]
    wall = skeleton.bound[e] < 0
    wall_limited = bool((at_v0 & wall[:, 0] | at_v1 & wall[:, 1]).any())

    # Keys: skeleton vertex ids, then n_v + 2 e for an edge's cut point at
    # -s* and n_v + 2 e + 1 for the one at s*; the two are one point when
    # s* rounds to 0 at 12 places.
    zero = s_star[e] < 1e-12
    zero[zero] = [round(x, 12) == 0.0 for x in s_star[e[zero]].tolist()]
    keys = np.column_stack([np.where(at_v0, skeleton.edges[e, 0], n_v + 2 * e + 1 - zero),
                            np.where(at_v1, skeleton.edges[e, 1], n_v + 2 * e)]).ravel()
    ends = np.column_stack([a, b]).ravel()
    edge = np.repeat(e, 2)
    points = skeleton.mid[edge] + ends[:, None] * skeleton.u[edge]
    at_vertex = keys < n_v
    points[at_vertex] = skeleton.vertices[keys[at_vertex]]
    used, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(order), np.intp)
    number[order] = np.arange(len(order))
    segments = number[inverse].reshape(-1, 2)

    alive = _f_alpha(skeleton.R, skeleton.F, alpha) >= lam
    alive[used[used < n_v]] = False
    lone = np.flatnonzero(alive)
    vertices = np.concatenate([points[first[order]], skeleton.vertices[lone]])
    isolated = np.arange(len(order), len(vertices))

    comp = _components(len(vertices), segments)

    flags = list(skeleton.flags)
    if wall_limited:
        flags.append("wall-limited")
    if len(vertices) == 0:
        flags.append("empty-axis")
    return FilteredAxis(lam=float(lam), alpha=float(alpha), vertices=vertices,
                        segments=segments, isolated=isolated,
                        component_ids=comp, flags=tuple(flags))


def axis_membership(scene: SiteScene, x, lam: float, alpha: float) -> bool:
    """Field-oracle membership test, independent of the skeleton construction."""
    try:
        sample = eval_field(scene, x, alpha=alpha)
    except OffsetDomainError:
        return False
    return sample.F_alpha >= lam


def axis_to_json(axis: FilteredAxis) -> str:
    # ``tolist`` floats repr with 17 significant digits at most: exact round trip
    payload = {
        "lambda": axis.lam,
        "alpha": axis.alpha,
        "vertices": axis.vertices.tolist(),
        "segments": axis.segments.tolist(),
        "isolated": axis.isolated_points.tolist(),
        "components": axis.component_ids.tolist(),
        "flags": list(axis.flags),
    }
    return json.dumps(payload)
