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

The sites of a d >= 3 scene that span a plane through the origin have the
skeleton of their plane coordinates; ``exact_critical_function`` and
``scene_r_max`` lift its features off the plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, QhullError, cKDTree

from .scene import (InvalidSceneError, OffsetDomainError, SiteScene, _check_real, _dot, _nearest,
                    _row_norms, _seb_stack, _wall_points)
from .field import CriticalProfile, _check_levels, _f_alpha, _grad_norm, eval_field

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


def _vertex_field(scene: SiteScene, vertices: np.ndarray, rho: np.ndarray):
    """R and F (n,) of the vertices, of which ``rho`` (n,) are distances to
    a site each, as the kernel gives them from every site within its cut.

    R <= rho, so the cut R (1 + tie) lies within rho (1 + tie): the KD-tree
    ball of that radius, a hair wider for the tree's rounding, holds every
    site in the cut and the nearest one.  Each row is measured against its
    ball's sites, ascending and padded with the last to a power of two (at
    least 4), one group per width: the usual 2 to 4 sites take one group,
    and memory stays within twice the balls' total size."""
    reach = rho * ((1.0 + scene.tie_tolerance) * (1.0 + 1e-12))
    found = cKDTree(scene.sites).query_ball_point(vertices, reach, return_sorted=True)
    counts = np.fromiter(map(len, found), np.intp, len(found))
    sites = np.fromiter(chain.from_iterable(found), np.intp, counts.sum())
    first = np.cumsum(counts) - counts
    width = (2.0 ** np.ceil(np.log2(np.maximum(counts, 4)))).astype(np.intp)
    R, F = np.empty(len(vertices)), np.empty(len(vertices))
    for k in np.unique(width).tolist():
        rows = np.flatnonzero(width == k)
        cand = sites[first[rows, None] + np.minimum(np.arange(k), counts[rows, None] - 1)]
        near = _nearest(scene, vertices[rows], cand)
        mask = near.cut()
        mask[:, 1:-1] &= cand[:, 1:] != cand[:, :-1]  # the padding repeats a site
        R[rows], F[rows] = near.R, near.balls(mask)[1]
    return R, F


def build_skeleton(scene: SiteScene) -> VoronoiSkeleton:
    """Medial skeleton of the scene: Voronoi edges between sites, wall-clipped.

    Every edge is a site/site bisector interval; the wall only clips it
    (wall as clipping locus), for every site count.  Site/wall ties carry
    no edge, so a single-site scene has an empty skeleton, flagged
    ``empty-skeleton``.  Each vertex's R and F are the kernel's, within the
    scene's tie band, from the sites near it (``_vertex_field``) and the
    wall, with the same bits as a query of every site.
    """
    if scene.dim != 2:
        raise InvalidSceneError("skeleton construction is planar (d = 2)")
    pairs, mid, u, h, s, bound = _pair_edges(scene, *_delaunay_edges(scene))
    ends = (mid[:, None] + s[:, :, None] * u[:, None]).reshape(-1, 2)
    vertices, ids = _endpoint_vertices(ends, 1e-9 * scene.bounding_radius)
    # each vertex's distance to a site of the edge of its first end
    site = pairs[np.unique(ids, return_index=True)[1] // 2, 0]
    R, F = _vertex_field(scene, vertices, _row_norms(vertices - scene.sites[site]))
    return VoronoiSkeleton(scene=scene, vertices=vertices, R=R, F=F, edges=ids.reshape(-1, 2),
                           pairs=pairs, h=h, mid=mid, u=u, s=s, bound=bound,
                           flags=() if len(pairs) else ("empty-skeleton",))


# Largest distance of a site from the plane of a d >= 3 scene, relative to
# the bounding radius, for the scene to count as coplanar.
_PLANE_TOL = 1e-12


def _plane_basis(scene: SiteScene) -> np.ndarray | None:
    """Orthonormal rows (3, d) for a d >= 3 scene whose sites span a plane
    through the origin: two that span it and a normal to it; None for any
    other d >= 3 scene.

    The first row points at the site farthest from the origin, the second
    at the rest of the site farthest from that line (Gram-Schmidt), and the
    normal is the coordinate axis nearest to normal, made normal.  Every
    site must lie within ``_PLANE_TOL`` r of the plane, and that site
    farther than that from the line.  Only row products are taken (no
    LAPACK call), so the basis has the same bits whatever the linear
    algebra library.
    """
    sites, tol = scene.sites, _PLANE_TOL * scene.bounding_radius
    basis = np.zeros((3, scene.dim))
    for row in range(2):
        rest = sites - _dot(sites, basis[0])[:, None] * basis[0]
        off = _row_norms(rest)
        if not off.max() > tol:
            return None
        basis[row] = rest[np.argmax(off)] / off.max()
    axis = np.argmin(basis[0] ** 2 + basis[1] ** 2)
    basis[2, axis] = 1.0
    basis[2] -= basis[0, axis] * basis[0] + basis[1, axis] * basis[1]
    basis[2] /= np.sqrt(_dot(basis[2], basis[2]))
    off = _row_norms(rest - _dot(rest, basis[1])[:, None] * basis[1])
    return basis if off.max() <= tol else None


def _in_plane(scene: SiteScene, skeleton: VoronoiSkeleton | None):
    """The basis of the sites' plane (``_plane_basis``; None when d = 2) and
    the skeleton of the sites in its coordinates, at the scene's own
    radius: the one given, else built."""
    basis = None if scene.dim == 2 else _plane_basis(scene)
    if scene.dim > 2 and basis is None:
        raise InvalidSceneError("the exact path needs a planar scene, or sites that span a "
                                "plane through the origin within %g r" % _PLANE_TOL)
    if skeleton is None:
        skeleton = build_skeleton(scene if basis is None else SiteScene(
            _dot(scene.sites[:, None], basis[:2]), scene.bounding_radius, scene.tie_tolerance))
    return basis, skeleton


def _tops(skeleton: VoronoiSkeleton, lifted: bool) -> np.ndarray:
    """The largest R on each vertex's feature.  In the plane that is the
    vertex itself.  Lifted off the plane by z, a vertex v is a line where
    R^2 = R_v^2 + |z|^2, up to the wall |v|^2 + |z|^2 = (r - R)^2:
    R = (r^2 - |v|^2 + R_v^2) / (2 r)."""
    R = skeleton.R
    if not lifted:
        return R
    r = skeleton.scene.bounding_radius
    v = skeleton.vertices
    return np.maximum(R, (r * r - _dot(v, v) + R * R) / (2.0 * r))


def _frames(sites: np.ndarray):
    """|p|, p_hat and p_perp (p_hat turned a quarter) of planar sites; (1, 0), (0, 1) for p = 0."""
    d = _row_norms(sites)
    along = np.divide(sites, d[:, None], out=np.tile([1.0, 0.0], (len(d), 1)),
                      where=d[:, None] > 0.0)
    return d, along, np.column_stack([-along[:, 1], along[:, 0]])


def _cell_cut(skeleton: VoronoiSkeleton, a: np.ndarray, b: np.ndarray):
    """The part [lo, hi] in p's cell (none where lo > hi) of each chord
    a p_hat + beta p_perp, |beta| <= b, of the site p of its column (a, b:
    (T, m), b NaN where there is none): the half-plane |x - p|^2 <= |x - q|^2
    of each skeleton edge (p, q), as c beta <= e, cuts it.  These are enough:
    a point nearer p than the wall, or as near, that leaves p's cell crosses
    one of p's skeleton edges on the way from p (inside |x - p| + |x| < r)."""
    sites = skeleton.scene.sites
    d, along, perp = _frames(sites)
    own, other = np.concatenate([skeleton.pairs, skeleton.pairs[:, ::-1]]).T
    level, edge = np.nonzero(b[:, own] >= 0.0)  # where the chord of the edge's site exists
    own, other = own[edge], other[edge]
    g = sites[other] - sites[own]
    c = 2.0 * _dot(perp[own], g)
    e = _dot(sites[other], sites[other]) - d[own] ** 2 - 2.0 * a[level, own] * _dot(along[own], g)
    with np.errstate(invalid="ignore", divide="ignore"):
        cut = e / c
    lo, hi = -b, b.copy()
    at = level * b.shape[1] + own
    # where c = 0 the bisector is parallel to the chord: all of it or none
    np.minimum.at(hi.ravel(), at, np.where(c > 0.0, cut, np.where((c == 0.0) & (e < 0.0),
                                                                 -np.inf, np.inf)))
    np.maximum.at(lo.ravel(), at, np.where(c < 0.0, cut, -np.inf))
    return lo, hi


def _r_max(skeleton: VoronoiSkeleton, tops: np.ndarray) -> float:
    """The largest R: a vertex feature's top, or a site/wall antipodal point
    x = -(r - |p|)/2 p_hat at R = (r + |p|)/2, where p's chord shrinks to
    a point, if it lies in p's cell (``_cell_cut``)."""
    r = skeleton.scene.bounding_radius
    d = _row_norms(skeleton.scene.sites)
    lo, hi = _cell_cut(skeleton, 0.5 * (d - r)[None], np.zeros((1, len(d))))
    return max([0.0] + tops.tolist() + (0.5 * (r + d))[lo[0] <= hi[0]].tolist())


def scene_r_max(scene: SiteScene, skeleton: VoronoiSkeleton | None = None) -> float:
    """Maximum of the distance field over the domain, for a planar scene or
    one whose sites span a plane through the origin (``skeleton`` is that
    of the sites in the plane's coordinates, built when None).

    Attained either at the top of a skeleton vertex's feature (``_tops``)
    or at a site/wall antipodal point, which lies in the plane.
    """
    basis, skeleton = _in_plane(scene, skeleton)
    return _r_max(skeleton, _tops(skeleton, basis is not None))


def _site_wall_points(skeleton: VoronoiSkeleton, t: np.ndarray, lifted: bool):
    """Points where level t meets the site/wall set |x| = r - t, |x - p| = t
    of a site p: on the chord y = a p_hat + b p_perp, a = (r (r - 2t) +
    |p|^2) / (2 |p|), of the disc |y| <= r - t, |z|^2 = (r - t)^2 - |y|^2
    off the plane, cut to p's cell (``_cell_cut``).  In the plane (z = 0)
    its ends (one where they touch) are kept where the cut leaves them;
    lifted, the cut's middle stands for it (the witness ball radius is
    constant along it).  Returns plane coordinates (N, 2), |z| (N,), level
    indices and the sites (N, 1).  A site at the origin (a not finite) meets
    the wall only at t = r/2, above every level: R <= r/2 in such a scene."""
    r = skeleton.scene.bounding_radius
    d, along, perp = _frames(skeleton.scene.sites)
    with np.errstate(invalid="ignore", divide="ignore"):
        a = (r * (r - 2.0 * t[:, None]) + d * d) / (2.0 * d)
        b = np.sqrt((r - t[:, None]) ** 2 - a * a)
    lo, hi = _cell_cut(skeleton, a, b)
    b = 0.5 * (lo + hi)[None] if lifted else np.stack([b, np.where(b > 0.0, -b, np.nan)])
    end, level, k = np.nonzero((lo <= b) & (b <= hi))
    a, b = a[level, k], b[end, level, k]
    zeta = np.sqrt(np.maximum(0.0, (r - t[level]) ** 2 - a * a - b * b)) if lifted else 0.0 * a
    return a[:, None] * along[k] + b[:, None] * perp[k], zeta, level, k[:, None]


def _wall_pair_points(skeleton: VoronoiSkeleton, t: np.ndarray):
    """Points where level t meets an edge (p, q) lifted off the plane at the
    wall, where the witnesses are p, q and the wall: at
    s = (r^2 - |m|^2 + h^2 - 2 r t) / (2 m.u) inside the edge's span, and
    |z|^2 = t^2 - h^2 - s^2 off the plane (in the plane such a point is a
    skeleton vertex).  An edge whose bisector is perpendicular to m meets
    the wall at one level along a whole arc, which is not enumerated.
    Returns plane coordinates (N, 2), |z| (N,), level indices and pairs."""
    r = skeleton.scene.bounding_radius
    m, u, h = skeleton.mid, skeleton.u, skeleton.h
    with np.errstate(invalid="ignore", divide="ignore"):
        s = (r * r - _dot(m, m) + h * h - 2.0 * r * t[:, None]) / (2.0 * _dot(m, u))
    level, e = np.nonzero((skeleton.s[:, 0] <= s) & (s <= skeleton.s[:, 1]))
    s = s[level, e]
    zeta = np.sqrt(np.maximum(0.0, t[level] ** 2 - h[e] ** 2 - s * s))
    return m[e] + s[:, None] * u[e], zeta, level, skeleton.pairs[e]


# Sites times levels per chunk of the critical function's feature masks.
_CHUNK_DISTANCES = 1 << 15


def _row_chunks(scene: SiteScene, n: int) -> list:
    """Slices of n levels, each of at most ``_CHUNK_DISTANCES`` // m levels
    of an m-site scene (and at least one): a planar skeleton has about
    three edges and two vertices per site, so a chunk's level x feature
    masks stay near 5 ``_CHUNK_DISTANCES`` cells, whatever the grid."""
    step = max(1, _CHUNK_DISTANCES // len(scene.sites))
    return [slice(k, k + step) for k in range(0, n, step)]


def exact_critical_function(scene: SiteScene, t_grid,
                            skeleton: VoronoiSkeleton | None = None) -> CriticalProfile:
    """The critical function in closed form, read off the skeleton of a
    planar scene or of a scene whose sites span a plane P through the origin
    in any dimension (``skeleton`` is that of the sites in P's coordinates,
    built when None).

    The reported quantity is the paper's pointwise infimum
    chi(t) = inf {|grad R(x)| : R(x) = t} at each level t exactly, with
    |grad R| = sqrt(1 - (F/R)^2) and witness sets in the scene's tie band.
    (``field.estimate_critical_function`` approximates a band-windowed
    minimum instead: the band-widened norm over |R - t| <= band_width.)
    Off the medial set |grad R| = 1, so chi(t) = sqrt(1 - (H(t)/t)^2), where
    H(t) is the largest F over the features that level t meets.  Write
    x = y + z with y in P and z normal to it.  Then |x - p|^2 = |y - p|^2 +
    |z|^2 for every site p, so the witness sites of x are those of y and
    R^2 = rho(y)^2 + |z|^2, rho the planar site distance; in the plane
    z = 0.  The features are:

    - a site/site edge, with F = h on its R-range: from
      sqrt(h^2 + s_near^2), s_near = 0 when the span holds 0, up to
      sqrt(h^2 + s_far^2) in the plane, and lifted up to its ends' tops;
    - a skeleton vertex with its F, on the R-range from R_v up to its top
      (``_tops``: R_v itself in the plane), widened at each end by the
      scene's tie band, tie_tolerance times the end, since a vertex R is
      rounded;
    - a site/wall point of site p in p's cell, where |x| = r - t meets
      |x - p| = t (``_site_wall_points``);
    - lifted only, a point where an edge meets the wall
      (``_wall_pair_points``).

    A point's F is the radius of the ball of its known witnesses, its sites
    and then its wall point, stacked as ``eval_field`` stacks them.  A level
    that meets none has chi = 1.  ``sample_count`` counts the features met
    per level and ``band_width`` is 0.  ``reach_summary`` reads wfs and
    r_mu off either profile as first crossings on its level grid, so a
    critical value between two levels shows only through the dip of chi
    around it.  The levels must be finite, positive, strictly increasing
    and below ``scene_r_max``.
    """
    basis, skeleton = _in_plane(scene, skeleton)
    lifted = basis is not None
    tops = _tops(skeleton, lifted)
    r_max = _r_max(skeleton, tops)
    t = _check_levels(t_grid, r_max)
    found = [_site_wall_points(skeleton, t, lifted)]
    found += [_wall_pair_points(skeleton, t)] if lifted else []
    F = []
    for y, zeta, _, ids in found:
        X = y[:, :1] * basis[0] + y[:, 1:] * basis[1] + zeta[:, None] * basis[2] if lifted else y
        wall = _wall_points(scene, X, _row_norms(X))
        F.append(_seb_stack(np.concatenate([scene.sites[ids], wall[:, None]], axis=1))[1])
    level, F = np.concatenate([part[2] for part in found]), np.concatenate(F)
    # every feature as an R-range [lo, hi] with its F: edges, vertices
    # widened by the tie band, and the points, each on its own level
    h, s0, s1 = skeleton.h, skeleton.s[:, 0], skeleton.s[:, 1]
    s_near = np.maximum(0.0, np.maximum(s0, -s1))
    s_far = np.maximum(-s0, s1)
    edge_hi = tops[skeleton.edges].max(axis=1) if lifted else np.sqrt(h * h + s_far * s_far)
    tie = scene.tie_tolerance
    lo = np.concatenate([np.sqrt(h * h + s_near * s_near), skeleton.R * (1.0 - tie), t[level]])
    hi = np.concatenate([edge_hi, tops * (1.0 + tie), t[level]])
    weight = np.concatenate([h, skeleton.F, F])
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
    _check_real("lam", lam)
    _check_real("alpha", alpha, positive=False)
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
