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
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .scene import InvalidSceneError, OffsetDomainError, SiteScene, _nearest
from .field import _BATCH_DISTANCES, eval_field, eval_field_batch

__all__ = [
    "SkeletonEdge",
    "VertexData",
    "VoronoiSkeleton",
    "build_skeleton",
    "FilteredAxis",
    "filter_axis",
    "axis_membership",
    "scene_r_max",
    "axis_to_json",
]

# Qhull codes for an input it finds flat: "initial simplex is flat" and
# "initial hull is narrow".
_QHULL_FLAT = ("QH6154", "QH7089")


@dataclass(frozen=True)
class SkeletonEdge:
    v0: int
    v1: int
    pair: tuple
    h: float
    mid: np.ndarray
    u: np.ndarray
    s0: float
    s1: float
    wall0: bool
    wall1: bool


@dataclass(frozen=True)
class VertexData:
    point: np.ndarray
    witness_sites: tuple
    has_wall: bool
    R: float
    F: float


@dataclass(frozen=True)
class VoronoiSkeleton:
    scene: SiteScene
    vertices: np.ndarray
    vertex_data: list
    edges: list
    flags: tuple = ()


def _perp(v: np.ndarray) -> np.ndarray:
    return np.array([-v[1], v[0]])


def _interval_intersect(a, b):
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return (lo, hi)


def _wall_interval(scene: SiteScene, m: np.ndarray, u: np.ndarray, h: float):
    """Parameter range on the bisector where sites beat the wall.

    Solves sqrt(h^2+s^2) <= R - |m + s u| exactly: one downward condition
    quadratic plus the half-line where the squaring step was valid plus the
    inside-the-ball range.
    """
    r = scene.bounding_radius
    beta = float(m @ u)
    m2 = float(m @ m)
    a_lin = r * r + m2 - h * h

    qa = 4.0 * (r * r - beta * beta)
    qb = 4.0 * beta * (2.0 * r * r - a_lin)
    qc = 4.0 * r * r * m2 - a_lin * a_lin
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    lo = (-qb - root) / (2.0 * qa)
    hi = (-qb + root) / (2.0 * qa)
    span = (lo, hi)

    # validity of the squaring step: a_lin + 2 beta s >= 0
    if beta > 0.0:
        span = _interval_intersect(span, (-a_lin / (2.0 * beta), math.inf))
    elif beta < 0.0:
        span = _interval_intersect(span, (-math.inf, -a_lin / (2.0 * beta)))
    elif a_lin < 0.0:
        return None

    # stay inside the ball: s^2 + 2 beta s + m2 - r^2 <= 0
    disc_b = beta * beta - (m2 - r * r)
    if disc_b < 0.0:
        return None
    root_b = math.sqrt(disc_b)
    span = _interval_intersect(span, (-beta - root_b, -beta + root_b))
    if span[0] >= span[1]:
        return None
    return span


def _line_edges(sites: np.ndarray):
    """Consecutive pairs of flat (collinear) sites in order along their line.

    Their bisectors are parallel, so no site bounds another pair's
    interval; only the wall clips them.
    """
    rel = sites - sites[0]
    far = rel[int(np.argmax(np.einsum("ij,ij->i", rel, rel)))]
    order = np.argsort(rel @ far, kind="stable").tolist()
    return sorted((min(i, j), max(i, j), ()) for i, j in zip(order, order[1:]))


def _spans_all(tri: Delaunay, n: int) -> bool:
    """Whether the triangles use every site and nothing else (Qhull can drop
    nearly collinear sites, or leak its point at infinity into a triangle)."""
    return np.array_equal(np.unique(tri.simplices), np.arange(n))


def _delaunay_edges(scene: SiteScene):
    """Delaunay edges (i, j), i < j, each with the third sites of its (at
    most two) triangles.

    The wall clips bisector intervals but never creates adjacencies, so the
    edges of the site triangulation are the exact candidate set, and the
    interval of edge (i, j) ends at the circumcenters of its triangles,
    which only those third sites determine.  Flat inputs (rank < 2, or ones
    Qhull reports flat) take the sorted-line path; sites that Qhull drops
    as coplanar are kept by a joggled retriangulation.
    """
    sites = scene.sites
    if np.linalg.matrix_rank(sites - sites[0]) < 2:
        return _line_edges(sites)
    try:
        tri = Delaunay(sites)
    except QhullError as err:
        if not any(code in str(err) for code in _QHULL_FLAT):
            raise
        return _line_edges(sites)
    if not _spans_all(tri, len(sites)):
        tri = Delaunay(sites, qhull_options="QJ")
        if not _spans_all(tri, len(sites)):
            raise RuntimeError("Qhull left sites out of the joggled triangulation")
    opposite = {}
    for simplex in tri.simplices.tolist():
        for k in range(3):
            i, j = sorted((simplex[k - 2], simplex[k - 1]))
            opposite.setdefault((i, j), []).append(simplex[k])
    return [(i, j, tuple(sorted(opp))) for (i, j), opp in sorted(opposite.items())]


def _pair_edge(scene: SiteScene, i: int, j: int, opposite):
    """Clipped bisector interval for the site pair (i, j), or None.

    Each site k in ``opposite`` cuts the bisector where it becomes as close
    as p and q: a s <= b with a = 2 (k - p).u, b = |k|^2 - |p|^2 - 2 (k - p).m.
    """
    p = scene.sites[i]
    q = scene.sites[j]
    dvec = q - p
    length = float(np.linalg.norm(dvec))
    h = 0.5 * length
    m = 0.5 * (p + q)
    u = _perp(dvec) / length

    lo, lo_src = -math.inf, None
    hi, hi_src = math.inf, None
    for k in opposite:
        rel = scene.sites[k] - p
        a = 2.0 * float(rel @ u)
        b = float(scene.sites[k] @ scene.sites[k]) - float(p @ p) - 2.0 * float(rel @ m)
        if abs(a) < 1e-14 * scene.bounding_radius:
            if b < 0.0:
                return None
        elif a > 0.0 and b / a < hi:
            hi, hi_src = b / a, k
        elif a < 0.0 and b / a > lo:
            lo, lo_src = b / a, k
    if lo >= hi:
        return None

    wall = _wall_interval(scene, m, u, h)
    if wall is None:
        return None
    w_lo, w_hi = wall
    # an end's source is its bounding site, or None where the wall clips
    s0, src0 = (lo, lo_src) if lo >= w_lo else (w_lo, None)
    s1, src1 = (hi, hi_src) if hi <= w_hi else (w_hi, None)
    if s1 - s0 <= 1e-12 * scene.bounding_radius:
        return None
    return (m, u, h, s0, s1, src0, src1)


def _merge_endpoints(points, tol):
    """Assign shared ids to coincident endpoints (first occurrence wins).

    Spatial hashing on a tol-sized grid keeps this linear; a point only has
    to be compared with representatives in its own and adjacent cells.
    """
    reps = []
    ids = []
    buckets = {}
    inv = 1.0 / tol if tol > 0.0 else 0.0
    for pt in points:
        cx = int(math.floor(pt[0] * inv))
        cy = int(math.floor(pt[1] * inv))
        assigned = None
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for ri in buckets.get((gx, gy), ()):
                    rp = reps[ri]
                    if np.hypot(pt[0] - rp[0], pt[1] - rp[1]) <= tol:
                        assigned = ri
                        break
                if assigned is not None:
                    break
            if assigned is not None:
                break
        if assigned is None:
            reps.append(pt)
            assigned = len(reps) - 1
            buckets.setdefault((cx, cy), []).append(assigned)
        ids.append(assigned)
    return reps, ids


def build_skeleton(scene: SiteScene) -> VoronoiSkeleton:
    """Medial skeleton of the scene: Voronoi edges between sites, wall-clipped.

    Every edge is a site/site bisector interval; the wall only clips it
    (wall as clipping locus), for every site count.  Site/wall ties carry
    no edge, so a single-site scene has an empty skeleton, flagged
    ``empty-skeleton``.
    """
    if scene.dim != 2:
        raise InvalidSceneError("skeleton construction is planar (d = 2)")
    raw = []
    for i, j, opposite in _delaunay_edges(scene):
        got = _pair_edge(scene, i, j, opposite)
        if got is not None:
            raw.append((i, j) + got)

    endpoints = []
    for (i, j, m, u, h, s0, s1, src0, src1) in raw:
        endpoints.append(m + s0 * u)
        endpoints.append(m + s1 * u)
    tol = 1e-9 * scene.bounding_radius
    reps, ids = _merge_endpoints(endpoints, tol)

    witness_sets = [set() for _ in reps]
    wall_flags = [False] * len(reps)
    edges = []
    for e_idx, (i, j, m, u, h, s0, s1, src0, src1) in enumerate(raw):
        v0, v1 = ids[2 * e_idx], ids[2 * e_idx + 1]
        for vid, src in ((v0, src0), (v1, src1)):
            witness_sets[vid].update((i, j) if src is None else (i, j, src))
            wall_flags[vid] = wall_flags[vid] or src is None
        edges.append(SkeletonEdge(v0=v0, v1=v1, pair=(i, j), h=h, mid=m, u=u, s0=s0, s1=s1,
                                  wall0=src0 is None, wall1=src1 is None))

    vertices = np.array(reps) if reps else np.empty((0, 2))
    data = []
    # Chunks of 1/32 of a march batch: whole batches raised the peak memory
    # of a 2000-site axis run by 7 MiB (freed blocks stay in the heap).
    chunk = max(1, (_BATCH_DISTANCES // 32) // len(scene.sites))
    for k in range(0, len(reps), chunk):
        got = eval_field_batch(scene, vertices[k:k + chunk])
        for vid, r_val, f_val in zip(range(k, len(reps)), got["R"].tolist(), got["F"].tolist()):
            data.append(VertexData(point=np.asarray(reps[vid]),
                                   witness_sites=tuple(sorted(witness_sets[vid])),
                                   has_wall=wall_flags[vid], R=r_val, F=f_val))
    flags = () if raw else ("empty-skeleton",)
    return VoronoiSkeleton(scene=scene, vertices=vertices, vertex_data=data,
                           edges=edges, flags=flags)


def scene_r_max(scene: SiteScene, skeleton: VoronoiSkeleton | None = None) -> float:
    """Maximum of the distance field over the domain (planar scenes).

    Attained either at a skeleton vertex or at a site/wall antipodal point
    x = -(r - |p|)/2 * p_hat, which is valid only when no other site is closer.
    """
    if scene.dim != 2:
        raise InvalidSceneError("exact maximal distance value needs a planar scene")
    if skeleton is None:
        skeleton = build_skeleton(scene)
    best = 0.0
    for vd in skeleton.vertex_data:
        best = max(best, vd.R)
    r = scene.bounding_radius
    for p in scene.sites:
        np_ = float(np.linalg.norm(p))
        cand = 0.5 * (r + np_)
        if np_ > 0.0:
            x = -p * (0.5 * (r - np_) / np_)
        else:
            x = np.array([-0.5 * r, 0.0])
        if _nearest(scene, x[None]).d_sites.min() >= cand * (1.0 - 1e-12):
            best = max(best, cand)
    return best


# --- filtration ---------------------------------------------------------

@dataclass(frozen=True)
class FilteredAxis:
    lam: float
    alpha: float
    vertices: np.ndarray
    segments: np.ndarray
    segment_data: np.ndarray
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


class _AxisAccumulator:
    def __init__(self):
        self.points = []
        self.segments = []
        self.seg_data = []
        self.key_of = {}

    def vertex(self, key, point):
        if key not in self.key_of:
            self.key_of[key] = len(self.points)
            self.points.append(np.asarray(point, float))
        return self.key_of[key]

    def segment(self, ia, ib, data_a, data_b):
        self.segments.append((ia, ib))
        self.seg_data.append((data_a, data_b))


def _edge_values(h: float, alpha: float, s: float):
    r_val = math.hypot(h, s)
    f_alpha = (r_val - alpha) / r_val * h
    return (r_val, h, f_alpha)


def _kept_spans(h: float, alpha: float, lam: float, s0: float, s1: float):
    """Sub-intervals of [s0, s1] where the edge passes the filter."""
    if alpha == 0.0:
        return [(s0, s1)] if h >= lam else []
    if h <= lam:
        return []
    r_star = alpha * h / (h - lam)
    if r_star <= h:
        return [(s0, s1)]
    s_star = math.sqrt(r_star * r_star - h * h)
    spans = []
    if s0 < -s_star:
        spans.append((s0, min(s1, -s_star)))
    if s1 > s_star:
        spans.append((max(s0, s_star), s1))
    return [(a, b) for a, b in spans if b > a]


def _union_components(n: int, pairs) -> np.ndarray:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    roots = {}
    out = np.empty(n, int)
    for i in range(n):
        r = find(i)
        if r not in roots:
            roots[r] = len(roots)
        out[i] = roots[r]
    return out


def filter_axis(skeleton: VoronoiSkeleton, lam: float, alpha: float) -> FilteredAxis:
    """Retain the part of the skeleton where F_alpha >= lambda (closed form)."""
    if lam <= 0.0:
        raise InvalidSceneError("lambda must be positive")
    if alpha < 0.0:
        raise InvalidSceneError("alpha must be nonnegative")
    scene = skeleton.scene
    acc = _AxisAccumulator()
    flags = list(skeleton.flags)
    tol_len = 1e-12 * scene.bounding_radius

    vertex_surv = [vid for vid, vd in enumerate(skeleton.vertex_data)
                   if vd.R > alpha and (vd.R - alpha) / vd.R * vd.F >= lam]

    wall_limited = False
    for e_idx, edge in enumerate(skeleton.edges):
        spans = _kept_spans(edge.h, alpha, lam, edge.s0, edge.s1)
        for (a, b) in spans:
            if b - a <= tol_len:
                continue
            if (a == edge.s0 and edge.wall0) or (b == edge.s1 and edge.wall1):
                wall_limited = True
            if a == edge.s0:
                ia = acc.vertex(("v", edge.v0), skeleton.vertices[edge.v0])
            else:
                ia = acc.vertex(("c", e_idx, round(a, 12)), edge.mid + a * edge.u)
            if b == edge.s1:
                ib = acc.vertex(("v", edge.v1), skeleton.vertices[edge.v1])
            else:
                ib = acc.vertex(("c", e_idx, round(b, 12)), edge.mid + b * edge.u)
            acc.segment(ia, ib, _edge_values(edge.h, alpha, a), _edge_values(edge.h, alpha, b))

    used = {i for seg in acc.segments for i in seg}
    isolated = []
    for vid in vertex_surv:
        key = ("v", vid)
        if key in acc.key_of and acc.key_of[key] in used:
            continue
        idx = acc.vertex(key, skeleton.vertices[vid])
        isolated.append(idx)

    n = len(acc.points)
    vertices = np.array(acc.points) if n else np.empty((0, 2))
    segments = np.array(acc.segments, int) if acc.segments else np.empty((0, 2), int)
    seg_data = np.array(acc.seg_data) if acc.seg_data else np.empty((0, 2, 3))
    comp = _union_components(n, acc.segments)
    if wall_limited:
        flags.append("wall-limited")
    if n == 0:
        flags.append("empty-axis")
    return FilteredAxis(lam=float(lam), alpha=float(alpha), vertices=vertices,
                        segments=segments, segment_data=seg_data,
                        isolated=np.array(sorted(isolated), int),
                        component_ids=comp, flags=tuple(flags))


def axis_membership(scene: SiteScene, x, lam: float, alpha: float) -> bool:
    """Field-oracle membership test, independent of the skeleton construction."""
    try:
        sample = eval_field(scene, x, alpha=alpha)
    except OffsetDomainError:
        return False
    return sample.F_alpha >= lam


def axis_to_json(axis: FilteredAxis) -> str:
    payload = {
        "lambda": axis.lam,
        "alpha": axis.alpha,
        "vertices": [[float(f"{c:.17g}") for c in row] for row in axis.vertices],
        "segments": [[int(a), int(b)] for a, b in axis.segments],
        "isolated": [[float(f"{c:.17g}") for c in row] for row in axis.isolated_points],
        "components": [int(c) for c in axis.component_ids],
        "flags": list(axis.flags),
    }
    return json.dumps(payload)
