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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .scene import InvalidSceneError, OffsetDomainError, SiteScene, _nearest
from .field import eval_field

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

_SINGLE_SITE_SEGMENTS = 720


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
    kind: str
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


def _candidate_pairs(scene: SiteScene):
    """Site pairs that can carry a nonempty bisector interval.

    Two sites share a bisector piece only if their cells touch in the
    diagram of the sites alone (the wall clips intervals, it never creates
    new adjacencies), so triangulation neighbors are the exact candidate
    set.  Small or degenerate (e.g. collinear) inputs fall back to all
    pairs, where the interval test itself does the pruning.
    """
    n = len(scene.sites)
    if n > 4:
        try:
            from scipy.spatial import Delaunay

            tri = Delaunay(scene.sites)
            pairs = set()
            for simplex in tri.simplices:
                for a in range(3):
                    for b in range(a + 1, 3):
                        u, v = int(simplex[a]), int(simplex[b])
                        pairs.add((u, v) if u < v else (v, u))
            return sorted(pairs)
        except Exception:
            pass
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _pair_edge(scene: SiteScene, i: int, j: int):
    """Clipped bisector interval for the site pair (i, j), or None."""
    p = scene.sites[i]
    q = scene.sites[j]
    dvec = q - p
    length = float(np.linalg.norm(dvec))
    h = 0.5 * length
    m = 0.5 * (p + q)
    u = _perp(dvec) / length

    lo, lo_src = -math.inf, None
    hi, hi_src = math.inf, None
    others = np.ones(len(scene.sites), dtype=bool)
    others[i] = others[j] = False
    if others.any():
        rel = scene.sites - p
        a = 2.0 * (rel @ u)
        b = np.einsum("ij,ij->i", scene.sites, scene.sites) - float(p @ p) \
            - 2.0 * (rel @ m)
        degenerate = np.abs(a) < 1e-14 * scene.bounding_radius
        if bool(np.any(others & degenerate & (b < 0.0))):
            return None
        upper = others & ~degenerate & (a > 0.0)
        lower = others & ~degenerate & (a < 0.0)
        if upper.any():
            bounds = np.where(upper, b / np.where(upper, a, 1.0), math.inf)
            k_hi = int(np.argmin(bounds))
            if bounds[k_hi] < hi:
                hi, hi_src = float(bounds[k_hi]), k_hi
        if lower.any():
            bounds = np.where(lower, b / np.where(lower, a, 1.0), -math.inf)
            k_lo = int(np.argmax(bounds))
            if bounds[k_lo] > lo:
                lo, lo_src = float(bounds[k_lo]), k_lo
    if lo >= hi:
        return None

    wall = _wall_interval(scene, m, u, h)
    if wall is None:
        return None
    w_lo, w_hi = wall
    s0, src0 = (lo, ("site", lo_src)) if lo >= w_lo else (w_lo, ("wall", None))
    s1, src1 = (hi, ("site", hi_src)) if hi <= w_hi else (w_hi, ("wall", None))
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


def _single_site_skeleton(scene: SiteScene) -> VoronoiSkeleton:
    # Site/wall bisector: ellipse with foci at the origin and the site,
    # distance sum equal to the bounding radius (a circle for a central site).
    a = scene.sites[0]
    r = scene.bounding_radius
    na = float(np.linalg.norm(a))
    e1 = a / na if na > 0.0 else np.array([1.0, 0.0])
    e2 = _perp(e1)
    center = 0.5 * a
    ax_major = 0.5 * r
    ax_minor = math.sqrt(max(ax_major * ax_major - 0.25 * na * na, 0.0))
    theta = 2.0 * math.pi * np.arange(_SINGLE_SITE_SEGMENTS) / _SINGLE_SITE_SEGMENTS
    pts = center + np.outer(ax_major * np.cos(theta), e1) + np.outer(ax_minor * np.sin(theta), e2)

    data = []
    for pt in pts:
        sample = eval_field(scene, pt)
        data.append(VertexData(point=pt, witness_sites=(0,), has_wall=True,
                               R=sample.R, F=sample.F))
    edges = []
    n = len(pts)
    for k in range(n):
        edges.append(SkeletonEdge(v0=k, v1=(k + 1) % n, pair=(0, -1), h=float("nan"),
                                  mid=pts[k], u=pts[(k + 1) % n] - pts[k],
                                  s0=0.0, s1=1.0, wall0=False, wall1=False))
    return VoronoiSkeleton(scene=scene, vertices=pts, vertex_data=data,
                           edges=edges, kind="single-site")


def build_skeleton(scene: SiteScene) -> VoronoiSkeleton:
    """Medial skeleton of the scene: Voronoi edges between sites, wall-clipped.

    Portions of the medial structure where a site ties with the wall are
    excluded (wall as clipping locus); a single-site scene degenerates to the
    discretized site/wall bisector curve.
    """
    if scene.dim != 2:
        raise InvalidSceneError("skeleton construction is planar (d = 2)")
    if len(scene.sites) == 1:
        return _single_site_skeleton(scene)

    raw = []
    for i, j in _candidate_pairs(scene):
        got = _pair_edge(scene, i, j)
        if got is not None:
            raw.append((i, j) + got)

    endpoints = []
    meta = []
    for (i, j, m, u, h, s0, s1, src0, src1) in raw:
        endpoints.append(m + s0 * u)
        endpoints.append(m + s1 * u)
        meta.append((i, j, m, u, h, s0, s1, src0, src1))
    tol = 1e-9 * scene.bounding_radius
    reps, ids = _merge_endpoints(endpoints, tol)

    witness_sets = [set() for _ in reps]
    wall_flags = [False] * len(reps)
    for e_idx, (i, j, m, u, h, s0, s1, src0, src1) in enumerate(meta):
        for slot, src in ((2 * e_idx, src0), (2 * e_idx + 1, src1)):
            vid = ids[slot]
            witness_sets[vid].update((i, j))
            kind, extra = src
            if kind == "site":
                witness_sets[vid].add(extra)
            else:
                wall_flags[vid] = True

    vertices = np.array(reps) if reps else np.empty((0, 2))
    data = []
    for vid, pt in enumerate(reps):
        sample = eval_field(scene, np.asarray(pt))
        data.append(VertexData(point=np.asarray(pt),
                               witness_sites=tuple(sorted(witness_sets[vid])),
                               has_wall=wall_flags[vid],
                               R=sample.R, F=sample.F))
    edges = []
    for e_idx, (i, j, m, u, h, s0, s1, src0, src1) in enumerate(meta):
        edges.append(SkeletonEdge(v0=ids[2 * e_idx], v1=ids[2 * e_idx + 1],
                                  pair=(i, j), h=h, mid=m, u=u, s0=s0, s1=s1,
                                  wall0=(src0[0] == "wall"), wall1=(src1[0] == "wall")))
    flags = () if raw else ("empty-skeleton",)
    return VoronoiSkeleton(scene=scene, vertices=vertices, vertex_data=data,
                           edges=edges, kind="voronoi", flags=flags)


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
        self.data = {}
        self.segments = []
        self.seg_data = []
        self.key_of = {}

    def vertex(self, key, point, rfa):
        if key not in self.key_of:
            self.key_of[key] = len(self.points)
            self.points.append(np.asarray(point, float))
            self.data[self.key_of[key]] = rfa
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


def _filter_voronoi(skeleton: VoronoiSkeleton, lam: float, alpha: float) -> FilteredAxis:
    scene = skeleton.scene
    acc = _AxisAccumulator()
    flags = list(skeleton.flags)
    tol_len = 1e-12 * scene.bounding_radius

    vertex_surv = {}
    for vid, vd in enumerate(skeleton.vertex_data):
        if vd.R <= alpha:
            continue
        f_alpha = (vd.R - alpha) / vd.R * vd.F
        if f_alpha >= lam:
            vertex_surv[vid] = (vd.R, vd.F, f_alpha)

    wall_limited = False
    for e_idx, edge in enumerate(skeleton.edges):
        spans = _kept_spans(edge.h, alpha, lam, edge.s0, edge.s1)
        for (a, b) in spans:
            if b - a <= tol_len:
                continue
            if (a == edge.s0 and edge.wall0) or (b == edge.s1 and edge.wall1):
                wall_limited = True
            if a == edge.s0:
                ia = acc.vertex(("v", edge.v0), skeleton.vertices[edge.v0],
                                vertex_surv.get(edge.v0))
            else:
                ia = acc.vertex(("c", e_idx, round(a, 12)), edge.mid + a * edge.u, None)
            if b == edge.s1:
                ib = acc.vertex(("v", edge.v1), skeleton.vertices[edge.v1],
                                vertex_surv.get(edge.v1))
            else:
                ib = acc.vertex(("c", e_idx, round(b, 12)), edge.mid + b * edge.u, None)
            acc.segment(ia, ib, _edge_values(edge.h, alpha, a), _edge_values(edge.h, alpha, b))

    used = {i for seg in acc.segments for i in seg}
    isolated = []
    for vid, rfa in vertex_surv.items():
        key = ("v", vid)
        if key in acc.key_of and acc.key_of[key] in used:
            continue
        idx = acc.vertex(key, skeleton.vertices[vid], rfa)
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


def _filter_single(skeleton: VoronoiSkeleton, lam: float, alpha: float) -> FilteredAxis:
    n = len(skeleton.vertices)
    f_alpha = np.full(n, -np.inf)
    r_vals = np.empty(n)
    f_vals = np.empty(n)
    for k, vd in enumerate(skeleton.vertex_data):
        r_vals[k] = vd.R
        f_vals[k] = vd.F
        if vd.R > alpha:
            f_alpha[k] = (vd.R - alpha) / vd.R * vd.F

    acc = _AxisAccumulator()
    for k in range(n):
        k2 = (k + 1) % n
        fa, fb = f_alpha[k], f_alpha[k2]
        pa, pb = skeleton.vertices[k], skeleton.vertices[k2]
        da = (r_vals[k], f_vals[k], fa)
        db = (r_vals[k2], f_vals[k2], fb)
        if fa >= lam and fb >= lam:
            ia = acc.vertex(("v", k), pa, da)
            ib = acc.vertex(("v", k2), pb, db)
            acc.segment(ia, ib, da, db)
        elif fa >= lam or fb >= lam:
            # linear crossing on the chord; an approximation consistent with
            # the polyline discretization of this skeleton
            t = (lam - fa) / (fb - fa)
            pc = pa + t * (pb - pa)
            dc = (r_vals[k] + t * (r_vals[k2] - r_vals[k]),
                  f_vals[k] + t * (f_vals[k2] - f_vals[k]), lam)
            if fa >= lam:
                ia = acc.vertex(("v", k), pa, da)
                ic = acc.vertex(("x", k), pc, dc)
                acc.segment(ia, ic, da, dc)
            else:
                ic = acc.vertex(("x", k), pc, dc)
                ib = acc.vertex(("v", k2), pb, db)
                acc.segment(ic, ib, dc, db)

    used = {i for seg in acc.segments for i in seg}
    isolated = []
    nv = len(acc.points)
    vertices = np.array(acc.points) if nv else np.empty((0, 2))
    segments = np.array(acc.segments, int) if acc.segments else np.empty((0, 2), int)
    seg_data = np.array(acc.seg_data) if acc.seg_data else np.empty((0, 2, 3))
    comp = _union_components(nv, acc.segments)
    flags = list(skeleton.flags) + ["single-site-polyline"]
    if nv == 0:
        flags.append("empty-axis")
    return FilteredAxis(lam=float(lam), alpha=float(alpha), vertices=vertices,
                        segments=segments, segment_data=seg_data,
                        isolated=np.array(isolated, int), component_ids=comp,
                        flags=tuple(flags))


def filter_axis(skeleton: VoronoiSkeleton, lam: float, alpha: float) -> FilteredAxis:
    """Retain the part of the skeleton where F_alpha >= lambda (closed form)."""
    if lam <= 0.0:
        raise InvalidSceneError("lambda must be positive")
    if alpha < 0.0:
        raise InvalidSceneError("alpha must be nonnegative")
    if skeleton.kind == "single-site":
        return _filter_single(skeleton, lam, alpha)
    return _filter_voronoi(skeleton, lam, alpha)


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
