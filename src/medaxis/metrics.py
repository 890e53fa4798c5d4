"""Distances between filtered axes and the closed-form stability constants.

Hausdorff distances are computed by sampling one axis at a fixed spacing and
measuring exact point-to-segment distances against the other, so the result
carries an error of at most half the sampling resolution.  Intrinsic
(geodesic) metrics live on a refined graph whose edges are straight
subsegments of the axis; shortest paths use Dijkstra on that graph.

Gromov-Hausdorff distances are never computed exactly (that would be a
global optimization); instead the nearest-neighbor relation at a given
radius is built, its surjectivity verified, and its metric distortion
estimated by sampling pairs of related points.  This mirrors how the
stability bounds are proved: one explicit relation witnesses the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .axis import FilteredAxis
from .field import ReachSummary

__all__ = [
    "sample_axis_points",
    "hausdorff_distance",
    "directed_hausdorff",
    "GeodesicGraph",
    "build_geodesic_graph",
    "geodesic",
    "geodesic_diameter",
    "Correspondence",
    "SurjectivityError",
    "gh_distortion",
    "StabilityConstants",
    "stability_constants",
]

_NODE_BUDGET = 5000


def _axis_segments(axis: FilteredAxis):
    if len(axis.segments) == 0:
        return np.empty((0, 2)), np.empty((0, 2))
    return axis.vertices[axis.segments[:, 0]], axis.vertices[axis.segments[:, 1]]


def sample_axis_points(axis: FilteredAxis, spacing: float) -> np.ndarray:
    """Points along all segments at spacing <= the given value, plus isolated
    points; segment endpoints are always included."""
    chunks = []
    a, b = _axis_segments(axis)
    for k in range(len(a)):
        seg_len = float(np.linalg.norm(b[k] - a[k]))
        n = max(1, math.ceil(seg_len / spacing))
        t = np.linspace(0.0, 1.0, n + 1)[:, None]
        chunks.append(a[k] + t * (b[k] - a[k]))
    iso = axis.isolated_points
    if len(iso):
        chunks.append(iso)
    if not chunks:
        return np.empty((0, 2))
    return np.vstack(chunks)


def _points_to_axis_dist(points: np.ndarray, axis: FilteredAxis,
                         chunk: int = 512) -> np.ndarray:
    """Exact distance from each query point to the axis point set."""
    a, b = _axis_segments(axis)
    iso = axis.isolated_points
    ab = b - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    safe = np.where(ab2 > 0.0, ab2, 1.0)
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk]
        best = np.full(len(p), np.inf)
        if len(a):
            ap = p[:, None, :] - a[None, :, :]
            t = np.clip(np.einsum("ijk,jk->ij", ap, ab) / safe, 0.0, 1.0)
            diff = ap - t[:, :, None] * ab[None, :, :]
            d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            best = d.min(axis=1)
        if len(iso):
            d_iso = np.sqrt(((p[:, None, :] - iso[None, :, :]) ** 2).sum(-1))
            best = np.minimum(best, d_iso.min(axis=1))
        out[lo:lo + chunk] = best
    return out


def directed_hausdorff(axis_a: FilteredAxis, axis_b: FilteredAxis,
                       resolution: float) -> float:
    """sup over axis_a of the distance to axis_b, sampled at the resolution.

    Values below 1e-12 of the coordinate scale collapse to zero, so a subset
    (for example a more aggressively filtered axis of the same scene) reads
    as exactly 0 rather than as projection round-off.
    """
    if axis_a.is_empty:
        return 0.0
    if axis_b.is_empty:
        return math.inf
    samples = sample_axis_points(axis_a, resolution)
    value = float(_points_to_axis_dist(samples, axis_b).max())
    scale = max(float(np.abs(samples).max()), 1.0)
    return value if value > 1e-12 * scale else 0.0


def hausdorff_distance(axis_a: FilteredAxis, axis_b: FilteredAxis,
                       resolution: float) -> float:
    """Symmetric Hausdorff distance; sampling error <= resolution/2."""
    if axis_a.is_empty and axis_b.is_empty:
        return 0.0
    return max(directed_hausdorff(axis_a, axis_b, resolution),
               directed_hausdorff(axis_b, axis_a, resolution))


# --- intrinsic metric ----------------------------------------------------

@dataclass(frozen=True)
class GeodesicGraph:
    points: np.ndarray
    matrix: csr_matrix
    component_ids: np.ndarray
    resolution: float
    flags: tuple = ()

    def __len__(self) -> int:
        return len(self.points)


def build_geodesic_graph(axis: FilteredAxis, resolution: float) -> GeodesicGraph:
    """Refine every segment so each piece is <= resolution and build the
    weighted adjacency; coarsens (with a flag) if 5000 nodes would be
    exceeded."""
    flags = []
    a, b = _axis_segments(axis)
    seg_len = np.linalg.norm(b - a, axis=1) if len(a) else np.empty(0)
    base_nodes = len(axis.vertices)
    res = resolution
    for _ in range(40):
        interior = np.maximum(np.ceil(seg_len / res).astype(int), 1) - 1
        total = base_nodes + int(interior.sum())
        if total <= _NODE_BUDGET:
            break
        res *= 1.5
        if "resolution-coarsened" not in flags:
            flags.append("resolution-coarsened")

    points = [axis.vertices.copy()] if base_nodes else [np.empty((0, 2))]
    edge_weight = {}
    next_id = base_nodes
    for k in range(len(a)):
        pieces = int(interior[k]) + 1
        ids = [int(axis.segments[k, 0])]
        if interior[k] > 0:
            t = np.arange(1, pieces)[:, None] / pieces
            points.append(a[k] + t * (b[k] - a[k]))
            ids.extend(range(next_id, next_id + interior[k]))
            next_id += int(interior[k])
        ids.append(int(axis.segments[k, 1]))
        w = seg_len[k] / pieces
        for u, v in zip(ids[:-1], ids[1:]):
            # parallel edges between the same node pair keep the shorter one
            key = (u, v) if u < v else (v, u)
            prev = edge_weight.get(key)
            if prev is None or w < prev:
                edge_weight[key] = w
    pts = np.vstack(points)
    if edge_weight:
        keys = sorted(edge_weight)
        rows = np.array([k[0] for k in keys] + [k[1] for k in keys], int)
        cols = np.array([k[1] for k in keys] + [k[0] for k in keys], int)
        weights = np.array([edge_weight[k] for k in keys] * 2, float)
    else:
        rows = np.empty(0, int)
        cols = np.empty(0, int)
        weights = np.empty(0, float)
    mat = csr_matrix((weights, (rows, cols)), shape=(len(pts), len(pts)))
    n_comp, comp = connected_components(mat, directed=False)
    # axis vertices not on any segment are genuine isolated components
    return GeodesicGraph(points=pts, matrix=mat, component_ids=comp,
                         resolution=res, flags=tuple(flags))


def _snap(graph: GeodesicGraph, p) -> int:
    d = np.linalg.norm(graph.points - np.asarray(p, float), axis=1)
    return int(np.argmin(d))


def geodesic(graph: GeodesicGraph, a, b):
    """Shortest path between the graph nodes nearest to a and b.

    Returns (length, polyline); disconnected endpoints give (inf, empty).
    """
    ia, ib = _snap(graph, a), _snap(graph, b)
    dist, pred = dijkstra(graph.matrix, directed=False, indices=ia,
                          return_predecessors=True)
    length = float(dist[ib])
    if not math.isfinite(length):
        return math.inf, np.empty((0, 2))
    path = [ib]
    while path[-1] != ia:
        path.append(int(pred[path[-1]]))
    return length, graph.points[path[::-1]]


def geodesic_diameter(graph: GeodesicGraph, chunk: int = 256) -> float:
    """Max pairwise shortest-path length; inf if the graph is disconnected."""
    n = len(graph.points)
    if n == 0:
        return 0.0
    if graph.component_ids.max() != graph.component_ids.min():
        return math.inf
    best = 0.0
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        dist = dijkstra(graph.matrix, directed=False, indices=idx)
        best = max(best, float(dist.max()))
    return best


# --- Gromov-Hausdorff distortion of the proximity relation ---------------

class SurjectivityError(ValueError):
    """The proximity relation fails to cover one of the axes."""


@dataclass(frozen=True)
class Correspondence:
    radius: float
    n_a: int
    n_b: int
    n_pairs: int
    pairs_a: np.ndarray
    pairs_b: np.ndarray
    exhaustive: bool
    flags: tuple = ()


def _pair_distance_matrix(graph: GeodesicGraph, sources: np.ndarray) -> np.ndarray:
    out = np.empty((len(sources), len(graph.points)))
    for lo in range(0, len(sources), 256):
        out[lo:lo + 256] = dijkstra(graph.matrix, directed=False,
                                    indices=sources[lo:lo + 256])
    return out


def gh_distortion(axis_a: FilteredAxis, axis_b: FilteredAxis, radius: float,
                  sample_pairs: int = 2000, resolution: float = 0.01,
                  seed: int = 0):
    """Distortion of the all-pairs-within-radius relation between two axes.

    Builds refined graphs, checks the relation is surjective both ways
    (raising SurjectivityError naming uncovered nodes otherwise), and
    estimates sup |d_A(a,a') - d_B(b,b')| over related pairs by sampling
    4-tuples; exhaustive when the relation is small enough.
    """
    ga = build_geodesic_graph(axis_a, resolution)
    gb = build_geodesic_graph(axis_b, resolution)
    flags = list(ga.flags) + list(gb.flags)
    tree_a = cKDTree(ga.points)
    tree_b = cKDTree(gb.points)

    cnt_a = tree_b.query_ball_point(ga.points, radius, return_length=True)
    cnt_b = tree_a.query_ball_point(gb.points, radius, return_length=True)
    uncovered_a = np.nonzero(cnt_a == 0)[0]
    uncovered_b = np.nonzero(cnt_b == 0)[0]
    if len(uncovered_a) or len(uncovered_b):
        raise SurjectivityError(
            "proximity relation at radius %g is not surjective: %d uncovered "
            "nodes in the first axis (e.g. %s), %d in the second (e.g. %s)"
            % (radius, len(uncovered_a),
               ga.points[uncovered_a[:3]].tolist() if len(uncovered_a) else "-",
               len(uncovered_b),
               gb.points[uncovered_b[:3]].tolist() if len(uncovered_b) else "-"))

    total_pairs = int(cnt_a.sum())
    rng = np.random.default_rng(seed)
    if total_pairs * total_pairs <= sample_pairs:
        rows = tree_b.query_ball_point(ga.points, radius)
        pa, pb = [], []
        for i, row in enumerate(rows):
            for j in sorted(row):
                pa.append(i)
                pb.append(j)
        pa = np.array(pa, int)
        pb = np.array(pb, int)
        idx1, idx2 = np.meshgrid(np.arange(len(pa)), np.arange(len(pa)),
                                 indexing="ij")
        idx1 = idx1.ravel()
        idx2 = idx2.ravel()
        exhaustive = True
    else:
        prob = cnt_a / total_pairs
        draws = rng.choice(len(ga.points), size=2 * sample_pairs, p=prob)
        pa = draws
        pb = np.empty(2 * sample_pairs, int)
        for k, i in enumerate(draws):
            row = tree_b.query_ball_point(ga.points[i], radius)
            pb[k] = row[rng.integers(0, len(row))]
        idx1 = np.arange(sample_pairs)
        idx2 = np.arange(sample_pairs, 2 * sample_pairs)
        exhaustive = False

    src_a = np.unique(pa)
    src_b = np.unique(pb)
    da_all = _pair_distance_matrix(ga, src_a)
    db_all = _pair_distance_matrix(gb, src_b)
    row_a = {int(v): k for k, v in enumerate(src_a)}
    row_b = {int(v): k for k, v in enumerate(src_b)}
    ra = np.array([row_a[int(v)] for v in pa[idx1]], int)
    rb = np.array([row_b[int(v)] for v in pb[idx1]], int)
    da = da_all[ra, pa[idx2]]
    db = db_all[rb, pb[idx2]]

    both_inf = np.isinf(da) & np.isinf(db)
    with np.errstate(invalid="ignore"):
        gaps = np.abs(da - db)
    gaps[both_inf] = 0.0
    if np.isinf(gaps).any():
        flags.append("disconnected-pair")
    distortion = float(gaps.max()) if len(gaps) else 0.0
    corr = Correspondence(radius=float(radius), n_a=len(ga.points),
                          n_b=len(gb.points), n_pairs=total_pairs,
                          pairs_a=pa, pairs_b=pb, exhaustive=exhaustive,
                          flags=tuple(flags))
    return distortion, corr


# --- closed-form stability constants --------------------------------------

@dataclass(frozen=True)
class StabilityConstants:
    r_max: float
    mu: float
    mu_tilde: float
    alpha: float
    lam: float
    delta: float
    epsilon: float
    t_lambda: float
    t_alpha: float
    c: float
    lip_lambda: float
    lip_alpha: float
    gh_lambda_bound: float
    gh_alpha_bound: float
    gh_term_flow: float
    gh_term_near: float
    gh_term_diam: float
    gh_bound: float
    entry_bound: float
    hausdorff_bound: float
    gdiam_bound: float
    universal_gdiam_bound: float
    diam_used: float
    hypothesis_flags: dict = field(default_factory=dict)
    hypotheses_met: bool = False


def _safe_exp(x: float) -> float:
    """exp that saturates to inf instead of raising; large exponents only
    occur when a smallness hypothesis already failed."""
    return math.exp(x) if x < 700.0 else float("inf")


def stability_constants(summary: ReachSummary, delta: float, epsilon: float,
                        gdiam_a: float | None = None,
                        gdiam_b: float | None = None,
                        r_bound: float | None = None,
                        mu_tilde_half: float | None = None,
                        dim: int = 2) -> StabilityConstants:
    """All closed-form constants of the stability theory from one measured
    critical-function summary.

    T_lambda = R_max^2 d / (a l mt^2) and T_alpha = R_max d / (a mt^2) are
    the flow times that absorb a filter shift of d; C = (22/3) R_max^2 /
    (a^(1/2) mt^(3/2) l) drives the Holder-1/2 Hausdorff and Holder-1/4 GH
    bounds.  Diameter-dependent bounds use the measured diameters passed in;
    the universal (dimension-dependent) diameter bound is reported alongside
    but is too pessimistic to assert.  Hypothesis flags record each
    smallness precondition; bounds are only meaningful where they pass.
    """
    r_max = summary.r_max
    mu = summary.mu
    mt = summary.mu_tilde
    alpha = summary.alpha
    lam = summary.lam
    nan = float("nan")

    diams = [g for g in (gdiam_a, gdiam_b) if g is not None]
    diam = max(diams) if diams else nan

    flags = {}
    flags["mu-tilde-defined"] = bool(math.isfinite(mt)) and mt > 0.0
    flags["reach-exceeds-filter"] = bool(math.isfinite(summary.r_mu_alpha)
                                         and summary.r_mu_alpha > alpha + lam)
    flags["reach-exceeds-filter-plus-delta"] = bool(
        math.isfinite(summary.r_mu_alpha)
        and summary.r_mu_alpha > alpha + lam + delta)
    flags["delta-below-lambda"] = bool(delta < lam)

    if flags["mu-tilde-defined"]:
        t_lambda = r_max ** 2 * delta / (alpha * lam * mt ** 2)
        t_alpha = r_max * delta / (alpha * mt ** 2)
        c = (22.0 / 3.0) * r_max ** 2 / (alpha ** 0.5 * mt ** 1.5 * lam)
        lip_lambda = r_max ** 2 / (alpha * lam * mt ** 2)
        lip_alpha = r_max / (alpha * mt ** 2)
        entry_bound = 8.0 * r_max ** 2 * epsilon / ((2.0 * lam - delta) * delta * mt)
        hausdorff_bound = c * math.sqrt(epsilon)
        t_gh = c ** 1.5 * epsilon ** 0.25
        growth = _safe_exp(t_gh / alpha)
        gh_term_flow = 2.0 * t_gh
        gh_term_near = 2.0 * c * math.sqrt(epsilon) * growth
        gh_term_diam = diam * (growth - 1.0)
        gh_bound = gh_term_flow + gh_term_near + gh_term_diam
        gh_lambda_bound = 2.0 * t_lambda + diam * (_safe_exp(t_lambda / alpha) - 1.0)
        gh_alpha_bound = 2.0 * t_alpha + diam * (_safe_exp(t_alpha / alpha) - 1.0)

        mt_h = mu_tilde_half if mu_tilde_half is not None else mt
        if math.isfinite(mt_h) and mt_h > 0.0 and r_bound is not None:
            l_offset = (alpha / mu
                        + alpha * ((8.0 * r_bound / alpha) ** dim + 1.0)
                        * _safe_exp(1.0 / (2.0 * mu)))
            gdiam_bound = (2.0 * r_max / mt_h ** 2
                           + l_offset * _safe_exp(r_max / (alpha * mt_h ** 2)))
        else:
            gdiam_bound = nan
        universal = (2.0 * r_max / mt ** 2
                     + 2.0 * alpha * ((4.0 * r_max / alpha) ** dim + 1.0 + 2.0 / mu)
                     * _safe_exp(1.0 / mu + r_max / (alpha * mt ** 2)))
    else:
        t_lambda = t_alpha = c = lip_lambda = lip_alpha = nan
        entry_bound = hausdorff_bound = nan
        gh_term_flow = gh_term_near = gh_term_diam = gh_bound = nan
        gh_lambda_bound = gh_alpha_bound = nan
        gdiam_bound = universal = nan

    if flags["mu-tilde-defined"]:
        delta_star = 2.0 * math.sqrt(alpha * mt * epsilon)
        flags["perturb-epsilon-small"] = bool(
            delta_star < lam
            and epsilon < 2.0 * alpha
            and epsilon < (2.0 * lam - delta_star) * delta_star / (8.0 * r_max)
            and epsilon < lam ** 2 / (16.0 * alpha * mt))
        flags["entry-epsilon-small"] = bool(
            delta < lam
            and epsilon < 2.0 * alpha
            and epsilon < (2.0 * lam - delta) * delta / (8.0 * r_max))
        six = min(lam ** 2 * alpha * mt / (16.0 * r_max ** 2),
                  lam ** 2 / (16.0 * alpha * mt),
                  9.0 * lam ** 4 * alpha * mt ** 3 / (400.0 * r_max ** 4),
                  (2.0 * alpha / c) ** 2,
                  (lam ** 2 * alpha * mt / (16.0 * r_max ** 2 * c)) ** 2,
                  (lam ** 2 / (16.0 * alpha * mt * c)) ** 2)
        flags["gh-epsilon-small"] = bool(epsilon < six)
    else:
        flags["perturb-epsilon-small"] = False
        flags["entry-epsilon-small"] = False
        flags["gh-epsilon-small"] = False

    return StabilityConstants(
        r_max=r_max, mu=mu, mu_tilde=mt, alpha=alpha, lam=lam,
        delta=float(delta), epsilon=float(epsilon),
        t_lambda=t_lambda, t_alpha=t_alpha, c=c,
        lip_lambda=lip_lambda, lip_alpha=lip_alpha,
        gh_lambda_bound=gh_lambda_bound, gh_alpha_bound=gh_alpha_bound,
        gh_term_flow=gh_term_flow, gh_term_near=gh_term_near,
        gh_term_diam=gh_term_diam, gh_bound=gh_bound,
        entry_bound=entry_bound, hausdorff_bound=hausdorff_bound,
        gdiam_bound=gdiam_bound, universal_gdiam_bound=universal,
        diam_used=diam, hypothesis_flags=flags,
        hypotheses_met=bool(all(flags.values())))
