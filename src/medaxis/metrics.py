"""Distances between filtered axes and the closed-form stability constants.

Hausdorff distances are computed by sampling one axis at a fixed spacing and
measuring exact point-to-segment distances against the other, so the result
carries an error of at most half the sampling resolution.  The intrinsic
(geodesic) metric is exact: the axis is a graph of straight segments, so the
distance between two axis points is an offset to an end of each point's
segment plus a shortest path between axis vertices, taken from one all-pairs
table over the vertices.

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
from scipy.sparse.csgraph import dijkstra
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


def _pieces(axis: FilteredAxis):
    """End vertices (K, 2) and lengths of the axis's segments, followed by
    (i, i) and length 0 for each isolated point i."""
    ends = np.vstack([axis.segments, np.stack([axis.isolated, axis.isolated], axis=1)])
    a, b = axis.vertices[ends[:, 0]], axis.vertices[ends[:, 1]]
    return ends, np.linalg.norm(b - a, axis=1)


def _axis_samples(axis: FilteredAxis, spacing: float):
    """Every vertex, then the interior points of each segment at spacing <=
    the given value.

    Returns (points, ends, offsets, seg): for each point the end vertices
    (u, v) of its segment, its distances (du, dv) to them and the segment id,
    which is -1 for a vertex (then u = v and du = dv = 0).
    """
    ends, length = _pieces(axis)  # an isolated point has no interior
    a, b = axis.vertices[ends[:, 0]], axis.vertices[ends[:, 1]]
    pieces = np.maximum(np.ceil(length / spacing).astype(int), 1)
    inner = pieces - 1
    seg = np.repeat(np.arange(len(ends)), inner)
    j = np.arange(len(seg)) - np.repeat(np.cumsum(inner) - inner, inner) + 1
    t = j / pieces[seg]
    verts = np.arange(len(axis.vertices))
    points = np.vstack([axis.vertices, a[seg] + t[:, None] * (b[seg] - a[seg])])
    offsets = np.vstack([np.zeros((len(verts), 2)),
                         np.stack([t * length[seg], (1.0 - t) * length[seg]], axis=1)])
    return (points, np.vstack([np.stack([verts, verts], axis=1), ends[seg]]),
            offsets, np.concatenate([np.full(len(verts), -1), seg]))


def sample_axis_points(axis: FilteredAxis, spacing: float) -> np.ndarray:
    """Every axis vertex (segment ends and isolated points), then points
    along each segment at spacing <= the given value."""
    return _axis_samples(axis, spacing)[0]


def _project(points: np.ndarray, axis: FilteredAxis, chunk: int = 512):
    """Nearest axis point to each query point: its distance, its piece (an
    index into ``_pieces``) and its parameter t in [0, 1] along the piece."""
    ends, _ = _pieces(axis)
    a = axis.vertices[ends[:, 0]]
    ab = axis.vertices[ends[:, 1]] - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    safe = np.where(ab2 > 0.0, ab2, 1.0)
    dist = np.empty(len(points))
    piece = np.empty(len(points), int)
    param = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        ap = points[lo:lo + chunk, None, :] - a[None, :, :]
        t = np.clip(np.einsum("ijk,jk->ij", ap, ab) / safe, 0.0, 1.0)
        diff = ap - t[:, :, None] * ab[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        k = d.argmin(axis=1)
        rows = np.arange(len(k))
        dist[lo:lo + chunk] = d[rows, k]
        piece[lo:lo + chunk] = k
        param[lo:lo + chunk] = t[rows, k]
    return dist, piece, param


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
    value = float(_project(samples, axis_b)[0].max())
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
    """An axis with the shortest-path lengths ``dist`` (V x V, inf between
    components) and the predecessor table ``pred`` over its vertices."""
    axis: FilteredAxis
    dist: np.ndarray
    pred: np.ndarray
    flags: tuple = ()

    def __len__(self) -> int:
        return len(self.dist)


def build_geodesic_graph(axis: FilteredAxis) -> GeodesicGraph:
    """All-pairs shortest paths over the axis vertices, each segment an edge
    weighted by its length (two segments never share both ends)."""
    ends, length = _pieces(axis)
    n = len(axis.vertices)
    mat = csr_matrix((length, (ends[:, 0], ends[:, 1])), shape=(n, n))
    dist, pred = dijkstra(mat, directed=False, return_predecessors=True)
    return GeodesicGraph(axis=axis, dist=dist, pred=pred)


def _pair_lengths(graph: GeodesicGraph, ends, offsets, seg, i, j):
    """Exact geodesic lengths between points i[k] and j[k], described as in
    ``_axis_samples``, and which end pair (2 * end of i + end of j) realises
    each; two points on one segment are joined along it."""
    via = (offsets[i][:, :, None] + graph.dist[ends[i][:, :, None], ends[j][:, None, :]]
           + offsets[j][:, None, :]).reshape(-1, 4)
    best = via.argmin(axis=1)
    same = (seg[i] == seg[j]) & (seg[i] >= 0)
    return (np.where(same, np.abs(offsets[i, 0] - offsets[j, 0]),
                     via[np.arange(len(via)), best]), best)


def geodesic(graph: GeodesicGraph, a, b):
    """Shortest path along the axis between the axis points nearest to a and b.

    Returns (length, polyline [a', vertex path, b']); disconnected endpoints
    give (inf, empty).
    """
    axis = graph.axis
    if axis.is_empty:
        raise ValueError("geodesic needs a point on the axis, but the axis is empty")
    _, piece, t = _project(np.array([a, b], float), axis)
    ends, length = _pieces(axis)
    ends, length = ends[piece], length[piece]
    offsets = np.stack([t * length, (1.0 - t) * length], axis=1)
    total, best = _pair_lengths(graph, ends, offsets, piece, [0], [1])
    if not math.isfinite(total[0]):
        return math.inf, np.empty((0, 2))
    start = axis.vertices[ends[:, 0]]
    proj = start + t[:, None] * (axis.vertices[ends[:, 1]] - start)
    if piece[0] == piece[1]:
        return float(total[0]), proj
    src, path = ends[0, best[0] // 2], [ends[1, best[0] % 2]]
    while path[-1] != src:
        path.append(graph.pred[src, path[-1]])
    return float(total[0]), np.vstack([proj[:1], axis.vertices[path[::-1]], proj[1:]])


def geodesic_diameter(graph: GeodesicGraph) -> float:
    """Max geodesic distance between two axis points; inf if the axis is
    disconnected, 0 if it is empty.

    Fix a point at arc length s on segment a and let d0, d1 be its distances
    to the ends of segment b.  The farthest point of b lies at distance
    (d0 + d1 + L_b) / 2, since |d0 - d1| <= L_b.  Each of d0, d1 is the
    smaller of s + D[a0, .] and L_a - s + D[a1, .], so the function of s is
    concave and piecewise linear: its maximum lies at s = 0, s = L_a or one
    of its two kinks clipped to [0, L_a].  For b = a the same form reads L_a,
    and s = 0 or L_a covers the vertices (an isolated point is a piece of
    length 0).
    """
    axis = graph.axis
    if np.unique(axis.component_ids).size > 1:
        return math.inf
    ends, length = _pieces(axis)
    best = 0.0
    for lo in range(0, len(ends), 64):  # 64 rows of segments a bound the memory
        a = slice(lo, lo + 64)
        la = length[a, None]
        to_b = [(graph.dist[ends[a, :1], b], graph.dist[ends[a, 1:], b]) for b in ends.T]
        kinks = [np.clip((la + d1 - d0) / 2.0, 0.0, la) for d0, d1 in to_b]
        s = np.stack(np.broadcast_arrays(0.0, la, *kinks))
        far = sum(np.minimum(s + d0, la - s + d1) for d0, d1 in to_b) + length
        best = max(best, float(far.max()) / 2.0)
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


def gh_distortion(graph_a: GeodesicGraph, graph_b: GeodesicGraph, radius: float,
                  sample_pairs: int = 2000, resolution: float = 0.01,
                  seed: int = 0):
    """Distortion of the all-pairs-within-radius relation between the axes
    of two geodesic graphs.

    Samples both axes at the resolution, checks the relation is surjective
    both ways (raising SurjectivityError naming uncovered points otherwise),
    and estimates sup |d_A(a,a') - d_B(b,b')| over related pairs by sampling
    4-tuples, with exact geodesic distances; exhaustive when the relation is
    small enough.
    """
    sa = _axis_samples(graph_a.axis, resolution)
    sb = _axis_samples(graph_b.axis, resolution)
    pts_a, pts_b = sa[0], sb[0]
    flags = []
    tree_a = cKDTree(pts_a)
    tree_b = cKDTree(pts_b)

    cnt_a = tree_b.query_ball_point(pts_a, radius, return_length=True)
    cnt_b = tree_a.query_ball_point(pts_b, radius, return_length=True)
    uncovered_a = np.nonzero(cnt_a == 0)[0]
    uncovered_b = np.nonzero(cnt_b == 0)[0]
    if len(uncovered_a) or len(uncovered_b):
        raise SurjectivityError(
            "proximity relation at radius %g is not surjective: %d uncovered "
            "points in the first axis (e.g. %s), %d in the second (e.g. %s)"
            % (radius, len(uncovered_a),
               pts_a[uncovered_a[:3]].tolist() if len(uncovered_a) else "-",
               len(uncovered_b),
               pts_b[uncovered_b[:3]].tolist() if len(uncovered_b) else "-"))

    total_pairs = int(cnt_a.sum())
    rng = np.random.default_rng(seed)
    if total_pairs * total_pairs <= sample_pairs:
        rows = tree_b.query_ball_point(pts_a, radius)
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
        draws = rng.choice(len(pts_a), size=2 * sample_pairs, p=prob)
        pa = draws
        pb = np.empty(2 * sample_pairs, int)
        for k, i in enumerate(draws):
            row = tree_b.query_ball_point(pts_a[i], radius)
            pb[k] = row[rng.integers(0, len(row))]
        idx1 = np.arange(sample_pairs)
        idx2 = np.arange(sample_pairs, 2 * sample_pairs)
        exhaustive = False

    da = _pair_lengths(graph_a, *sa[1:], pa[idx1], pa[idx2])[0]
    db = _pair_lengths(graph_b, *sb[1:], pb[idx1], pb[idx2])[0]

    both_inf = np.isinf(da) & np.isinf(db)
    with np.errstate(invalid="ignore"):
        gaps = np.abs(da - db)
    gaps[both_inf] = 0.0
    if np.isinf(gaps).any():
        flags.append("disconnected-pair")
    distortion = float(gaps.max()) if len(gaps) else 0.0
    corr = Correspondence(radius=float(radius), n_a=len(pts_a),
                          n_b=len(pts_b), n_pairs=total_pairs,
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
    The filter sweeps form their Lipschitz rates and GH bounds themselves
    (``experiments._SWEEPS``), from the lower grid value.
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
        entry_bound = 8.0 * r_max ** 2 * epsilon / ((2.0 * lam - delta) * delta * mt)
        hausdorff_bound = c * math.sqrt(epsilon)
        t_gh = c ** 1.5 * epsilon ** 0.25
        growth = _safe_exp(t_gh / alpha)
        gh_term_flow = 2.0 * t_gh
        gh_term_near = 2.0 * c * math.sqrt(epsilon) * growth
        gh_term_diam = diam * (growth - 1.0)
        gh_bound = gh_term_flow + gh_term_near + gh_term_diam

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
        t_lambda = t_alpha = c = nan
        entry_bound = hausdorff_bound = nan
        gh_term_flow = gh_term_near = gh_term_diam = gh_bound = nan
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
        gh_term_flow=gh_term_flow, gh_term_near=gh_term_near,
        gh_term_diam=gh_term_diam, gh_bound=gh_bound,
        entry_bound=entry_bound, hausdorff_bound=hausdorff_bound,
        gdiam_bound=gdiam_bound, universal_gdiam_bound=universal,
        diam_used=diam, hypothesis_flags=flags)
