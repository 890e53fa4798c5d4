"""Voronoi skeleton construction and the (lambda, alpha) filtration."""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from test_scene import _wire_scene

import medaxis as mx
import medaxis.axis as axis_mod
import medaxis.field as field_mod
import medaxis.flow as flow_mod
import medaxis.scene as scene_mod
from medaxis.field import _grad_norm
from medaxis.scene import _nearest, _row_norms, _seb_stack


def two_site_scene():
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                        bounding_radius=10.0)


def polygon(k, radius=3.0, center=False):
    ang = 2.0 * np.pi * np.arange(k) / k + 0.1
    pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return np.vstack([pts, [[0.0, 0.0]]]) if center else pts


def lattice(k, spacing=1.5):
    g = np.array([[i, j] for i in range(k) for j in range(k)], float)
    return spacing * (g - 0.5 * (k - 1))


def nearly_collinear_row(seed, half=3.0, slope=0.5):
    """Six sites on y = slope x, lifted off the line by 1e-13 N(0, 1)."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-half, half, 6)
    sites = np.column_stack([x, slope * x + 1e-13 * rng.standard_normal(6)])
    return mx.SiteScene(sites=sites, bounding_radius=10.0)


def all_pairs(scene):
    """Every site pair (i < j), with every other site as a bound."""
    n = len(scene.sites)
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], int).reshape(-1, 2)
    others = np.array([[k for k in range(n) if k not in (i, j)] for i, j in pairs.tolist()],
                      int).reshape(len(pairs), max(n - 2, 0))
    return pairs, others


def all_pairs_skeleton(scene):
    """Reference construction: every site pair, bounded by every other site."""
    edges = all_pairs(scene)
    original = axis_mod._delaunay_edges
    axis_mod._delaunay_edges = lambda s: edges
    try:
        return mx.build_skeleton(scene)
    finally:
        axis_mod._delaunay_edges = original


# --- scalar oracles: the per-edge loops that the array path replaced ------

def scalar_wall_interval(scene, m, u, h):
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
    lo, hi = (-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)
    if beta > 0.0:
        lo = max(lo, -a_lin / (2.0 * beta))
    elif beta < 0.0:
        hi = min(hi, -a_lin / (2.0 * beta))
    elif a_lin < 0.0:
        return None
    disc_b = beta * beta - (m2 - r * r)
    if disc_b < 0.0:
        return None
    root_b = math.sqrt(disc_b)
    lo, hi = max(lo, -beta - root_b), min(hi, -beta + root_b)
    return None if lo >= hi else (lo, hi)


def scalar_pair_edge(scene, i, j, opposite):
    """One bisector interval: (m, u, h, s0, s1, src0, src1), src None at
    the wall, or None."""
    p, q = scene.sites[i], scene.sites[j]
    dvec = q - p
    length = float(np.linalg.norm(dvec))
    h = 0.5 * length
    m = 0.5 * (p + q)
    u = np.array([-dvec[1], dvec[0]]) / length
    lo, lo_src, hi, hi_src = -math.inf, None, math.inf, None
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
    wall = scalar_wall_interval(scene, m, u, h)
    if wall is None:
        return None
    s0, src0 = (lo, lo_src) if lo >= wall[0] else (wall[0], None)
    s1, src1 = (hi, hi_src) if hi <= wall[1] else (wall[1], None)
    if s1 - s0 <= 1e-12 * scene.bounding_radius:
        return None
    return (m, u, h, s0, s1, src0, src1)


def scalar_kept_spans(h, alpha, lam, s0, s1):
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


def scalar_components(n, pairs):
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
    return np.array([roots.setdefault(find(i), len(roots)) for i in range(n)], int)


def scalar_filter_axis(skeleton, lam, alpha):
    """The edge-by-edge filter, reading the skeleton's edge and vertex lists."""
    points, segments, key_of = [], [], {}

    def vertex(key, point):
        if key not in key_of:
            key_of[key] = len(points)
            points.append(np.asarray(point, float))
        return key_of[key]

    tol_len = 1e-12 * skeleton.scene.bounding_radius
    flags = list(skeleton.flags)
    wall_limited = False
    for e_idx, ((v0, v1), h, (s0, s1), (wall0, wall1)) in enumerate(zip(
            skeleton.edges.tolist(), skeleton.h.tolist(), skeleton.s.tolist(),
            (skeleton.bound < 0).tolist())):
        mid, u = skeleton.mid[e_idx], skeleton.u[e_idx]
        for a, b in scalar_kept_spans(h, alpha, lam, s0, s1):
            if b - a <= tol_len:
                continue
            if (a == s0 and wall0) or (b == s1 and wall1):
                wall_limited = True
            ia = (vertex(("v", v0), skeleton.vertices[v0]) if a == s0
                  else vertex(("c", e_idx, round(a, 12)), mid + a * u))
            ib = (vertex(("v", v1), skeleton.vertices[v1]) if b == s1
                  else vertex(("c", e_idx, round(b, 12)), mid + b * u))
            segments.append((ia, ib))
    isolated = []
    for vid, (R, F) in enumerate(zip(skeleton.R.tolist(), skeleton.F.tolist())):
        if R > alpha and (R - alpha) / R * F >= lam and ("v", vid) not in key_of:
            isolated.append(vertex(("v", vid), skeleton.vertices[vid]))
    n = len(points)
    if wall_limited:
        flags.append("wall-limited")
    if n == 0:
        flags.append("empty-axis")
    return mx.FilteredAxis(
        lam=float(lam), alpha=float(alpha),
        vertices=np.array(points) if n else np.empty((0, 2)),
        segments=np.array(segments, int) if segments else np.empty((0, 2), int),
        isolated=np.array(isolated, int), component_ids=scalar_components(n, segments),
        flags=tuple(flags))


def scalar_scene_r_max(scene, skeleton):
    best = max([0.0] + skeleton.R.tolist())
    r = scene.bounding_radius
    for p in scene.sites:
        norm = float(np.linalg.norm(p))
        cand = 0.5 * (r + norm)
        x = -p * (0.5 * (r - norm) / norm) if norm > 0.0 else np.array([-0.5 * r, 0.0])
        if cdist(x[None], scene.sites).min() >= cand * (1.0 - 1e-12):
            best = max(best, cand)
    return best


def assert_same_axis(got, ref):
    for name in ("vertices", "segments", "isolated", "component_ids"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert (got.lam, got.alpha, got.flags) == (ref.lam, ref.alpha, ref.flags)


def assert_pair_edges_match_scalar(scene, pairs, opposite):
    kept, m, u, h, s, src = axis_mod._pair_edges(scene, pairs, opposite)
    got = [(tuple(ij), mm.tolist(), uu.tolist(), hh, s0, s1, a, b)
           for ij, mm, uu, hh, (s0, s1), (a, b)
           in zip(kept.tolist(), m, u, h.tolist(), s.tolist(), src.tolist())]
    ref = []
    for (i, j), opp in zip(pairs.tolist(), opposite.tolist()):
        one = scalar_pair_edge(scene, i, j, [k for k in opp if k >= 0])
        if one is not None:
            mm, uu, hh, s0, s1, a, b = one
            ref.append(((i, j), mm.tolist(), uu.tolist(), hh, s0, s1,
                        -1 if a is None else a, -1 if b is None else b))
    assert got == ref


def vertex_witnesses(skeleton):
    """Each vertex's witness sites (ascending) and wall flag: the pairs and
    bounding sites of the edge ends on it, and whether the wall clips one."""
    n = len(skeleton.scene.sites)
    labels = np.concatenate([np.repeat(skeleton.pairs, 2, axis=0),
                             skeleton.bound.reshape(-1, 1)], axis=1)
    keys = np.unique((skeleton.edges.reshape(-1, 1) * n + labels)[labels >= 0])
    bounds = np.searchsorted(keys // n, np.arange(len(skeleton.vertices) + 1)).tolist()
    witnesses = (keys % n).tolist()
    has_wall = np.zeros(len(skeleton.vertices), bool)
    has_wall[skeleton.edges[skeleton.bound < 0]] = True
    return [tuple(witnesses[lo:hi]) for lo, hi in zip(bounds, bounds[1:])], has_wall.tolist()


def assert_same_skeleton(got, ref):
    assert got.pairs.tolist() == ref.pairs.tolist()
    assert got.vertices.shape == ref.vertices.shape
    if len(ref.vertices) == 0:
        return
    gap = cdist(got.vertices, ref.vertices)
    match = gap.argmin(axis=1)
    assert sorted(match) == list(range(len(ref.vertices)))
    assert gap[np.arange(len(match)), match].max() < 1e-9
    (got_sites, got_wall), (ref_sites, ref_wall) = vertex_witnesses(got), vertex_witnesses(ref)
    for k_got, k_ref in enumerate(match):
        assert got_sites[k_got] == ref_sites[k_ref]
        assert got_wall[k_got] == ref_wall[k_ref]


def loop_merge_endpoints(points, tol):
    """Shared ids of coincident endpoints (first occurrence wins), by a
    per-point loop over a spatial hash on a tol-sized grid: a point is
    compared only with representatives in its own and adjacent cells."""
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


def assert_merge_matches_loop(scene, pairs, opposite):
    """The array merge gives the loop's vertex ids and coordinates exactly."""
    _, mid, u, _, s, _ = axis_mod._pair_edges(scene, pairs, opposite)
    ends = (mid[:, None] + s[:, :, None] * u[:, None]).reshape(-1, 2)
    tol = 1e-9 * scene.bounding_radius
    vertices, ids = axis_mod._endpoint_vertices(ends, tol)
    reps, ref_ids = loop_merge_endpoints(ends.tolist(), tol)
    assert ids.tolist() == ref_ids
    assert vertices.tolist() == reps


def adversarial_scene(kind, size, seed):
    """Degenerate and large planar scenes in a radius-10 ball."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        sites = lattice(2 + size % 4, spacing=1.0 + 0.25 * (seed % 5))
    elif kind in ("polygon", "polygon-center"):
        sites = polygon(3 + size % 10, radius=rng.uniform(1.0, 7.0),
                        center=kind == "polygon-center")
    elif kind == "row":
        k = 2 + size % 7
        direction = rng.normal(size=2)
        t = np.linspace(-4.0, 4.0, k)[:, None] * direction / np.linalg.norm(direction)
        sites = t + rng.uniform(-1.0, 1.0, size=2) + 1e-13 * rng.standard_normal((k, 2))
    elif kind == "near-wall":
        k = 1 + size % 8
        ang = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, size=k)) / k
        radii = 10.0 - rng.uniform(1e-4, 0.01, size=k)
        sites = radii[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
        if seed % 2:
            sites = np.vstack([sites, rng.uniform(-1.0, 1.0, size=(1, 2))])
    else:
        return mx.random_scene(size, bounding_radius=10.0, seed=seed)
    return mx.SiteScene(sites=sites, bounding_radius=10.0)


_NEAR_WALL = 9.991 * np.column_stack([np.cos([0.3, 1.5, 2.9, 4.4]),
                                      np.sin([0.3, 1.5, 2.9, 4.4])])
_ORACLE_SCENES = {
    "random-24": lambda: mx.random_scene(24, bounding_radius=8.0, seed=7,
                                         min_separation=0.5).sites,
    "lattice-3": lambda: lattice(3),
    "lattice-4": lambda: lattice(4),
    "hexagon": lambda: polygon(6),
    "hexagon-center": lambda: polygon(6, center=True),
    "octagon": lambda: polygon(8),
    "octagon-center": lambda: polygon(8, center=True),
    "row-4": lambda: np.array([[-3.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [3.0, 1.0]]),
    "diagonal-3": lambda: np.array([[-2.0, -2.0], [0.5, 0.5], [2.0, 2.0]]),
    "two-sites": lambda: np.array([[-1.0, 0.3], [2.0, -0.5]]),
    "three-sites": lambda: np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "near-wall": lambda: np.vstack([_NEAR_WALL, [[0.5, -0.2]]]),
    # 1.01 x the scene's minimum separation, 10 * tie_tolerance * radius
    "min-separation": lambda: np.array([[0.0, 0.0], [1.01e-7, 0.0],
                                        [2.0, 1.0], [-1.0, 2.5], [0.5, -3.0]]),
}


# scene kinds, sizes and seeds of adversarial_scene, and filter parameters
_AXIS_DRAWS = dict(kind=st.sampled_from(["lattice", "polygon", "polygon-center", "row",
                                         "near-wall", "random"]),
                   size=st.integers(1, 60), seed=st.integers(0, 2 ** 16),
                   lam=st.floats(0.05, 1.0), alpha=st.floats(0.0, 0.5))

# (lambda, alpha) points that keep whole edges, two spans of an edge, cut
# every edge to isolated vertices, or empty the axis on the oracle scenes
_ORACLE_GRID = [(0.05, 0.0), (0.5, 0.0), (0.3, 0.5), (0.75, 0.5), (1.2, 0.5),
                (2.5, 1.0), (6.0, 0.5)]


class TestSkeleton:
    def test_two_site_bisector(self):
        sk = mx.build_skeleton(two_site_scene())
        assert len(sk.edges) == 1
        assert sk.pairs.tolist() == [[0, 1]]
        assert abs(sk.h[0] - 1.0) < 1e-12
        assert abs(sk.s[0, 0] + 99.0 / 20.0) < 1e-9
        assert abs(sk.s[0, 1] - 99.0 / 20.0) < 1e-9
        assert sk.bound.tolist() == [[-1, -1]]

    def test_two_site_wall_vertices(self):
        sk = mx.build_skeleton(two_site_scene())
        _, has_wall = vertex_witnesses(sk)
        assert len(sk.vertices) == 2 and all(has_wall)
        assert np.all(np.abs(np.abs(sk.vertices[:, 1]) - 4.95) < 1e-9)
        assert np.all(np.abs(sk.R - 101.0 / 20.0) < 1e-9)
        assert np.all(np.abs(sk.F - sk.R) < 1e-9)   # wall vertex is a balance point

    def test_three_site_circumcenter_vertex(self):
        scene = mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                             bounding_radius=10.0)
        sk = mx.build_skeleton(scene)
        witnesses, has_wall = vertex_witnesses(sk)
        inner = [k for k, wall in enumerate(has_wall) if not wall]
        assert len(inner) == 1
        assert np.allclose(sk.vertices[inner[0]], [0.0, 0.0], atol=1e-9)
        assert abs(sk.R[inner[0]] - 1.0) < 1e-9
        assert witnesses[inner[0]] == (0, 1, 2)

    def test_three_site_diagonal_wall_clip(self):
        scene = mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                             bounding_radius=10.0)
        sk = mx.build_skeleton(scene)
        expect_r = 10.0 - 99.0 / (20.0 - math.sqrt(2.0))
        witnesses, has_wall = vertex_witnesses(sk)
        diag = [k for k, (sites, wall) in enumerate(zip(witnesses, has_wall))
                if wall and len(sites) == 2 and 2 in sites]
        assert len(diag) == 2
        for k in diag:
            assert abs(sk.R[k] - expect_r) < 1e-9

    def test_single_site_skeleton_is_empty(self):
        scene = mx.SiteScene(sites=np.array([[1.0, 0.0]]), bounding_radius=10.0)
        sk = mx.build_skeleton(scene)
        assert sk.edges.shape == (0, 2) and sk.vertices.shape == (0, 2)
        assert sk.flags == ("empty-skeleton",)
        ax = mx.filter_axis(sk, 0.75, 0.5)
        assert ax.is_empty and "empty-axis" in ax.flags
        assert mx.scene_svg(scene, axis=ax, skeleton=sk).startswith("<svg")

    @pytest.mark.parametrize("name", sorted(_ORACLE_SCENES))
    def test_neighbor_pruning_matches_all_pairs(self, name):
        scene = mx.SiteScene(sites=_ORACLE_SCENES[name](), bounding_radius=10.0)
        assert_same_skeleton(mx.build_skeleton(scene), all_pairs_skeleton(scene))

    @pytest.mark.parametrize("name", sorted(_ORACLE_SCENES))
    def test_arrays_match_scalar_oracle(self, name):
        scene = mx.SiteScene(sites=_ORACLE_SCENES[name](), bounding_radius=10.0)
        assert_pair_edges_match_scalar(scene, *axis_mod._delaunay_edges(scene))
        assert_merge_matches_loop(scene, *axis_mod._delaunay_edges(scene))
        # many bounds per pair, with exact ties on the lattices and polygons
        assert_pair_edges_match_scalar(scene, *all_pairs(scene))
        assert_merge_matches_loop(scene, *all_pairs(scene))
        sk = mx.build_skeleton(scene)
        for lam, alpha in _ORACLE_GRID:
            assert_same_axis(mx.filter_axis(sk, lam, alpha), scalar_filter_axis(sk, lam, alpha))
        assert mx.scene_r_max(scene, sk) == scalar_scene_r_max(scene, sk)

    @pytest.mark.parametrize("seed", range(8))
    def test_r_max_matches_scalar_oracle_on_random_scenes(self, seed):
        scene = mx.random_scene(4 + 5 * seed, bounding_radius=6.0 + seed, seed=seed)
        assert mx.scene_r_max(scene) == scalar_scene_r_max(scene, mx.build_skeleton(scene))

    @pytest.mark.parametrize("seed, half, slope", [
        (372, 3.0, 0.5), (16, 3.0, 0.5), (29, 3.0, 0.5), (39, 3.0, 0.5),
        (36, 4.0, -1.0), (89, 4.0, -1.0)])
    def test_sites_dropped_by_qhull_are_kept(self, seed, half, slope):
        # Qhull leaves sites of these rows out of its triangulation (the
        # last two also get its point at infinity in a triangle)
        scene = nearly_collinear_row(seed, half, slope)
        sk = mx.build_skeleton(scene)
        assert sk.pairs.tolist() == [[k, k + 1] for k in range(5)]
        assert_same_skeleton(sk, all_pairs_skeleton(scene))
        assert_merge_matches_loop(scene, *axis_mod._delaunay_edges(scene))

    def test_merge_matches_loop_on_2000_sites(self):
        # the 2000-site scene of the benchmark's large planar axis workload
        path = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
        spec = importlib.util.spec_from_file_location("bench_scenes", path)
        bench_scenes = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_scenes)
        sites = bench_scenes.separated_sites(np.random.default_rng(1), 2000, 10.0, min_sep=0.15)
        scene = mx.SiteScene(sites=sites, bounding_radius=10.0)
        assert_merge_matches_loop(scene, *axis_mod._delaunay_edges(scene))

    def test_rejects_three_dimensional_scene(self):
        scene = mx.SiteScene(sites=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                             bounding_radius=4.0)
        with pytest.raises(mx.InvalidSceneError):
            mx.build_skeleton(scene)

    @pytest.mark.parametrize("name, vertices, digest", [
        ("lattice-3", 12, "9984b7c82d06db97b4cf220c33ab71da"
                          "1af34d8650a51cce33b4671d8998cc0c"),
        ("random-40", 78, "9a51c32493042ef599a04f20e5166e27"
                          "87f5c35d7864cf35b68399ac0888ebb5")])
    def test_vertex_data_is_pinned(self, name, vertices, digest):
        # recorded before the witness balls were batched; a refactor of the
        # field or the ball routine must leave these bits alone
        if name == "lattice-3":
            scene = mx.SiteScene(sites=lattice(3), bounding_radius=10.0)
        else:
            scene = mx.random_scene(40, 8.0)
        sk = mx.build_skeleton(scene)
        assert len(sk.vertices) == vertices
        assert hashlib.sha256(sk.R.tobytes() + sk.F.tobytes()).hexdigest() == digest


def assert_vertex_field_is_kernels(scene, sample=None, chunk=500):
    """The skeleton's vertex R and F equal ``eval_field_batch``'s, which
    measures every site, bit for bit: at every vertex, or at a fixed
    ``sample`` of them."""
    sk = mx.build_skeleton(scene)
    rows = np.arange(len(sk.vertices))
    if sample is not None:
        rows = np.random.default_rng(0).choice(rows, sample, replace=False)
    for k in range(0, len(rows), chunk):
        at = rows[k:k + chunk]
        got = mx.eval_field_batch(scene, sk.vertices[at])
        assert sk.R[at].tobytes() == got["R"].tobytes()
        assert sk.F[at].tobytes() == got["F"].tobytes()


# Vertices whose cut holds sites off their Delaunay triangles: in a tie band
# of 1e-3, (0, -1.0005) is a witness at (0, 0) though outside the circle of
# its triangle, and so are a jittered lattice's fourth sites, in and out of
# the band; every site is a witness at a regular polygon's center.
_WIDE_BALL_SCENES = {
    "tie-band-4": lambda: mx.SiteScene(
        sites=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0005]],
        bounding_radius=10.0, tie_tolerance=1e-3),
    "tie-band-lattice": lambda: mx.SiteScene(
        sites=lattice(10, spacing=1.0) + np.random.default_rng(4).uniform(-3e-4, 3e-4, (100, 2)),
        bounding_radius=10.0, tie_tolerance=1e-3),
    "600-gon": lambda: mx.SiteScene(sites=polygon(600, radius=7.0), bounding_radius=10.0),
    "600-gon-center": lambda: mx.SiteScene(sites=polygon(600, radius=7.0, center=True),
                                           bounding_radius=10.0),
    "600-gon-lattice": lambda: mx.SiteScene(
        sites=np.vstack([polygon(600, radius=7.0), lattice(4, spacing=0.8) + [0.1, 0.2]]),
        bounding_radius=10.0),
}


class TestVertexWitnesses:
    """Each vertex's R and F come from the sites near it, within a bound on
    the kernel's cut, and the wall."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_SCENES))
    def test_equals_kernel_on_oracle_scenes(self, name):
        assert_vertex_field_is_kernels(
            mx.SiteScene(sites=_ORACLE_SCENES[name](), bounding_radius=10.0))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(kind=_AXIS_DRAWS["kind"], size=_AXIS_DRAWS["size"], seed=_AXIS_DRAWS["seed"])
    def test_equals_kernel_on_adversarial_draws(self, kind, size, seed):
        assert_vertex_field_is_kernels(adversarial_scene(kind, size, seed))

    def test_equals_kernel_on_nearly_collinear_rows(self, monkeypatch):
        """Rows lifted off their line by 1e-15 to 1e-6: some take Qhull's
        joggled retriangulation, some the sorted-line path."""
        paths = []
        delaunay, line_edges = axis_mod.Delaunay, axis_mod._line_edges

        def joggled(sites, qhull_options=None):
            paths.append(qhull_options)
            return delaunay(sites, qhull_options=qhull_options)

        def line(sites):
            paths.append("line")
            return line_edges(sites)

        monkeypatch.setattr(axis_mod, "Delaunay", joggled)
        monkeypatch.setattr(axis_mod, "_line_edges", line)
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(3, 9))
            direction = rng.normal(size=2)
            t = np.linspace(-4.0, 4.0, k)[:, None] * direction / np.linalg.norm(direction)
            noise = 10.0 ** rng.uniform(-15.0, -6.0)
            sites = t + rng.uniform(-1.0, 1.0, size=2) + noise * rng.standard_normal((k, 2))
            assert_vertex_field_is_kernels(mx.SiteScene(sites=sites, bounding_radius=10.0))
        assert "QJ" in paths and "line" in paths

    def test_equals_kernel_on_a_lattice_in_a_far_wall(self):
        # every inner vertex is a four-way tie of a square
        assert_vertex_field_is_kernels(mx.SiteScene(sites=lattice(41), bounding_radius=4000.0))

    def test_equals_kernel_on_20000_jittered_sites(self):
        rng = np.random.default_rng(3)
        g = np.arange(142) - 70.5
        sites = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        sites += rng.uniform(-0.3, 0.3, size=sites.shape)
        assert_vertex_field_is_kernels(mx.SiteScene(sites=sites, bounding_radius=110.0),
                                       sample=500, chunk=50)

    @pytest.mark.parametrize("name", sorted(_WIDE_BALL_SCENES))
    def test_equals_kernel_where_the_cut_leaves_the_triangles(self, name):
        assert_vertex_field_is_kernels(_WIDE_BALL_SCENES[name]())

    def test_build_measures_no_site_but_the_vertex_witnesses(self, monkeypatch):
        """No all-sites kernel pass: ``cdist``, which measures every site,
        raises, and the build still runs."""
        def cdist_all(*args, **kwargs):
            raise AssertionError("the build measured every site")

        monkeypatch.setattr(scene_mod, "cdist", cdist_all)
        for scene in (mx.random_scene(40, 8.0), two_site_scene(),
                      mx.SiteScene(sites=lattice(4), bounding_radius=10.0)):
            sk = mx.build_skeleton(scene)
            assert len(sk.vertices) and (sk.R > 0.0).all() and (sk.F > 0.0).all()


class TestFilteredAxis:
    def test_survivor_interval_closed_form(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 0.75, 0.5)
        ys = np.sort(np.abs(ax.vertices[:, 1]))
        assert abs(ys[0] - math.sqrt(3.0)) < 1e-9
        assert abs(ys[1] - math.sqrt(3.0)) < 1e-9
        assert abs(ys[2] - 4.95) < 1e-9
        assert abs(ax.total_length() - 2.0 * (4.95 - math.sqrt(3.0))) < 1e-9
        assert len(np.unique(ax.component_ids)) == 2

    def test_weaker_filter_keeps_longer_spans(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 0.70, 0.5)
        ys = np.sort(np.abs(ax.vertices[:, 1]))
        assert abs(ys[0] - 4.0 / 3.0) < 1e-9

    def test_low_lambda_keeps_whole_edge(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 0.4, 0.5)
        assert abs(ax.total_length() - 9.9) < 1e-9
        assert len(np.unique(ax.component_ids)) == 1

    def test_alpha_zero_keeps_edge_at_lambda_equal_half_gap(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 1.0, 0.0)
        assert abs(ax.total_length() - 9.9) < 1e-9
        assert_same_axis(ax, scalar_filter_axis(sk, 1.0, 0.0))

    def test_lambda_at_half_gap_cuts_edge_but_keeps_vertices(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 1.2, 0.5)
        assert len(ax.segments) == 0
        pts = np.asarray(ax.isolated_points)
        assert pts.shape == (2, 2)
        assert np.allclose(np.abs(pts[:, 1]), 4.95, atol=1e-9)
        assert not ax.is_empty

    def test_high_lambda_empties_axis(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 4.6, 0.5)
        assert ax.is_empty

    def test_cut_points_rounding_to_zero_share_a_vertex(self):
        # half-gap 1e-7 and R* one ulp above it: s* is about 2.5e-15, so the
        # cut points -s* and s* of edge (0, 1) are one vertex (their keys
        # round to 0 at 12 places), which both of its spans reach
        scene = mx.SiteScene(np.array([[0.0, 0.0], [2e-7, 0.0], [3.0, 1.0]]), 10.0)
        sk = mx.build_skeleton(scene)
        lam, alpha = 5e-8, 5.000000000000001e-08
        ax = mx.filter_axis(sk, lam, alpha)
        assert_same_axis(ax, scalar_filter_axis(sk, lam, alpha))
        assert len(ax.segments) == 4 and len(ax.vertices) == 5
        shared = ax.segments[0, 1]
        assert ax.segments[1, 0] == shared and np.abs(ax.vertices[shared]).max() < 1e-6

    def test_nonpositive_lambda_rejected(self):
        sk = mx.build_skeleton(two_site_scene())
        with pytest.raises(mx.InvalidSceneError):
            mx.filter_axis(sk, 0.0, 0.5)

    @pytest.mark.parametrize("lam, alpha", [(math.nan, 0.5), (0.5, math.nan),
                                            (math.inf, 0.5), (0.5, math.inf)])
    def test_nan_parameters_rejected(self, lam, alpha):
        """NaN, and inf too, which would empty the axis."""
        sk = mx.build_skeleton(two_site_scene())
        with pytest.raises(mx.InvalidSceneError, match="finite"):
            mx.filter_axis(sk, lam, alpha)

    def test_alpha_monotonicity_nested(self):
        sk = mx.build_skeleton(two_site_scene())
        small = mx.filter_axis(sk, 0.75, 0.25)
        large = mx.filter_axis(sk, 0.75, 0.5)
        # growing alpha shrinks the surviving set
        assert large.total_length() <= small.total_length() + 1e-12


class TestMembership:
    def test_on_axis_point(self):
        assert mx.axis_membership(two_site_scene(), [0.0, 2.0], 0.75, 0.5)

    def test_inside_hole(self):
        assert not mx.axis_membership(two_site_scene(), [0.0, 1.5], 0.75, 0.5)

    def test_off_bisector(self):
        assert not mx.axis_membership(two_site_scene(), [0.2, 2.0], 0.75, 0.5)

    def test_agreement_on_kept_spans(self):
        scene = mx.random_scene(12, bounding_radius=8.0, seed=17, min_separation=0.8)
        sk = mx.build_skeleton(scene)
        lam, alpha = 0.35, 0.2
        ax = mx.filter_axis(sk, lam, alpha)
        rng = np.random.default_rng(23)
        for seg in ax.segments:
            v0, v1 = ax.vertices[seg[0]], ax.vertices[seg[1]]
            span = np.linalg.norm(v1 - v0)
            for u in rng.uniform(0.0, 1.0, size=12):
                # stay clear of the trim boundary where both answers flip
                if min(u, 1.0 - u) * span < 1e-6:
                    continue
                x = (1.0 - u) * v0 + u * v1
                assert mx.axis_membership(scene, x, lam, alpha)

    def test_agreement_on_trimmed_spans(self):
        scene = mx.random_scene(12, bounding_radius=8.0, seed=17, min_separation=0.8)
        sk = mx.build_skeleton(scene)
        lam, alpha = 0.35, 0.2
        ax = mx.filter_axis(sk, lam, alpha)
        rng = np.random.default_rng(29)
        band = 1e-6
        disagreements = 0
        for mid, u_dir, (s0, s1) in zip(sk.mid, sk.u, sk.s.tolist()):
            kept = []
            for seg in ax.segments:
                ends = ax.vertices[list(seg)]
                offs = ends - mid
                if np.abs(offs @ np.array([-u_dir[1], u_dir[0]])).max() > 1e-9:
                    continue
                s_vals = np.sort(offs @ u_dir)
                if s_vals[0] >= s0 - 1e-9 and s_vals[1] <= s1 + 1e-9:
                    kept.append((s_vals[0], s_vals[1]))
            for u in rng.uniform(0.0, 1.0, size=8):
                s = s0 + u * (s1 - s0)
                inside = any(a + band <= s <= b - band for a, b in kept)
                outside = all(s <= a - band or s >= b + band for a, b in kept)
                if not inside and not outside:
                    continue   # within the boundary band, either answer is fine
                x = mid + s * u_dir
                if mx.axis_membership(scene, x, lam, alpha) != inside:
                    disagreements += 1
        assert disagreements == 0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(**_AXIS_DRAWS)
    def test_kept_midpoints_are_members(self, kind, size, seed, lam, alpha):
        scene = adversarial_scene(kind, size, seed)
        sk = mx.build_skeleton(scene)
        ax = mx.filter_axis(sk, lam, alpha)
        # the array path equals the scalar oracles on every draw
        assert_pair_edges_match_scalar(scene, *axis_mod._delaunay_edges(scene))
        assert_merge_matches_loop(scene, *axis_mod._delaunay_edges(scene))
        assert_same_axis(ax, scalar_filter_axis(sk, lam, alpha))
        for a, b in ax.segments:
            mid = 0.5 * (ax.vertices[a] + ax.vertices[b])
            assert mx.axis_membership(scene, mid, lam, alpha)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(**_AXIS_DRAWS)
    def test_kept_segment_ends_pass_the_filter(self, kind, size, seed, lam, alpha):
        # a cut point has F_alpha = lambda only up to rounding
        scene = adversarial_scene(kind, size, seed)
        ax = mx.filter_axis(mx.build_skeleton(scene), lam, alpha)
        for vid in np.unique(ax.segments):
            assert mx.eval_field(scene, ax.vertices[vid], alpha).F_alpha >= lam * (1.0 - 1e-9)

    def test_ambient_points_never_members(self):
        scene = mx.random_scene(12, bounding_radius=8.0, seed=17, min_separation=0.8)
        rng = np.random.default_rng(31)
        pts = rng.uniform(-7.5, 7.5, size=(300, 2))
        pts = pts[np.linalg.norm(pts, axis=1) < 7.9]
        hits = 0
        for x in pts:
            try:
                if mx.axis_membership(scene, x, 0.35, 0.2):
                    hits += 1
            except mx.DomainError:
                continue
        assert hits == 0


class TestAxisJson:
    def test_payload_structure(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 0.75, 0.5)
        payload = json.loads(mx.axis_to_json(ax))
        assert payload["lambda"] == 0.75
        assert payload["alpha"] == 0.5
        assert len(payload["vertices"]) == 4
        assert len(payload["segments"]) == 2

    def test_serialization_is_stable(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 0.75, 0.5)
        assert mx.axis_to_json(ax) == mx.axis_to_json(ax)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(**_AXIS_DRAWS)
    def test_json_round_trip_and_rebuild(self, kind, size, seed, lam, alpha):
        scene = adversarial_scene(kind, size, seed)
        ax = mx.filter_axis(mx.build_skeleton(scene), lam, alpha)
        text = mx.axis_to_json(ax)
        payload = json.loads(text)
        assert payload["vertices"] == ax.vertices.tolist()
        assert payload["segments"] == ax.segments.tolist()
        assert payload["isolated"] == ax.isolated_points.tolist()
        assert payload["components"] == ax.component_ids.tolist()
        assert mx.axis_to_json(mx.filter_axis(mx.build_skeleton(scene), lam, alpha)) == text


_NEAR_WALL_PIN = np.vstack([_NEAR_WALL, [[0.5, -0.2], [-3.0, 1.0], [3.5, 2.5], [0.0, -4.0]]])
# whole edges at alpha = 0, isolated vertices, two spans on an edge, empty
_PIN_GRID = [(0.5, 0.0), (0.75, 0.5), (0.3, 0.5), (1.5, 0.5), (6.0, 0.5)]
PIN_SCENES = {
    "lattice-plus": lambda: mx.SiteScene(np.vstack([lattice(3), [[0.4, 2.9]]]), 10.0),
    "random-60": lambda: mx.random_scene(60, bounding_radius=10.0, seed=5),
    "near-wall": lambda: mx.SiteScene(_NEAR_WALL_PIN, 10.0),
}


def output_digests(scene):
    """SHA-256 of the JSON and of the SVG of the filtered axes over _PIN_GRID."""
    sk = mx.build_skeleton(scene)
    js, svg = hashlib.sha256(), hashlib.sha256()
    for lam, alpha in _PIN_GRID:
        ax = mx.filter_axis(sk, lam, alpha)
        js.update(mx.axis_to_json(ax).encode())
        svg.update(mx.scene_svg(scene, axis=ax, skeleton=sk).encode())
    return js.hexdigest(), svg.hexdigest()


class TestOutputPins:
    """Output bytes recorded before the skeleton, filter and writers worked
    on arrays; any change to them must show here."""

    @pytest.mark.parametrize("name, json_digest, svg_digest", [
        ("lattice-plus",
         "801f884ef022ad194deee946c4578037c808c516257190f1eee52618ada9d3cf",
         "3c4ae7c7580b60962b5cb59c8655703e006b36a46954eb055f7fdacb83603195"),
        ("random-60",
         "d86658d962a960558c256a724ce28b3a3282ecbdee7badf3394ffca106456fd5",
         "d7fe9e6091bfa550357debad368496e9f1e27256db19c04df172a102d59dcf1c"),
        ("near-wall",
         "5a87945bab348dcea1539986575a98773d4b5e7ff7f521c3a22fbcc4be21283a",
         "31b66abf568b80d61ebdbf8faaa64c82f5c64ab0c0f1b3d8b82c75d41c5ab950")])
    def test_axis_json_and_svg(self, name, json_digest, svg_digest):
        assert output_digests(PIN_SCENES[name]()) == (json_digest, svg_digest)

    def test_trajectory_svg(self):
        scene = mx.random_scene(12, bounding_radius=8.0, seed=3, min_separation=0.6)
        trajs = mx.integrate_flows(scene, [[0.3, 0.2], [-2.0, 1.0], [1.0, -3.0]],
                                   horizon=1.0)
        svg = mx.scene_svg(scene, trajectories=trajs)
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "e49d0ea2432dcd2f5b91b70d8bd403f6d4af3340d4a7823140ee2079fab5d41c")


def level_points(scene, skeleton, t):
    """Every point of the medial set on level t, enumerated one at a time:
    the points at |s| = sqrt(t^2 - h^2) of each edge span, the meets of
    |x| = r - t and |x - p| = t where eval_field has both p and the wall
    as witnesses, and the vertices with R == t."""
    r = scene.bounding_radius
    points = []
    for e in range(len(skeleton.h)):
        h, (s0, s1) = skeleton.h[e], skeleton.s[e]
        if t >= h:
            s = math.sqrt(t * t - h * h)
            points += [skeleton.mid[e] + x * skeleton.u[e] for x in {s, -s} if s0 <= x <= s1]
    for i, p in enumerate(scene.sites):
        d = math.hypot(*p)
        if d == 0.0:
            continue
        a = ((r - t) ** 2 - t * t + d * d) / (2.0 * d)
        if a * a > (r - t) ** 2:
            continue
        b = math.sqrt((r - t) ** 2 - a * a)
        for x in {b, -b}:
            x = (a * p + x * np.array([-p[1], p[0]])) / d
            if {i, -1} <= set(mx.eval_field(scene, x).witness_ids):
                points.append(x)
    return points + [v for v, R in zip(skeleton.vertices, skeleton.R) if R == t]


def oracle_chi(scene, skeleton, t_grid):
    """The smallest eval_field |grad| over the level points of each level,
    1 where there are none."""
    return np.array([min((np.linalg.norm(mx.eval_field(scene, x).grad)
                          for x in level_points(scene, skeleton, t)), default=1.0)
                     for t in t_grid.tolist()])


# the oracle scenes (collinear rows, lattices, sites at the origin and near
# the wall among them), random scenes and ROADMAP's seed-26 sampler miss
_EXACT_SCENES = {name: lambda make=make: mx.SiteScene(make(), 10.0)
                 for name, make in _ORACLE_SCENES.items()}
_EXACT_SCENES.update({"random-%d" % seed: lambda seed=seed: mx.random_scene(8 + seed % 9, 10.0,
                                                                          seed=seed)
                      for seed in (1, 4, 7, 10)})
_EXACT_SCENES["seed-26"] = lambda: mx.random_scene(14, 6.0, min_separation=1.0, seed=26)


def cell_rule_points(scene, skeleton, t):
    """The site/wall points of the exact path (and lifted, its wall-pair
    points) as it enumerates them: points (N, d), level indices and the
    sites (N, k) that witness each with the wall."""
    basis = None if scene.dim == 2 else axis_mod._plane_basis(scene)
    found = [axis_mod._site_wall_points(skeleton, t, basis is not None)]
    if basis is not None:
        found.append(axis_mod._wall_pair_points(skeleton, t))
    return [(y if basis is None else
             y[:, :1] * basis[0] + y[:, 1:] * basis[1] + zeta[:, None] * basis[2], level, ids)
            for y, zeta, level, ids in found]


def kernel_check(scene, skeleton, t):
    """The exact path's former check of its points by the distance kernel,
    kept as an oracle for the cell rule.  The candidates are every end of
    every site/wall chord in the plane, and the cell rule's points lifted.
    A candidate is kept where the scene's tie band marks its sites and the
    wall, with F its kernel witness ball radius, and chi is read off the
    kept points and the skeleton's edges and vertices.  Returns the kept
    points as sorted (level, coordinates..., F) rows, chi and the counts."""
    lifted = scene.dim > 2
    if lifted:
        found = cell_rule_points(scene, skeleton, t)
    else:
        r, sites = scene.bounding_radius, scene.sites
        d = _row_norms(sites)
        with np.errstate(invalid="ignore", divide="ignore"):
            a = (r * (r - 2.0 * t[:, None]) + d * d) / (2.0 * d)
            b = np.sqrt((r - t[:, None]) ** 2 - a * a)
            along = sites / d[:, None]
            perp = np.column_stack([-sites[:, 1], sites[:, 0]]) / d[:, None]
        level, k = np.nonzero(b >= 0.0)
        b = b[level, k]
        two = b > 0.0  # both ends, or the one where they touch
        level, k = np.concatenate([level, level[two]]), np.concatenate([k, k[two]])
        b = np.concatenate([b, -b[two]])
        found = [(a[level, k, None] * along[k] + b[:, None] * perp[k], level, k[:, None])]
    rows, lo, weight = [], [], []
    for X, level, ids in found:
        near = _nearest(scene, X)
        mask = near.cut()
        kept = mask[np.arange(len(X))[:, None], ids].all(axis=1) & mask[:, -1]
        F = near.balls(mask)[1]
        rows += [(i,) + tuple(x) + (f,) for i, x, f in zip(level[kept].tolist(),
                                                           X[kept].tolist(), F[kept].tolist())]
        lo.append(t[level[kept]])
        weight.append(F[kept])
    tops = axis_mod._tops(skeleton, lifted)
    h, s0, s1 = skeleton.h, skeleton.s[:, 0], skeleton.s[:, 1]
    s_near = np.maximum(0.0, np.maximum(s0, -s1))
    s_far = np.maximum(-s0, s1)
    edge_hi = tops[skeleton.edges].max(axis=1) if lifted else np.sqrt(h * h + s_far * s_far)
    tie = scene.tie_tolerance
    hi = np.concatenate([edge_hi, tops * (1.0 + tie)] + lo)
    lo = np.concatenate([np.sqrt(h * h + s_near * s_near), skeleton.R * (1.0 - tie)] + lo)
    weight = np.concatenate([h, skeleton.F] + weight)
    met = (lo <= t[:, None]) & (t[:, None] <= hi)
    H = np.where(met, weight, 0.0).max(axis=1, initial=0.0)
    return sorted(rows), _grad_norm(H, t), met.sum(axis=1)


# the exact scenes in the plane, and tilted into R^3 (but for the row
# through the origin, which the exact path rejects there), and 150 sites
_KERNEL_SCENES = dict(_EXACT_SCENES, **{
    "random-150": lambda: mx.random_scene(150, 10.0, seed=1, min_separation=0.1)})
_KERNEL_CASES = [(name, dim) for name in sorted(_KERNEL_SCENES) for dim in (2, 3)
                 if (name, dim) != ("diagonal-3", 3)]


class TestExactCriticalFunction:
    @pytest.mark.parametrize("name", sorted(_EXACT_SCENES))
    def test_matches_level_point_oracle(self, name):
        """On a level grid and at every vertex value below r_max.  Compared
        in squares, since a square root near 0 magnifies the rounding of F."""
        scene = _EXACT_SCENES[name]()
        sk = mx.build_skeleton(scene)
        r_max = mx.scene_r_max(scene, sk)
        t = np.unique(np.concatenate([np.linspace(0.02 * r_max, 0.99 * r_max, 15),
                                      sk.R[sk.R < r_max]]))
        prof = mx.exact_critical_function(scene, t, sk)
        np.testing.assert_allclose(prof.chi ** 2, oracle_chi(scene, sk, t) ** 2,
                                   rtol=0.0, atol=1e-12)
        assert prof.flags == () and prof.band_width == 0.0 and prof.r_max == r_max
        # the skeleton is built when none is passed
        again = mx.exact_critical_function(scene, t)
        assert again.chi.tobytes() == prof.chi.tobytes()
        assert again.sample_count.tolist() == prof.sample_count.tolist()

    @pytest.mark.parametrize("case", ["planar-r-max", "lattice", "3d"])
    @pytest.mark.parametrize("cap", [1, 2500, 1 << 40])
    def test_chunk_cap_keeps_chi_bytes(self, case, cap, monkeypatch):
        """``cap`` sites x levels per chunk of the feature masks: one level
        per chunk, two to four chunks, or every level in one chunk (as by
        default)."""
        if case == "lattice":
            scene = mx.SiteScene(sites=lattice(10), bounding_radius=10.0)
        else:
            scene = mx.random_scene(40, 8.0)
            scene = embedded(scene, tilt(3, seed=2)) if case == "3d" else scene
        t = np.linspace(0.02, 0.99, 80) * mx.scene_r_max(scene)

        def run():
            return mx.exact_critical_function(scene, t)

        ref = run()
        monkeypatch.setattr(axis_mod, "_CHUNK_DISTANCES", cap)
        got = run()
        assert got.chi.tobytes() == ref.chi.tobytes()
        assert got.sample_count.tolist() == ref.sample_count.tolist()
        assert ref.chi.min() < 1.0

    @pytest.mark.parametrize("name, dim", _KERNEL_CASES)
    def test_cell_rule_matches_kernel_oracle(self, monkeypatch, name, dim):
        """On a level grid the cell rule keeps the points the distance
        kernel's tie band kept, with their F bit for bit, and chi and the
        counts keep their bits.  At the R of a (site, site, wall) vertex a
        chord end is that vertex, which the vertex row already counts (the
        kernel kept it with the third site's F): chi moves there within
        1e-12 in squares."""
        planar = _KERNEL_SCENES[name]()
        scene = planar if dim == 2 else embedded(planar, tilt(3, seed=3))
        sk = axis_mod._in_plane(scene, None)[1]
        r_max = mx.scene_r_max(scene, sk)
        grid = np.linspace(0.02 * r_max, 0.99 * r_max, 15)
        wall_R = sk.R[np.unique(sk.edges[sk.bound < 0])]
        t = np.unique(np.concatenate([grid, wall_R[wall_R < r_max]]))
        radii = []

        def seb_stack(P):  # records the F of each point the exact path keeps
            centers, F = _seb_stack(P)
            radii.append(F)
            return centers, F

        monkeypatch.setattr(axis_mod, "_seb_stack", seb_stack)
        prof = mx.exact_critical_function(scene, t, sk)
        on = np.isin(t, grid)
        got = [(i,) + tuple(x) + (f,) for (X, level, _), F in zip(
            cell_rule_points(scene, sk, t), radii)
            for i, x, f in zip(level.tolist(), X.tolist(), F.tolist())]
        rows, chi, counts = kernel_check(scene, sk, t)
        assert [row for row in sorted(got) if on[row[0]]] == [row for row in rows if on[row[0]]]
        assert prof.chi[on].tobytes() == chi[on].tobytes()
        assert prof.sample_count[on].tolist() == counts[on].tolist()
        np.testing.assert_allclose(prof.chi ** 2, chi ** 2, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reads_no_distance_kernel(self, monkeypatch, dim):
        """With the skeleton built, chi and r_max come from it alone: every
        binding of the distance kernel raises."""
        planar = mx.random_scene(12, 10.0, seed=4)
        scene = planar if dim == 2 else embedded(planar, tilt(3, seed=3))
        sk = axis_mod._in_plane(scene, None)[1]

        def kernel(*args, **kwargs):
            raise AssertionError("the exact path called the distance kernel")

        for module in (scene_mod, field_mod, flow_mod):
            monkeypatch.setattr(module, "_nearest", kernel)
        monkeypatch.setattr(axis_mod, "_nearest", kernel, raising=False)
        r_max = mx.scene_r_max(scene, sk)
        prof = mx.exact_critical_function(scene, np.linspace(0.02, 0.99, 25) * r_max, sk)
        assert prof.sample_count.sum() > 0 and prof.chi.min() < 1.0

    @pytest.mark.parametrize("name, misses", [
        ("pinned", [5]), ("seed-26", [4]), ("random-10", [2])])
    def test_dense_sampler_reads_no_lower(self, name, misses):
        """A dense sampler never reads more than 1e-3 below the exact chi;
        the cells where it reads more than 1e-3 above are sampler misses.
        (Within band_width of a critical value the sampler's band-windowed
        minimum may read lower; no level here is that close.)"""
        scene = {"pinned": lambda: mx.random_scene(12, 5.0, seed=3),
                 "seed-26": lambda: mx.random_scene(14, 6.0, min_separation=1.0, seed=26),
                 "random-10": lambda: mx.random_scene(10, 6.0, seed=31)}[name]()
        r_max = mx.scene_r_max(scene)
        t = np.linspace(0.02 * r_max, 0.99 * r_max, 9)
        exact = mx.exact_critical_function(scene, t)
        sampled = mx.estimate_critical_function(
            scene, t, samples_per_level=3000, band_width=1e-5 * scene.bounding_radius,
            seed=2, r_max=r_max)
        assert np.all(sampled.chi >= exact.chi - 1e-3)
        assert np.flatnonzero(sampled.chi > exact.chi + 1e-3).tolist() == misses

    def test_seed_26_sampler_miss(self):
        """Next to site 7's site/wall critical value 0.6087, where the
        sampler at 800 samples per level on a 20-level grid read 0.409."""
        scene = mx.random_scene(14, 6.0, min_separation=1.0, seed=26)
        prof = mx.exact_critical_function(scene, [0.6093])
        assert prof.chi[0] == pytest.approx(0.028673, abs=1e-6)

    def test_two_sites_closed_form(self):
        """Below the half-gap no feature; from it, the bisector (chi = 0 at
        its midpoint); from 4.5 = (r - 1)/2, the site/wall points too."""
        t = np.array([0.5, 1.0, 1.5, 3.0, 4.5, 5.0])
        prof = mx.exact_critical_function(two_site_scene(), t)
        assert prof.chi[:4].tolist() == [1.0, 0.0, math.sqrt(1.0 - 1.0 / 2.25),
                                         math.sqrt(1.0 - 1.0 / 9.0)]
        assert prof.chi[4] == 0.0 and 0.0 < prof.chi[5] < 1.0
        assert prof.sample_count.tolist() == [0, 1, 1, 1, 3, 5]

    def test_single_sites(self):
        """One site off the origin meets only the wall: chi = 1 below
        (r - |p|)/2, 0 there, then below 1.  A site at the origin meets
        nothing below r/2 = r_max."""
        one = mx.SiteScene(np.array([[2.0, 0.0]]), 10.0)
        prof = mx.exact_critical_function(one, [1.0, 3.9, 4.0, 4.1, 5.9])
        assert prof.chi[:2].tolist() == [1.0, 1.0] and prof.chi[2] == 0.0
        assert np.all(prof.chi[3:] < 1.0) and prof.sample_count.tolist() == [0, 0, 1, 2, 2]
        origin = mx.SiteScene(np.array([[0.0, 0.0]]), 10.0)
        prof = mx.exact_critical_function(origin, [0.5, 2.5, 4.999])
        assert prof.r_max == 5.0 and prof.chi.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("t_grid, match", [
        ([0.5, math.nan], "finite"), ([math.inf], "finite"), ([1.0, 0.5], "increasing"),
        ([1.0, 1.0], "increasing"), ([0.0, 1.0], "positive"), ([[0.5, 1.0]], "1-d"),
        ([], "1-d"), ([1.0, 5.05], "below")])
    def test_bad_levels_rejected(self, t_grid, match):
        with pytest.raises(mx.InvalidSceneError, match=match):
            mx.exact_critical_function(two_site_scene(), t_grid)

    def test_rejects_three_dimensional_scene(self):
        with pytest.raises(mx.InvalidSceneError, match="planar"):
            mx.exact_critical_function(mx.random_scene(4, 5.0, seed=1, dim=3), [0.5])


def tilt(dim, seed):
    """Random orthonormal columns (dim, dim): the first two span a plane
    through the origin, the others are normal to it."""
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))[0]


def embedded(planar, q):
    """A planar scene's sites in the plane of q's first two columns."""
    return mx.SiteScene(planar.sites @ q[:, :2].T, planar.bounding_radius)


def lifted_level_points(planar, skeleton, t, q):
    """The eval_field samples of every kind of point of the medial set on
    level t of the planar scene embedded by q, one at a time, lifted off
    the plane along q[:, 2]:

    - on each edge, the middle of its s-range with s^2 <= t^2 - h^2 and the
      wall condition |m + s u|^2 + t^2 - h^2 - s^2 <= (r - t)^2, linear in s;
    - on each vertex line, the point with R^2 = R_v^2 + |z|^2 = t^2, for
      R_v <= t within the tie band;
    - on each edge with m.u != 0, where it meets the wall at level t;
    - on the chord of each site/wall set x.p_hat = a, |x|^2 = (r - t)^2,
      the middle of its part that no other site's bisector (every site's,
      not only the skeleton neighbours') cuts away.

    A point that eval_field does not place on level t (past the wall), or
    whose witnesses lack its sites or the wall, is dropped."""
    r = planar.bounding_radius
    plane, normal = q[:, :2].T, q[:, 2]
    found = []
    for e in range(len(skeleton.h)):
        h, m, u = skeleton.h[e], skeleton.mid[e], skeleton.u[e]
        (s0, s1), beta = skeleton.s[e], float(m @ u)
        if t < h:
            continue
        lo, hi = max(s0, -math.sqrt(t * t - h * h)), min(s1, math.sqrt(t * t - h * h))
        room = (r - t) ** 2 - float(m @ m) - t * t + h * h  # 2 beta s <= room
        if beta > 0.0:
            hi = min(hi, room / (2.0 * beta))
        elif beta < 0.0:
            lo = max(lo, room / (2.0 * beta))
        elif room < 0.0:
            continue
        if lo <= hi:
            s = 0.5 * (lo + hi)
            found.append((m + s * u, t * t - h * h - s * s, set(skeleton.pairs[e])))
        if beta != 0.0:
            s = (r * r - float(m @ m) + h * h - 2.0 * r * t) / (2.0 * beta)
            if s0 <= s <= s1:
                found.append((m + s * u, t * t - h * h - s * s, set(skeleton.pairs[e]) | {-1}))
    for v, R in zip(skeleton.vertices, skeleton.R):
        if R <= t * (1.0 + planar.tie_tolerance):
            found.append((v, t * t - R * R, set()))
    for i, p in enumerate(planar.sites):
        d = math.hypot(*p)
        if d == 0.0:
            continue
        a = (r * (r - 2.0 * t) + d * d) / (2.0 * d)
        if a * a > (r - t) ** 2:
            continue
        lo, hi = -math.sqrt((r - t) ** 2 - a * a), math.sqrt((r - t) ** 2 - a * a)
        along, perp = p / d, np.array([-p[1], p[0]]) / d
        for k, g in enumerate(planar.sites - p):  # c b <= e for each other site
            if k == i:
                continue
            c = 2.0 * float(perp @ g)
            e = float(planar.sites[k] @ planar.sites[k]) - d * d - 2.0 * a * float(along @ g)
            if c > 0.0:
                hi = min(hi, e / c)
            elif c < 0.0:
                lo = max(lo, e / c)
            elif e < 0.0:
                hi = -math.inf
        if lo <= hi:
            b = 0.5 * (lo + hi)
            found.append((a * along + b * perp, (r - t) ** 2 - a * a - b * b, {i, -1}))
    scene, points = embedded(planar, q), []
    for y, z2, need in found:
        x = y @ plane + math.sqrt(max(0.0, z2)) * normal
        if np.linalg.norm(x) >= r:
            continue
        sample = mx.eval_field(scene, x)
        if (abs(sample.R - t) <= planar.tie_tolerance * t
                and need <= set(sample.witness_ids)):
            points.append(sample)
    return points


def lifted_oracle(planar, skeleton, t_grid, q):
    """The smallest eval_field |grad| over the lifted level points of each
    level, 1 where there are none, and the number of points."""
    levels = [lifted_level_points(planar, skeleton, t, q) for t in t_grid.tolist()]
    return (np.array([min((np.linalg.norm(x.grad) for x in pts), default=1.0) for pts in levels]),
            [len(pts) for pts in levels])


# planar scenes to embed: random ones, and oracle scenes with a collinear
# row off the origin, a lattice, a site at the origin and sites near the wall
_LIFTED_SCENES = {"random-%d" % seed: lambda seed=seed: mx.random_scene(8 + seed % 9, 10.0,
                                                                      seed=seed)
                  for seed in (1, 4, 7, 10)}
_LIFTED_SCENES.update({name: _EXACT_SCENES[name] for name in (
    "row-4", "lattice-3", "hexagon-center", "near-wall", "two-sites", "three-sites")})


# d = 3 sites the exact path rejects (at radius 5): in general position,
# 1e-10 r off a plane through the origin (the tolerance is 1e-12 r), in a
# plane that misses the origin, and on a line through the origin (a line
# that misses it spans a plane through it, as "row-4" above does)
OFF_PLANE_SITES = {
    "general": mx.random_scene(4, 5.0, seed=1, dim=3).sites,
    "plane-1e-10-off": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.5, 5e-10]]),
    "plane-off-origin": np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0],
                                  [0.0, -1.0, 1.0]]),
    "line-through-origin": np.array([[1.0, 1.0, 1.0], [-0.5, -0.5, -0.5], [2.0, 2.0, 2.0]]),
}


class TestLiftedCriticalFunction:
    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("name", sorted(_LIFTED_SCENES))
    def test_matches_lifted_level_point_oracle(self, name, dim):
        """A planar scene in a random plane of R^3 and R^4, on a level grid
        and at every vertex value below r_max.  Compared in squares, and
        the features met counted on the grid (at a vertex value, edges and
        vertex lines end, where rounding decides what each side counts)."""
        planar = _LIFTED_SCENES[name]()
        q = tilt(dim, seed=dim)
        scene = embedded(planar, q)
        sk = mx.build_skeleton(planar)
        r_max = mx.scene_r_max(scene)
        grid = np.linspace(0.02 * r_max, 0.99 * r_max, 15)
        t = np.unique(np.concatenate([grid, sk.R[sk.R < r_max]]))
        prof = mx.exact_critical_function(scene, t)
        chi, counts = lifted_oracle(planar, sk, t, q)
        np.testing.assert_allclose(prof.chi ** 2, chi ** 2, rtol=0.0, atol=1e-12)
        on_grid = np.isin(t, grid)
        assert prof.sample_count[on_grid].tolist() == np.array(counts)[on_grid].tolist()
        assert prof.flags == () and prof.band_width == 0.0 and prof.r_max == r_max

    @pytest.mark.parametrize("name", sorted(OFF_PLANE_SITES))
    def test_rejects_sites_off_a_plane_through_the_origin(self, name):
        scene = mx.SiteScene(OFF_PLANE_SITES[name], 5.0)
        with pytest.raises(mx.InvalidSceneError, match="plane through the origin"):
            mx.exact_critical_function(scene, [0.5])
        with pytest.raises(mx.InvalidSceneError, match="plane through the origin"):
            mx.scene_r_max(scene)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_center_vertex_met_within_the_tie_band(self, dim):
        """A square wire's center vertex, where four sites tie, meets the
        levels one ulp below, at and one ulp above its R (F = R there, so
        chi reads below 1e-7); 1e-8 of R off it, it does not (chi reads
        above sqrt(2e-8)).  Rotated into a plane of R^3, the center's R is
        rounded out of the rotated coordinates."""
        planar = mx.SiteScene(_wire_scene().sites[:, :2], 4.0)
        scene = planar if dim == 2 else embedded(planar, tilt(3, seed=5))
        sk = axis_mod._in_plane(scene, None)[1]
        R = sk.R[np.argmin(np.linalg.norm(sk.vertices, axis=1))]
        t = np.array([R * (1.0 - 1e-8), np.nextafter(R, 0.0), R, np.nextafter(R, 2.0 * R),
                      R * (1.0 + 1e-8)])
        chi = mx.exact_critical_function(scene, t).chi
        assert np.all(chi[1:4] < 1e-7) and np.all(chi[[0, 4]] > 1e-4)


class TestSceneRMax:
    def test_two_site_depth_at_wall_vertex(self):
        assert abs(mx.scene_r_max(two_site_scene()) - 5.05) < 1e-9

    def test_single_site_depth_behind_site(self):
        scene = mx.SiteScene(sites=np.array([[1.0, 0.0]]), bounding_radius=10.0)
        assert abs(mx.scene_r_max(scene) - 5.5) < 1e-9

    def test_dominates_random_probes(self):
        scene = mx.random_scene(10, bounding_radius=6.0, seed=31)
        r_max = mx.scene_r_max(scene)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-6.0, 6.0, size=(4000, 2))
        pts = pts[np.linalg.norm(pts, axis=1) < 5.999]
        r = mx.r_batch(scene, pts)
        assert r.max() <= r_max + 1e-9

    def test_two_sites_in_a_tilted_plane(self):
        """Sites (-1, 1) and (1, 1): off the plane the bisector rises no
        higher than at its wall vertex (0, -49/11), where R = 61/11."""
        planar = mx.SiteScene(np.array([[-1.0, 1.0], [1.0, 1.0]]), 10.0)
        assert abs(mx.scene_r_max(embedded(planar, tilt(3, seed=2))) - 61.0 / 11.0) < 1e-9

    @pytest.mark.parametrize("dim", [3, 4])
    def test_lifted_dominates_random_probes(self, dim):
        """No probe of the lifted domain reads above r_max, which is at
        least the planar r_max and is reached off the plane."""
        planar = mx.random_scene(10, bounding_radius=6.0, seed=31)
        scene = embedded(planar, tilt(dim, seed=dim))
        r_max = mx.scene_r_max(scene)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-6.0, 6.0, size=(40000, dim))
        pts = pts[np.linalg.norm(pts, axis=1) < 5.999]
        assert mx.r_batch(scene, pts).max() <= r_max + 1e-9
        assert r_max > mx.scene_r_max(planar)
