"""Voronoi skeleton construction and the (lambda, alpha) filtration."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

import medaxis as mx
import medaxis.axis as axis_mod


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


def all_pairs_skeleton(scene):
    """Reference construction: every site pair, bounded by every other site."""
    n = len(scene.sites)
    every = [(i, j, tuple(k for k in range(n) if k not in (i, j)))
             for i in range(n) for j in range(i + 1, n)]
    original = axis_mod._delaunay_edges
    axis_mod._delaunay_edges = lambda s: every
    try:
        return mx.build_skeleton(scene)
    finally:
        axis_mod._delaunay_edges = original


def assert_same_skeleton(got, ref):
    assert [e.pair for e in got.edges] == [e.pair for e in ref.edges]
    assert got.vertices.shape == ref.vertices.shape
    if len(ref.vertices) == 0:
        return
    gap = cdist(got.vertices, ref.vertices)
    match = gap.argmin(axis=1)
    assert sorted(match) == list(range(len(ref.vertices)))
    assert gap[np.arange(len(match)), match].max() < 1e-9
    for vd, k in zip(got.vertex_data, match):
        assert vd.witness_sites == ref.vertex_data[k].witness_sites
        assert vd.has_wall == ref.vertex_data[k].has_wall


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


class TestSkeleton:
    def test_two_site_bisector(self):
        sk = mx.build_skeleton(two_site_scene())
        assert len(sk.edges) == 1
        edge = sk.edges[0]
        assert edge.pair == (0, 1)
        assert abs(edge.h - 1.0) < 1e-12
        assert abs(edge.s0 + 99.0 / 20.0) < 1e-9
        assert abs(edge.s1 - 99.0 / 20.0) < 1e-9
        assert edge.wall0 and edge.wall1

    def test_two_site_wall_vertices(self):
        sk = mx.build_skeleton(two_site_scene())
        for vd in sk.vertex_data:
            assert abs(abs(vd.point[1]) - 4.95) < 1e-9
            assert abs(vd.R - 101.0 / 20.0) < 1e-9
            assert abs(vd.F - vd.R) < 1e-9   # wall vertex is a balance point
            assert vd.has_wall

    def test_three_site_circumcenter_vertex(self):
        scene = mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                             bounding_radius=10.0)
        sk = mx.build_skeleton(scene)
        inner = [vd for vd in sk.vertex_data if not vd.has_wall]
        assert len(inner) == 1
        assert np.allclose(inner[0].point, [0.0, 0.0], atol=1e-9)
        assert abs(inner[0].R - 1.0) < 1e-9
        assert inner[0].witness_sites == (0, 1, 2)

    def test_three_site_diagonal_wall_clip(self):
        scene = mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                             bounding_radius=10.0)
        sk = mx.build_skeleton(scene)
        expect_r = 10.0 - 99.0 / (20.0 - math.sqrt(2.0))
        diag = [vd for vd in sk.vertex_data
                if vd.has_wall and len(vd.witness_sites) == 2 and 2 in vd.witness_sites]
        assert len(diag) == 2
        for vd in diag:
            assert abs(vd.R - expect_r) < 1e-9

    def test_single_site_skeleton_is_empty(self):
        scene = mx.SiteScene(sites=np.array([[1.0, 0.0]]), bounding_radius=10.0)
        sk = mx.build_skeleton(scene)
        assert sk.edges == [] and sk.vertices.shape == (0, 2)
        assert sk.flags == ("empty-skeleton",)
        ax = mx.filter_axis(sk, 0.75, 0.5)
        assert ax.is_empty and "empty-axis" in ax.flags
        assert mx.scene_svg(scene, axis=ax, skeleton=sk).startswith("<svg")

    @pytest.mark.parametrize("name", sorted(_ORACLE_SCENES))
    def test_neighbor_pruning_matches_all_pairs(self, name):
        scene = mx.SiteScene(sites=_ORACLE_SCENES[name](), bounding_radius=10.0)
        assert_same_skeleton(mx.build_skeleton(scene), all_pairs_skeleton(scene))

    @pytest.mark.parametrize("seed, half, slope", [
        (372, 3.0, 0.5), (16, 3.0, 0.5), (29, 3.0, 0.5), (39, 3.0, 0.5),
        (36, 4.0, -1.0), (89, 4.0, -1.0)])
    def test_sites_dropped_by_qhull_are_kept(self, seed, half, slope):
        # Qhull leaves sites of these rows out of its triangulation (the
        # last two also get its point at infinity in a triangle)
        scene = nearly_collinear_row(seed, half, slope)
        sk = mx.build_skeleton(scene)
        assert [e.pair for e in sk.edges] == [(k, k + 1) for k in range(5)]
        assert_same_skeleton(sk, all_pairs_skeleton(scene))

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
        data = mx.build_skeleton(scene).vertex_data
        R = np.array([vd.R for vd in data])
        F = np.array([vd.F for vd in data])
        assert len(data) == vertices
        assert hashlib.sha256(R.tobytes() + F.tobytes()).hexdigest() == digest


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

    def test_nonpositive_lambda_rejected(self):
        sk = mx.build_skeleton(two_site_scene())
        with pytest.raises(mx.InvalidSceneError):
            mx.filter_axis(sk, 0.0, 0.5)

    def test_alpha_monotonicity_nested(self):
        sk = mx.build_skeleton(two_site_scene())
        small = mx.filter_axis(sk, 0.75, 0.25)
        large = mx.filter_axis(sk, 0.75, 0.5)
        # growing alpha shrinks the surviving set
        assert large.total_length() <= small.total_length() + 1e-12

    def test_segment_endpoint_data_matches_field(self):
        scene = two_site_scene()
        sk = mx.build_skeleton(scene)
        ax = mx.filter_axis(sk, 0.75, 0.5)
        for seg, data in zip(ax.segments, ax.segment_data):
            for vid, row in zip(seg, data):
                p = ax.vertices[vid]
                s = mx.eval_field(scene, p, alpha=0.5)
                assert abs(row[0] - s.R) < 1e-9


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
        for edge in sk.edges:
            kept = []
            for seg in ax.segments:
                ends = ax.vertices[list(seg)]
                offs = ends - edge.mid
                if np.abs(offs @ np.array([-edge.u[1], edge.u[0]])).max() > 1e-9:
                    continue
                s_vals = np.sort(offs @ edge.u)
                if s_vals[0] >= edge.s0 - 1e-9 and s_vals[1] <= edge.s1 + 1e-9:
                    kept.append((s_vals[0], s_vals[1]))
            for u in rng.uniform(0.0, 1.0, size=8):
                s = edge.s0 + u * (edge.s1 - edge.s0)
                inside = any(a + band <= s <= b - band for a, b in kept)
                outside = all(s <= a - band or s >= b + band for a, b in kept)
                if not inside and not outside:
                    continue   # within the boundary band, either answer is fine
                x = edge.mid + s * edge.u
                if mx.axis_membership(scene, x, lam, alpha) != inside:
                    disagreements += 1
        assert disagreements == 0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["lattice", "polygon", "polygon-center", "row",
                                 "near-wall", "random"]),
           size=st.integers(1, 60), seed=st.integers(0, 2 ** 16),
           lam=st.floats(0.05, 1.0), alpha=st.floats(0.0, 0.5))
    def test_kept_midpoints_are_members(self, kind, size, seed, lam, alpha):
        scene = adversarial_scene(kind, size, seed)
        ax = mx.filter_axis(mx.build_skeleton(scene), lam, alpha)
        for a, b in ax.segments:
            mid = 0.5 * (ax.vertices[a] + ax.vertices[b])
            assert mx.axis_membership(scene, mid, lam, alpha)

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
