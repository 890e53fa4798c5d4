"""Hausdorff and intrinsic comparisons between filtered axes, plus the
closed-form constant formulary."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import medaxis as mx
from medaxis import experiments, metrics
from medaxis.experiments import ExperimentConfig, run_gh, run_sweep_lambda
from medaxis.metrics import (_PROJECT_CHUNK, _axis_samples, _ball_counts, _pair_lengths,
                             _pieces, _project)


def two_site_scene():
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                        bounding_radius=10.0)


def two_site_axes():
    sk = mx.build_skeleton(two_site_scene())
    return mx.filter_axis(sk, 0.70, 0.5), mx.filter_axis(sk, 0.75, 0.5)


def graphs(*axes):
    return [mx.build_geodesic_graph(ax) for ax in axes]


class TestHausdorff:
    def test_nested_direction_is_exactly_zero(self):
        loose, tight = two_site_axes()
        assert mx.directed_hausdorff(tight, loose, resolution=0.01) == 0.0

    def test_two_site_gap_value(self):
        loose, tight = two_site_axes()
        expect = math.sqrt(3.0) - 4.0 / 3.0
        d = mx.hausdorff_distance(loose, tight, resolution=0.01)
        assert abs(d - expect) <= 0.01

    def test_symmetric(self):
        loose, tight = two_site_axes()
        d1 = mx.hausdorff_distance(loose, tight, resolution=0.01)
        d2 = mx.hausdorff_distance(tight, loose, resolution=0.01)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_identical_axes_at_zero(self):
        loose, _ = two_site_axes()
        assert mx.hausdorff_distance(loose, loose, resolution=0.01) == 0.0


class TestSampling:
    def test_spacing_controls_gaps(self):
        loose, _ = two_site_axes()
        pts = mx.sample_axis_points(loose, spacing=0.05)
        # each branch is a vertical segment; successive samples stay close
        for sign in (-1.0, 1.0):
            branch = np.sort(pts[np.sign(pts[:, 1]) == sign][:, 1])
            assert np.diff(branch).max() <= 0.05 + 1e-12

    def test_isolated_points_included(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 1.2, 0.5)
        pts = mx.sample_axis_points(ax, spacing=0.05)
        assert len(pts) == 2
        assert np.allclose(np.abs(pts[:, 1]), 4.95, atol=1e-9)


class TestGeodesics:
    def test_connected_axis_diameter_is_its_length(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 0.4, 0.5)   # full bisector survives
        graph = mx.build_geodesic_graph(ax)
        assert mx.geodesic_diameter(graph) == 9.9

    def test_disconnected_axis_has_infinite_diameter(self):
        _, tight = two_site_axes()
        graph = mx.build_geodesic_graph(tight)
        assert math.isinf(mx.geodesic_diameter(graph))

    def test_path_on_a_segment_is_straight(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 0.4, 0.5)
        graph = mx.build_geodesic_graph(ax)
        length, path = mx.geodesic(graph, np.array([0.0, -2.0]), np.array([0.0, 3.0]))
        assert length == pytest.approx(5.0, abs=1e-12)
        # exactly the two projections, with no vertex between them
        assert path.shape == (2, 2)
        assert np.allclose(path, [[0.0, -2.0], [0.0, 3.0]], atol=1e-12)

    def test_disconnected_endpoints_give_inf(self):
        _, tight = two_site_axes()
        graph = mx.build_geodesic_graph(tight)
        length, path = mx.geodesic(graph, np.array([0.0, -2.5]), np.array([0.0, 2.5]))
        assert math.isinf(length)
        assert len(path) == 0

    def test_empty_axis_is_named(self):
        sk = mx.build_skeleton(two_site_scene())
        graph = mx.build_geodesic_graph(mx.filter_axis(sk, 50.0, 0.5))
        assert graph.axis.is_empty
        with pytest.raises(ValueError, match="axis is empty"):
            mx.geodesic(graph, [0.0, 0.0], [1.0, 1.0])


def refined_oracle(axis, resolution):
    """The refined geodesic graph: every segment cut into pieces of length
    <= resolution, all-sources Dijkstra over the nodes.  Returns the nodes
    (axis vertices first, then each segment's interior points) and the
    node-to-node distance table."""
    points = [axis.vertices]
    edges = []
    next_id = len(axis.vertices)
    for u, v in axis.segments:
        a, b = axis.vertices[u], axis.vertices[v]
        seg_len = np.linalg.norm(b - a)
        pieces = max(math.ceil(seg_len / resolution), 1)
        t = np.arange(1, pieces)[:, None] / pieces
        points.append(a + t * (b - a))
        ids = [u, *range(next_id, next_id + pieces - 1), v]
        next_id += pieces - 1
        edges += [(p, q, seg_len / pieces) for p, q in zip(ids[:-1], ids[1:])]
    pts = np.vstack(points)
    rows, cols, w = np.array(edges).T if edges else np.empty((3, 0))
    mat = csr_matrix((w, (rows.astype(int), cols.astype(int))),
                     shape=(len(pts), len(pts)))
    return pts, dijkstra(mat, directed=False)


# rows (c_s, c_t, c_z) of the constraints (c_s, c_t, c_z) . (s, t, z) <= rhs
LP_ROWS = np.array([[-1, -1, 1], [-1, 1, 1], [1, -1, 1], [1, 1, 1],
                    [-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0]], float)
LP_TIGHT = [list(c) for c in itertools.combinations(range(8), 3)
            if abs(np.linalg.det(LP_ROWS[list(c)])) > 0.5]


def lp_vertex_diameter(axis, vdist):
    """Diameter by brute force: for two distinct segments, the distance of
    the points at arc lengths (s, t) is the smallest of four linear
    functions, so its maximum over the rectangle is a vertex of the linear
    program max z.  Every vertex (three tight constraints out of eight) is
    solved for, and the feasible ones are kept."""
    seg = axis.segments
    length = np.linalg.norm(axis.vertices[seg[:, 1]] - axis.vertices[seg[:, 0]], axis=1)
    a, b = np.array(list(itertools.permutations(range(len(seg)), 2))).T
    (a0, a1), (b0, b1), la, lb = seg[a].T, seg[b].T, length[a], length[b]
    zero = np.zeros_like(la)
    rhs = np.stack([vdist[a0, b0], vdist[a0, b1] + lb, la + vdist[a1, b0],
                    la + vdist[a1, b1] + lb, zero, la, zero, lb], axis=1)
    x = np.stack([np.linalg.solve(LP_ROWS[t], rhs[:, t].T).T for t in LP_TIGHT])
    scale = max(float(np.abs(axis.vertices).max()), 1.0)
    feasible = np.all(x @ LP_ROWS.T <= rhs + 1e-12 * scale, axis=2)
    return max(float(vdist.max()), float(x[..., 2][feasible].max()))


def hand_axis(vertices, segments, isolated=(), components=None):
    vertices = np.array(vertices, float).reshape(-1, 2)
    segments = np.array(segments, int).reshape(-1, 2)
    if components is None:
        components = np.zeros(len(vertices), int)
    return mx.FilteredAxis(lam=1.0, alpha=0.0, vertices=vertices, segments=segments,
                           isolated=np.array(isolated, int),
                           component_ids=np.array(components, int))


def random_axis(seed):
    scene = mx.random_scene(30, 10.0, seed=seed, min_separation=0.8)
    return mx.filter_axis(mx.build_skeleton(scene), 0.1, 0.05)


class TestExactGeodesics:
    RES = 0.2
    SEEDS = (1, 2, 3)

    def test_hand_built_diameters(self):
        h = math.sqrt(3.0) / 2.0
        triangle = hand_axis([[0, 0], [1, 0], [0.5, h]], [[0, 1], [1, 2], [2, 0]])
        graph = mx.build_geodesic_graph(triangle)
        assert graph.dist.max() == pytest.approx(1.0)
        assert mx.geodesic_diameter(graph) == pytest.approx(1.5, abs=1e-12)
        # theta graph: P and Q joined by a segment of length 0.2 and by two
        # paths of three unit segments; the farthest points are the middles
        # of the two paths, and the best pair with a segment end reads 2.6
        r = math.sqrt(0.84)
        theta = hand_axis([[0, 0], [0.2, 0], [-0.4, r], [0.6, r], [-0.4, -r], [0.6, -r]],
                          [[0, 1], [0, 2], [2, 3], [3, 1], [0, 4], [4, 5], [5, 1]])
        cases = [
            (theta, 3.0),
            (hand_axis([[0, 0], [3, 4]], [[0, 1]]), 5.0),
            (hand_axis([[0, 0], [1, 0], [0, 2], [-3.5, 0]], [[0, 1], [0, 2], [3, 0]]), 5.5),
            (hand_axis([], []), 0.0),
            (hand_axis([[1, 2]], [], isolated=[0]), 0.0),
            (hand_axis([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1], [2, 3]],
                       components=[0, 0, 1, 1]), math.inf),
        ]
        for axis, expect in cases:
            assert mx.geodesic_diameter(mx.build_geodesic_graph(axis)) == \
                pytest.approx(expect, abs=1e-12)

    def test_relation_points_are_the_refined_nodes(self):
        axis = random_axis(1)
        pts, _ = refined_oracle(axis, self.RES)
        assert np.array_equal(mx.sample_axis_points(axis, self.RES), pts)

    def test_random_axes_against_oracle_and_brute_force(self):
        cycles = 0
        for seed in self.SEEDS:
            axis = random_axis(seed)
            n_v = len(axis.vertices)
            cycles += len(axis.segments) - n_v + 1
            pts, oracle = refined_oracle(axis, self.RES)
            assert np.isfinite(oracle).all()
            scale = max(float(np.abs(axis.vertices).max()), 1.0)
            graph = mx.build_geodesic_graph(axis)
            diam = mx.geodesic_diameter(graph)
            assert oracle.max() - 1e-12 * scale <= diam <= oracle.max() + self.RES
            assert diam == pytest.approx(lp_vertex_diameter(axis, oracle[:n_v, :n_v]),
                                         abs=1e-12 * scale)
            samples = _axis_samples(axis, self.RES)
            i, j = np.divmod(np.arange(len(pts) ** 2), len(pts))
            exact = _pair_lengths(graph, *samples[1:], i, j)[0].reshape(len(pts), -1)
            assert np.abs(exact - oracle).max() <= 1e-12 * scale
        assert cycles > 0

    def test_path_length_matches_polyline(self):
        rng = np.random.default_rng(4)
        for seed in self.SEEDS:
            axis = random_axis(seed)
            graph = mx.build_geodesic_graph(axis)
            pts, oracle = refined_oracle(axis, self.RES)
            for _ in range(10):
                i, j = rng.integers(0, len(pts), size=2)
                length, path = mx.geodesic(graph, pts[i], pts[j])
                assert length == pytest.approx(oracle[i, j], abs=1e-9)
                assert np.allclose(path[[0, -1]], pts[[i, j]], atol=1e-9)
                assert np.linalg.norm(np.diff(path, axis=0), axis=1).sum() == \
                    pytest.approx(length, abs=1e-9)


def einsum_project(points, axis):
    """``_project`` in its first form, over (n, m, 2) blocks with einsum, as
    its bit-for-bit reference."""
    ends, _ = _pieces(axis)
    a = axis.vertices[ends[:, 0]]
    ab = axis.vertices[ends[:, 1]] - a
    ab2 = np.einsum("ij,ij->i", ab, ab)
    safe = np.where(ab2 > 0.0, ab2, 1.0)
    ap = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("ijk,jk->ij", ap, ab) / safe, 0.0, 1.0)
    diff = ap - t[:, :, None] * ab[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    k = d.argmin(axis=1)
    rows = np.arange(len(k))
    return d[rows, k], k, t[rows, k]


class TestProjection:
    def test_matches_einsum_form_bit_for_bit(self):
        """Random axes with isolated points and the nested two-site axes,
        queried at their own samples (ties between pieces that share a
        vertex) and at uniform points, across a chunk boundary."""
        rng = np.random.default_rng(11)
        loose, tight = two_site_axes()
        axes = [mx.filter_axis(mx.build_skeleton(mx.random_scene(
            30, 10.0, seed=seed, min_separation=0.8)), 1.5, 0.3) for seed in (1, 2, 3)]
        assert all(len(axis.isolated) for axis in axes)
        cases = [(axis, axis) for axis in axes] + [(loose, tight), (tight, loose)]
        for sampled, target in cases:
            points = np.vstack([mx.sample_axis_points(sampled, 0.2),
                                rng.uniform(-10.0, 10.0, size=(1100, 2))])
            assert len(points) > 2 * _PROJECT_CHUNK and len(points) % _PROJECT_CHUNK
            got, want = _project(points, target), einsum_project(points, target)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def sampled_hausdorff(axis_a, axis_b, resolution):
    """``directed_hausdorff`` in its first form, as its bit-for-bit
    reference: every sample of axis_a projected onto axis_b, then values
    within 1e-12 of the samples' coordinate scale collapse to 0."""
    if axis_a.is_empty:
        return 0.0
    if axis_b.is_empty:
        return math.inf
    samples = mx.sample_axis_points(axis_a, resolution)
    value = float(einsum_project(samples, axis_b)[0].max())
    scale = max(float(np.abs(samples).max()), 1.0)
    return value if value > 1e-12 * scale else 0.0


@st.composite
def axis_pairs(draw):
    """Two axes of a ``random_scene`` skeleton at random (lambda, alpha):
    nested (the second at a larger lambda), jittered (the second of the
    scene jittered as ``run_perturb`` jitters it), identical, isolated
    points only (the segments dropped), or with the second empty."""
    seed = draw(st.integers(0, 2 ** 16))
    scene = mx.random_scene(draw(st.integers(2, 14)), 10.0, seed=seed, min_separation=1.0)
    skeleton = mx.build_skeleton(scene)
    lam = draw(st.floats(0.05, 3.0))
    alpha = draw(st.floats(0.0, 1.5))
    first = mx.filter_axis(skeleton, lam, alpha)
    kind = draw(st.sampled_from(["nested", "jittered", "identical", "isolated", "empty"]))
    if kind == "nested":
        second = mx.filter_axis(skeleton, lam + draw(st.floats(0.0, 1.0)), alpha)
    elif kind == "jittered":
        eps = draw(st.sampled_from([1e-9, 1e-5, 1e-3, 0.05, 0.3]))
        try:
            moved = experiments._jitter(scene, eps, np.random.default_rng([seed, 0]))
        except mx.InvalidSceneError:
            moved = scene
        second = mx.filter_axis(mx.build_skeleton(moved), lam, alpha)
    elif kind == "identical":
        second = mx.filter_axis(skeleton, lam, alpha)
    elif kind == "isolated":
        first = hand_axis(first.vertices, [], isolated=np.arange(len(first.vertices)))
        second = mx.filter_axis(skeleton, lam * draw(st.floats(0.5, 2.0)), alpha)
    else:
        second = mx.filter_axis(skeleton, 1e3, alpha)
    return first, second, draw(st.sampled_from([0.003, 0.01, 0.05, 0.4, 20.0]))


class TestPrunedHausdorff:
    """``directed_hausdorff`` samples only the segments whose end bound can
    raise the vertices' maximum, with the bits of sampling them all."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(pair=axis_pairs())
    def test_matches_every_sample_bit_for_bit(self, pair):
        first, second, resolution = pair
        for a, b in ((first, second), (second, first)):
            got = mx.directed_hausdorff(a, b, resolution)
            assert type(got) is float and got == sampled_hausdorff(a, b, resolution)

    def test_prune_samples_few_segments_of_a_jittered_pair(self, monkeypatch):
        """On a jittered pair every segment end lies near the other axis,
        so most segments are neither sampled nor measured."""
        scene = mx.random_scene(14, 10.0, seed=3, min_separation=1.0)
        moved = experiments._jitter(scene, 1e-3, np.random.default_rng([3, 0]))
        a, b = (mx.filter_axis(mx.build_skeleton(s), 0.3, 0.2) for s in (scene, moved))
        want = sampled_hausdorff(a, b, 0.01)
        sampled = []
        interior = metrics._interior

        def counted(start, end, length, spacing):
            sampled.append(len(length))
            return interior(start, end, length, spacing)

        monkeypatch.setattr(metrics, "_interior", counted)
        assert mx.directed_hausdorff(a, b, 0.01) == want > 0.0
        assert len(sampled) == 1 and sampled[0] <= len(a.segments) // 4

    def test_maximum_inside_a_segment(self):
        """A straight axis over a V whose arms end at its ends: both ends
        lie on the V, and the farthest sample is the middle one."""
        straight = hand_axis([[-1, 1], [1, 1]], [[0, 1]])
        vee = hand_axis([[-1, 1], [0, 0], [1, 1]], [[0, 1], [1, 2]])
        got = mx.directed_hausdorff(straight, vee, 0.01)
        assert got == sampled_hausdorff(straight, vee, 0.01)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert mx.directed_hausdorff(vee, straight, 0.01) == 1.0

    def test_scale_near_the_collapse_is_read_off_every_sample(self, monkeypatch):
        """Two parallel unit segments one ulp over 1e-12 apart: the value
        lies just above the collapse of the unit scale, so the scale is
        read off every sample, and a larger one collapses the value."""
        gap = np.nextafter(1e-12, 1.0)
        upper = hand_axis([[0, gap], [1, gap]], [[0, 1]])
        lower = hand_axis([[0, 0], [1, 0]], [[0, 1]])
        sample = metrics.sample_axis_points
        read = []

        def spy(axis, spacing):
            read.append(axis)
            return sample(axis, spacing)

        monkeypatch.setattr(metrics, "sample_axis_points", spy)
        assert mx.directed_hausdorff(upper, lower, 0.1) == gap == \
            sampled_hausdorff(upper, lower, 0.1)
        assert read == [upper]

        def wider(axis, spacing):
            return np.vstack([sample(axis, spacing), [[1.5, 0.0]]])

        monkeypatch.setattr(metrics, "sample_axis_points", wider)
        assert mx.directed_hausdorff(upper, lower, 0.1) == 0.0  # gap <= 1e-12 * 1.5
        assert mx.directed_hausdorff(lower, upper, 0.1) == 0.0

    def test_everything_within_the_collapse_is_not_sampled(self, monkeypatch):
        """A nested direction returns 0 off the vertices and the bounds."""
        loose, tight = two_site_axes()
        monkeypatch.setattr(metrics, "_interior", None)
        monkeypatch.setattr(metrics, "sample_axis_points", None)
        assert mx.directed_hausdorff(tight, loose, 0.01) == 0.0
        assert mx.directed_hausdorff(loose, loose, 0.01) == 0.0


class TestTreeOrder:
    """``gh_distortion`` reads a draw from a ball holding every sample off
    ``tree.indices``: an unsorted one-point ball lists its hits in that order."""

    def test_one_point_balls_follow_tree_indices(self):
        rng = np.random.default_rng(5)
        clouds = [rng.uniform(-1.0, 1.0, size=(n, 2)) for n in (1, 9, 700)]
        clouds.append(mx.sample_axis_points(random_axis(1), 0.08))
        partial = 0
        for pts in clouds:
            tree = cKDTree(pts)
            position = np.empty(len(pts), int)
            position[tree.indices] = np.arange(len(pts))
            for x in rng.uniform(-2.0, 2.0, size=(20, 2)):
                far = float(np.linalg.norm(pts - x, axis=1).max())
                for radius in (far * (1.0 + 1e-9), 2.0 * far + 1.0):
                    assert tree.query_ball_point(x, radius) == tree.indices.tolist()
                hits = tree.query_ball_point(x, 0.3 * far)
                assert np.all(np.diff(position[hits]) > 0)
                partial += 1 < len(hits) < len(pts)
        assert partial >= 20


@st.composite
def sample_clouds(draw):
    """1 to 30 samples scattered in a square or on a horizontal or vertical
    line (a box of zero width), and 12 query points in and around them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.uniform(-3.0, 3.0, size=(draw(st.integers(1, 30)), 2))
    line = draw(st.sampled_from([None, 0, 1]))
    if line is not None:
        pts[:, line] = pts[0, line]
    queries = np.vstack([rng.uniform(-6.0, 6.0, size=(10, 2)), pts[:2]])
    return pts, queries


class TestBallCounts:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(cloud=sample_clouds())
    def test_counts_match_the_tree_walk(self, cloud):
        """At each query point's farthest-corner distance, just below and
        just above it, and well past it, the counts equal the tree's walk."""
        pts, queries = cloud
        tree = cKDTree(pts)
        far = np.linalg.norm(np.maximum(np.abs(queries - tree.mins),
                                        np.abs(queries - tree.maxes)), axis=1)
        for factor in (0.5, 1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9,
                       1.0 + 2e-9, 2.0):
            for radius in far * factor:
                got = _ball_counts(tree, queries, radius)
                want = tree.query_ball_point(queries, radius, return_length=True)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_only_partial_balls_are_walked(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])  # a box of zero width
        queries = np.array([[0.5, 0.0], [3.0, 0.0], [0.5, 0.8]])
        walked = []

        class Tree(cKDTree):
            def query_ball_point(self, x, *args, **kwargs):
                walked.append(np.array(x))
                return super().query_ball_point(x, *args, **kwargs)

        assert _ball_counts(Tree(pts), queries, 1.0).tolist() == [3, 0, 3]
        assert len(walked) == 1 and walked[0].tolist() == [[3.0, 0.0]]


def per_draw_distortion(graph_a, graph_b, radius, sample_pairs, resolution, seed,
                        full_rows=None):
    """``gh_distortion`` written loop by loop, as its oracle: the exhaustive
    relation from nested loops over the sorted ball rows, and for a sampled
    relation one ball query and one ``rng.integers`` call per draw.
    Returns (distortion, exhaustive); a list given as ``full_rows`` gets,
    per draw, whether its ball held every sample."""
    sa = _axis_samples(graph_a.axis, resolution)
    sb = _axis_samples(graph_b.axis, resolution)
    tree_b = cKDTree(sb[0])
    cnt_a = tree_b.query_ball_point(sa[0], radius, return_length=True)
    total = int(cnt_a.sum())
    rng = np.random.default_rng(seed)
    exhaustive = total * total <= sample_pairs
    if exhaustive:
        pa, pb = [], []
        for i, row in enumerate(tree_b.query_ball_point(sa[0], radius)):
            for j in sorted(row):
                pa.append(i)
                pb.append(j)
        pa, pb = np.array(pa, int), np.array(pb, int)
        i1, i2 = [g.ravel() for g in np.meshgrid(np.arange(total), np.arange(total),
                                                  indexing="ij")]
    else:
        pa = rng.choice(len(sa[0]), size=2 * sample_pairs, p=cnt_a / total)
        pb = np.empty(2 * sample_pairs, int)
        for k, i in enumerate(pa):
            row = tree_b.query_ball_point(sa[0][i], radius)
            pb[k] = row[rng.integers(0, len(row))]
            if full_rows is not None:
                full_rows.append(len(row) == len(sb[0]))
        i1, i2 = np.arange(sample_pairs), np.arange(sample_pairs, 2 * sample_pairs)
    da = _pair_lengths(graph_a, *sa[1:], pa[i1], pa[i2])[0]
    db = _pair_lengths(graph_b, *sb[1:], pb[i1], pb[i2])[0]
    with np.errstate(invalid="ignore"):
        gaps = np.abs(da - db)
    gaps[np.isinf(da) & np.isinf(db)] = 0.0
    return (float(gaps.max()) if len(gaps) else 0.0), exhaustive


def audit_scene():
    """A scene shaped like the benchmark's stability audit scenes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("bench_scenes", path)
    bench_scenes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_scenes)
    return mx.SiteScene(sites=bench_scenes.audit_sites(np.random.default_rng(2), 12),
                        bounding_radius=10.0)


class TestDistortion:
    def test_self_distortion_bounded_by_radius(self):
        loose, _ = two_site_axes()
        res = 0.01
        distortion = mx.gh_distortion(*graphs(loose, loose), radius=res,
                                      resolution=res, seed=0)
        assert 0.0 < distortion <= 2.0 * res

    def test_radius_below_gap_is_not_surjective(self):
        loose, tight = two_site_axes()
        with pytest.raises(mx.SurjectivityError):
            mx.gh_distortion(*graphs(loose, tight), radius=1e-4, resolution=0.01, seed=0)

    def test_small_graphs_enumerate_all_pairs(self):
        """A relation of m pairs with m * m <= sample_pairs is enumerated:
        the distortion is the brute-force maximum over all 4-tuples."""
        loose, tight = two_site_axes()
        res, radius = 0.5, 0.45
        graph_a, graph_b = graphs(loose, tight)
        sa, sb = _axis_samples(loose, res), _axis_samples(tight, res)
        related = np.argwhere(cdist(sa[0], sb[0]) <= radius)
        na, nb = len(sa[0]), len(sb[0])
        i, j = np.divmod(np.arange(na * na), na)
        table_a = _pair_lengths(graph_a, *sa[1:], i, j)[0].reshape(na, na)
        i, j = np.divmod(np.arange(nb * nb), nb)
        table_b = _pair_lengths(graph_b, *sb[1:], i, j)[0].reshape(nb, nb)
        brute = 0.0
        for a, b in related:
            for a2, b2 in related:
                da, db = table_a[a, a2], table_b[b, b2]
                brute = max(brute, 0.0 if math.isinf(da) and math.isinf(db) else abs(da - db))
        m = len(related)
        got = mx.gh_distortion(graph_a, graph_b, radius=radius, sample_pairs=m * m,
                               resolution=res, seed=0)
        assert got == brute > 0.0
        assert per_draw_distortion(graph_a, graph_b, radius, m * m, res, 0) == (got, True)

    def test_two_isolated_points_read_zero(self):
        sk = mx.build_skeleton(two_site_scene())
        ax = mx.filter_axis(sk, 1.2, 0.5)   # two isolated points
        assert mx.gh_distortion(*graphs(ax, ax), radius=0.01, resolution=0.01,
                                seed=0) == 0.0

    def test_sampled_relation_matches_per_draw_oracle(self):
        loose, tight = two_site_axes()
        for seed in (0, 5):
            got = mx.gh_distortion(*graphs(loose, tight), radius=0.5, resolution=0.01,
                                   seed=seed)
            assert (got, False) == per_draw_distortion(*graphs(loose, tight), 0.5, 2000,
                                                       0.01, seed)

    def test_audit_scene_matches_per_draw_oracle(self, monkeypatch):
        """Every relation of a sweep and a GH run on an audit scene, at the
        benchmark's settings, reads as the per-draw oracle does, with draws
        from balls that hold every sample and from balls that do not."""
        seen, full_rows = [], []
        measure = experiments.gh_distortion

        def checked(graph_a, graph_b, radius, sample_pairs, resolution, seed):
            got = measure(graph_a, graph_b, radius, sample_pairs=sample_pairs,
                          resolution=resolution, seed=seed)
            want, exhaustive = per_draw_distortion(graph_a, graph_b, radius,
                                                   sample_pairs, resolution, seed,
                                                   full_rows)
            assert got == want
            seen.append(exhaustive)
            return got

        monkeypatch.setattr(experiments, "gh_distortion", checked)
        common = dict(scene=audit_scene(), t_count=7, resolution=0.08, sample_pairs=100,
                      seed=7)
        run_sweep_lambda(ExperimentConfig(lambda_grid=(0.60, 0.65, 0.70),
                                          alpha_grid=(0.6,), **common))
        # mu_tilde is defined at alpha 0.2, so gh measures all three relations
        run_gh(ExperimentConfig(lambda_grid=(0.5,), alpha_grid=(0.2,),
                                epsilons=(1e-5, 1e-4, 1e-3), **common))
        assert len(seen) >= 3 and not all(seen)
        assert True in full_rows and False in full_rows

    def test_deterministic_in_seed(self):
        loose, tight = two_site_axes()
        d1 = mx.gh_distortion(*graphs(loose, tight), radius=0.5, resolution=0.01, seed=5)
        d2 = mx.gh_distortion(*graphs(loose, tight), radius=0.5, resolution=0.01, seed=5)
        assert isinstance(d1, float) and d1 == d2


def filtered_pair():
    sk = mx.build_skeleton(mx.random_scene(8, 6.0, seed=3, min_separation=1.0))
    return mx.filter_axis(sk, 0.2, 0.1), mx.filter_axis(sk, 0.25, 0.1)


class TestBadScalars:
    """A bad resolution, radius or pair count is rejected as bad input
    instead of reading as a distance."""

    @pytest.mark.parametrize("resolution", [-1.0, math.nan, 0.0])
    def test_hausdorff_rejects_resolution(self, resolution):
        with pytest.raises(mx.InvalidSceneError, match="resolution"):
            mx.hausdorff_distance(*filtered_pair(), resolution)

    @pytest.mark.parametrize("resolution", [-1.0, math.nan])
    @pytest.mark.parametrize("pair", [(0.2, 50.0), (50.0, 50.0)], ids=["one-empty", "both-empty"])
    def test_hausdorff_rejects_resolution_on_empty_axes(self, resolution, pair):
        sk = mx.build_skeleton(mx.random_scene(8, 6.0, seed=3, min_separation=1.0))
        a, b = (mx.filter_axis(sk, lam, 0.1) for lam in pair)
        assert b.is_empty and a.is_empty == (pair[0] == 50.0)
        with pytest.raises(mx.InvalidSceneError, match="resolution"):
            mx.hausdorff_distance(a, b, resolution)

    @pytest.mark.parametrize("kwargs", [
        {"radius": -1.0}, {"radius": math.nan}, {"radius": math.inf},
        {"resolution": -1.0}, {"sample_pairs": 0}, {"sample_pairs": 2.5}],
        ids=lambda kw: "%s=%s" % next(iter(kw.items())))
    def test_gh_distortion_rejects(self, kwargs):
        kw = dict(radius=0.5, sample_pairs=100, resolution=0.05, seed=0)
        kw.update(kwargs)
        with pytest.raises(mx.InvalidSceneError, match=next(iter(kwargs))):
            mx.gh_distortion(*graphs(*filtered_pair()), **kw)


def summary_fixture():
    return mx.ReachSummary(mu=0.5, alpha=0.25, lam=0.5, r_mu_alpha=1.0,
                           wfs=1.0, r_max=5.05, mu_tilde=0.5)


class TestStabilityConstants:
    def test_flow_time_and_holder_forms(self):
        s = summary_fixture()
        cons = mx.stability_constants(s, delta=0.1, epsilon=1e-3)
        r, a, l, mt, d = s.r_max, s.alpha, s.lam, s.mu_tilde, 0.1
        assert cons.c == pytest.approx((22.0 / 3.0) * r * r / (a ** 0.5 * mt ** 1.5 * l))
        assert cons.hausdorff_bound == pytest.approx(cons.c * math.sqrt(1e-3))
        assert cons.entry_bound == pytest.approx(
            8.0 * r * r * 1e-3 / ((2.0 * l - d) * d * mt))

    def test_gh_bound_is_sum_of_three_terms(self):
        s = summary_fixture()
        cons = mx.stability_constants(s, delta=0.1, epsilon=1e-3,
                                      gdiam_a=4.0, gdiam_b=3.0)
        assert cons.gh_bound == pytest.approx(
            cons.gh_term_flow + cons.gh_term_near + cons.gh_term_diam)
        assert cons.gh_term_flow == pytest.approx(2.0 * cons.c ** 1.5 * 1e-3 ** 0.25)
        # the diameter term takes the larger diameter, in either order
        finite = mx.ReachSummary(mu=0.9, alpha=0.5, lam=0.5, r_mu_alpha=2.0,
                                 wfs=2.0, r_max=1.0, mu_tilde=0.9)
        for a, b in ((4.0, 3.0), (3.0, 4.0)):
            small = mx.stability_constants(finite, delta=0.1, epsilon=1e-8,
                                           gdiam_a=a, gdiam_b=b)
            assert math.isfinite(small.gh_term_diam)
            assert small.gh_term_diam == pytest.approx(
                4.0 * math.expm1(small.gh_term_flow / (2.0 * finite.alpha)))

    def test_undefined_mu_tilde_disables_bounds(self):
        s = mx.ReachSummary(mu=0.5, alpha=0.25, lam=0.5, r_mu_alpha=float("nan"),
                            wfs=float("nan"), r_max=5.05, mu_tilde=float("nan"))
        cons = mx.stability_constants(s, delta=0.1, epsilon=1e-3)
        assert not cons.hypothesis_flags["mu-tilde-defined"]
        assert math.isnan(cons.hausdorff_bound)
        assert not cons.hypothesis_flags["perturb-epsilon-small"]

    def test_huge_exponents_saturate_instead_of_raising(self):
        s = mx.ReachSummary(mu=0.01, alpha=1e-3, lam=0.01, r_mu_alpha=20.0,
                            wfs=20.0, r_max=100.0, mu_tilde=0.01)
        cons = mx.stability_constants(s, delta=0.005, epsilon=1e-3,
                                      gdiam_a=10.0, r_bound=100.0)
        assert math.isinf(cons.gh_bound)
        assert math.isinf(cons.gdiam_bound)

    def test_reach_hypothesis_flag(self):
        s = summary_fixture()
        cons = mx.stability_constants(s, delta=0.1, epsilon=1e-3)
        # r_mu_alpha = 1.0 > alpha + lam = 0.75
        assert cons.hypothesis_flags["reach-exceeds-filter"]
        tight = mx.ReachSummary(mu=0.5, alpha=0.25, lam=0.5, r_mu_alpha=0.7,
                                wfs=0.7, r_max=5.05, mu_tilde=0.5)
        cons2 = mx.stability_constants(tight, delta=0.1, epsilon=1e-3)
        assert not cons2.hypothesis_flags["reach-exceeds-filter"]

    @pytest.mark.parametrize("r_mu_alpha, mu_tilde", [
        (1.0, 0.5), (0.7, 0.5), (1.0, float("nan")), (float("nan"), 0.5),
        (0.75, 0.5), (float("inf"), 0.5)])
    def test_reach_holds_is_both_reach_flags(self, r_mu_alpha, mu_tilde):
        s = mx.ReachSummary(mu=0.5, alpha=0.25, lam=0.5, r_mu_alpha=r_mu_alpha,
                            wfs=1.0, r_max=5.05, mu_tilde=mu_tilde)
        flags = mx.stability_constants(s, delta=0.1, epsilon=1e-3).hypothesis_flags
        assert s.reach_holds is (flags["mu-tilde-defined"]
                                 and flags["reach-exceeds-filter"])
        assert s.reach_holds is (r_mu_alpha == 1.0 and mu_tilde == 0.5)
