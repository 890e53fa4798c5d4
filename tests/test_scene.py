"""Scene containers, validation, enclosing balls, and serialization."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import medaxis as mx
import medaxis.scene as scene_mod
from medaxis.scene import _nearest, _row_norms, _seb_grow, _seb_stack, _wall_points


def two_site_scene():
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                        bounding_radius=10.0)


class TestSceneValidation:
    def test_accepts_plain_lists(self):
        scene = mx.SiteScene(sites=[[0.0, 1.0], [2.0, 3.0]], bounding_radius=5.0)
        assert scene.sites.shape == (2, 2)
        assert scene.dim == 2

    def test_rejects_empty_sites(self):
        with pytest.raises(mx.InvalidSceneError):
            mx.SiteScene(sites=np.empty((0, 2)), bounding_radius=5.0)

    def test_rejects_one_dimensional_sites(self):
        with pytest.raises(mx.InvalidSceneError):
            mx.SiteScene(sites=np.array([[1.0], [2.0]]), bounding_radius=5.0)

    def test_rejects_site_outside_ball(self):
        with pytest.raises(mx.InvalidSceneError):
            mx.SiteScene(sites=np.array([[11.0, 0.0]]), bounding_radius=10.0)

    def test_rejects_site_on_boundary(self):
        with pytest.raises(mx.InvalidSceneError):
            mx.SiteScene(sites=np.array([[10.0, 0.0]]), bounding_radius=10.0)

    def test_rejects_duplicate_sites(self):
        with pytest.raises(mx.InvalidSceneError):
            mx.SiteScene(sites=np.array([[0.0, 0.0], [0.0, 0.0]]),
                         bounding_radius=10.0)

    def test_rejects_nonfinite_coordinates(self):
        with pytest.raises(mx.InvalidSceneError):
            mx.SiteScene(sites=np.array([[0.0, np.nan]]), bounding_radius=10.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(mx.InvalidSceneError):
            mx.SiteScene(sites=np.array([[0.0, 0.0]]), bounding_radius=0.0)

    def test_three_dimensional_sites_allowed(self):
        scene = mx.SiteScene(sites=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                             bounding_radius=4.0)
        assert scene.dim == 3


def separated_by_all_pairs(sites, radius, tie_tolerance=1e-9):
    """The separation check as an all-pairs loop: the reference decision."""
    sites = np.asarray(sites, float)
    min_sep = 10.0 * tie_tolerance * radius
    for i in range(len(sites)):
        gaps = np.linalg.norm(sites[i + 1:] - sites[i], axis=1)
        if gaps.size and float(gaps.min()) <= min_sep:
            return False
    return True


def accepted(sites, radius, tie_tolerance=1e-9):
    try:
        mx.SiteScene(sites=sites, bounding_radius=radius, tie_tolerance=tie_tolerance)
    except mx.InvalidSceneError:
        return False
    return True


def _gap_scene(gap, offset=(0.3, -0.2)):
    base = np.array(offset)
    return np.array([base, base + [gap, 0.0], [2.0, 1.0], [-1.0, 2.5]])


class TestSeparationCheck:
    """The tree-based check decides exactly as the all-pairs loop."""

    MIN_SEP = 10.0 * 1e-9 * 10.0

    @pytest.mark.parametrize("step", [-1, 0, 1])
    @pytest.mark.parametrize("offset", [(0.0, 0.0), (0.3, -0.2), (-7.1, 3.3)])
    def test_pairs_at_the_minimum_separation(self, step, offset):
        gap = self.MIN_SEP
        for _ in range(abs(step)):
            gap = np.nextafter(gap, np.inf if step > 0 else 0.0)
        sites = _gap_scene(gap, offset)
        want = separated_by_all_pairs(sites, 10.0)
        assert accepted(sites, 10.0) == want
        if offset == (0.0, 0.0):
            assert want == (step > 0)

    @pytest.mark.parametrize("k, spacing", [(3, 1.5), (6, 1.0), (8, 1.00000001e-7)])
    def test_lattices(self, k, spacing):
        g = np.array([[i, j] for i in range(k) for j in range(k)], float) * spacing
        sites = g - g.mean(axis=0)
        assert accepted(sites, 10.0) == separated_by_all_pairs(sites, 10.0)
        # squeeze one row onto its neighbour's minimum separation
        squeezed = sites.copy()
        squeezed[1] = squeezed[0] + [self.MIN_SEP, 0.0]
        assert accepted(squeezed, 10.0) == separated_by_all_pairs(squeezed, 10.0)

    def test_three_dimensional(self):
        rng = np.random.default_rng(4)
        sites = rng.uniform(-2.0, 2.0, size=(40, 3))
        assert accepted(sites, 5.0)
        close = np.vstack([sites, sites[7] + [0.0, 0.0, 0.5e-7]])
        assert not accepted(close, 5.0)
        assert not separated_by_all_pairs(close, 5.0)

    def test_single_site(self):
        assert accepted([[1.0, 2.0]], 10.0)

    def test_tolerance_edge_values(self):
        sites = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        assert accepted(sites, 10.0, 0.0) == separated_by_all_pairs(sites, 10.0, 0.0)
        for tol in (-1e-9, math.nan, math.inf):
            with pytest.raises(mx.InvalidSceneError, match="tie_tolerance"):
                mx.SiteScene(sites=sites, bounding_radius=10.0, tie_tolerance=tol)

    def test_two_thousand_sites(self):
        rng = np.random.default_rng(11)
        sites = rng.uniform(-6.0, 6.0, size=(2000, 2))
        assert accepted(sites, 10.0) == separated_by_all_pairs(sites, 10.0)
        sites[1500] = sites[200] + [0.0, self.MIN_SEP]
        assert not accepted(sites, 10.0)
        assert not separated_by_all_pairs(sites, 10.0)


class TestSmallestEnclosingBall:
    def test_single_point(self):
        ball = mx.smallest_enclosing_ball(np.array([[1.0, 2.0]]))
        assert np.allclose(ball.center, [1.0, 2.0])
        assert ball.radius == 0.0

    def test_two_points_diametral(self):
        ball = mx.smallest_enclosing_ball(np.array([[0.0, 0.0], [4.0, 0.0]]))
        assert np.allclose(ball.center, [2.0, 0.0])
        assert abs(ball.radius - 2.0) < 1e-12

    def test_obtuse_triangle_uses_longest_edge(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]])
        ball = mx.smallest_enclosing_ball(pts)
        assert np.allclose(ball.center, [2.0, 0.0], atol=1e-12)
        assert abs(ball.radius - 2.0) < 1e-12

    def test_equilateral_triangle_circumball(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, np.sqrt(3.0)]])
        ball = mx.smallest_enclosing_ball(pts)
        assert np.allclose(ball.center, [1.0, 1.0 / np.sqrt(3.0)], atol=1e-9)
        assert abs(ball.radius - 2.0 / np.sqrt(3.0)) < 1e-9

    def test_all_points_inside(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(40, 3))
        ball = mx.smallest_enclosing_ball(pts)
        dists = np.linalg.norm(pts - ball.center, axis=1)
        assert dists.max() <= ball.radius * (1.0 + 1e-9) + 1e-12


def point_set(kind, n, dim, seed):
    """n points in R^dim: on a line, on a circle in a random 2-plane, on a
    sphere, on a coarse integer lattice (repeats allowed) or at random."""
    rng = np.random.default_rng(seed)
    center = rng.normal(size=dim)
    if kind == "collinear":
        return center + rng.uniform(-3.0, 3.0, size=(n, 1)) * rng.normal(size=dim)
    if kind == "lattice":
        return 1.5 * rng.integers(-2, 3, size=(n, dim)).astype(float)
    if kind == "random":
        return center + 2.0 * rng.normal(size=(n, dim))
    radius = rng.uniform(0.5, 4.0)
    if kind == "cospherical":
        dirs = rng.normal(size=(n, dim))
        return center + radius * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    plane, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return center + radius * np.column_stack([np.cos(ang), np.sin(ang)]) @ plane.T


def brute_force_radius(pts):
    """Radius of the smallest covering ball among the circumballs, centred
    in the affine hull, of every subset of at most d + 1 points (subsets
    with a singular Gram system have no such ball and are skipped)."""
    n, dim = pts.shape
    best = np.inf
    for size in range(1, min(n, dim + 1) + 1):
        for sub in itertools.combinations(range(n), size):
            support = pts[list(sub)]
            m = support[1:] - support[0]
            gram = m @ m.T
            try:
                coef = np.linalg.solve(gram, 0.5 * np.diag(gram))
            except np.linalg.LinAlgError:
                continue
            center = support[0] + coef @ m
            radius = np.linalg.norm(support - center, axis=1).max()
            if np.linalg.norm(pts - center, axis=1).max() <= radius * (1.0 + 1e-13) + 1e-13:
                best = min(best, radius)
    return best


class TestSmallestEnclosingBallProperties:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["collinear", "cocircular", "cospherical",
                                 "lattice", "random"]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_brute_force(self, kind, seed):
        for dim, n in itertools.product((2, 3), range(1, 9)):
            pts = point_set(kind, n, dim, seed)
            ball = mx.smallest_enclosing_ball(pts)
            gaps = np.linalg.norm(pts - ball.center, axis=1)
            assert gaps.max() <= ball.radius * (1.0 + 1e-12)
            expected = brute_force_radius(pts)
            assert np.isfinite(expected)
            assert abs(ball.radius - expected) <= 1e-12 * expected


def three_point_stack(kind, n, dim, rng):
    """n three-point sets in R^dim, shaped (n, 3, dim), of one kind, their
    points in random order; each set is scaled and offset at random
    (offsets up to 1e6)."""
    if kind in ("acute", "obtuse", "right", "equidistant"):
        # on a circle in a random 2-plane: near the corners of an
        # equilateral triangle (each moved by up to 0.5 rad), on them,
        # within an arc of 3 rad, or with two points antipodal, where
        # rounding puts the third a hair inside or outside their ball
        base = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))
        if kind == "obtuse":
            ang = base + rng.uniform(0.0, 3.0, size=(n, 3))
        elif kind == "right":
            ang = base + np.column_stack([np.zeros(n), np.full(n, np.pi),
                                          rng.uniform(0.1, 3.0, size=n)])
        else:
            jitter = 0.5 if kind == "acute" else 0.0
            ang = base + 2.0 * np.pi / 3.0 * np.arange(3) + rng.uniform(
                -jitter, jitter, size=(n, 3))
        plane = np.linalg.qr(rng.normal(size=(n, dim, 2)))[0]
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=2) @ plane.transpose(0, 2, 1)
    elif kind == "collinear":
        pts = rng.normal(size=(n, 3, 1)) * rng.normal(size=(n, 1, dim))
        pts += 1e-9 * rng.normal(size=pts.shape)
    else:
        pts = rng.normal(size=(n, 3, dim))
        if kind == "repeated":
            src, dst = rng.permuted(np.tile([0, 1, 2], (n, 1)), axis=1)[:, :2].T
            pts[np.arange(n), dst] = pts[np.arange(n), src]
    order = rng.random((n, 3)).argsort(axis=1)
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1, 1))
    offset = 10.0 ** rng.uniform(0.0, 6.0, size=(n, 1, 1)) * rng.normal(size=(n, 1, dim))
    return pts * scale + offset


def welzl_oracle(P):
    """Per-row ``_seb_grow``, with the radius tightened to the largest gap."""
    centers = np.array([_seb_grow(pts, [], P.shape[2]).center for pts in P])
    return centers, np.linalg.norm(P - centers[:, None], axis=2).max(axis=1)


THREE_POINT_KINDS = ["random", "acute", "obtuse", "right", "equidistant", "collinear",
                     "repeated"]


class TestThreePointBalls:
    """Three-point sets in d >= 3 take their farthest pair's ball or their
    circumcenter, row-wise, where a margin certifies it, else the recursion;
    every center and radius must equal the recursion's bit for bit."""

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("kind", THREE_POINT_KINDS)
    def test_stack_equals_recursion(self, kind, dim):
        P = three_point_stack(kind, 300, dim, np.random.default_rng(7))
        want_c, want_r = welzl_oracle(P)
        for n in (1, 7, len(P)):
            centers, radii = _seb_stack(P[:n])
            assert centers.tobytes() == want_c[:n].tobytes()
            assert radii.tobytes() == want_r[:n].tobytes()

    def test_every_branch_is_taken(self):
        # the recursion's support sizes: acute sets end with all three
        # points, obtuse ones with two, and a thrice repeated point with one
        rng = np.random.default_rng(8)
        for kind, support in [("acute", 3), ("obtuse", 2)]:
            P = three_point_stack(kind, 50, 3, rng)
            _, radii = _seb_stack(P)
            sides = np.linalg.norm(P - np.roll(P, 1, axis=1), axis=2).max(axis=1)
            if support == 3:
                assert np.all(radii > 0.5 * sides * (1.0 + 1e-9))
            else:
                assert np.allclose(radii, 0.5 * sides, rtol=1e-12)
        P = np.repeat(rng.normal(size=(4, 1, 3)), 3, axis=1)
        assert np.all(_seb_stack(P)[1] == 0.0)
        assert _seb_stack(P)[0].tobytes() == welzl_oracle(P)[0].tobytes()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(THREE_POINT_KINDS), dim=st.sampled_from([3, 4]),
           n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    def test_stack_equals_recursion_property(self, kind, dim, n, seed):
        P = three_point_stack(kind, n, dim, np.random.default_rng(seed))
        centers, radii = _seb_stack(P)
        want_c, want_r = welzl_oracle(P)
        assert centers.tobytes() == want_c.tobytes()
        assert radii.tobytes() == want_r.tobytes()


def many_point_stack(kind, n, k, dim, rng):
    """n k-point sets in R^dim, shaped (n, k, dim), of one kind, their points
    in random order; each set is scaled and offset at random (offsets up to
    1e6).  "polygon": a regular k-gon in a random 2-plane, whose farthest
    pairs tie; "cospherical" and "random" points; "near": a diametric pair of
    the unit sphere plus k - 2 points 1e-14 to 1e-10 inside or outside it."""
    if kind == "polygon":
        ang = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1)) + 2.0 * np.pi / k * np.arange(k)
        plane = np.linalg.qr(rng.normal(size=(n, dim, 2)))[0]
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=2) @ plane.transpose(0, 2, 1)
    else:
        pts = rng.normal(size=(n, k, dim))
        if kind != "random":
            pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        if kind == "near":
            pts[:, 1] = -pts[:, 0]
            shift = 10.0 ** rng.uniform(-14.0, -10.0, size=(n, k - 2, 1))
            pts[:, 2:] *= 1.0 + rng.choice([-1.0, 1.0], size=(n, k - 2, 1)) * shift
    order = rng.random((n, k)).argsort(axis=1)
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1, 1))
    offset = 10.0 ** rng.uniform(0.0, 6.0, size=(n, 1, 1)) * rng.normal(size=(n, 1, dim))
    return pts * scale + offset


class TestManyPointBalls:
    """Sets of four or more points take their farthest pair's ball where all
    other points lie inside it by a margin, else the recursion; every center
    and radius must equal the recursion's bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["polygon", "cospherical", "random", "near"])
    def test_stack_equals_recursion(self, kind, dim):
        rng = np.random.default_rng(12)
        for k in range(4, 13):
            P = many_point_stack(kind, 40, k, dim, rng)
            want_c, want_r = welzl_oracle(P)
            for n in (1, 7, len(P)):
                centers, radii = _seb_stack(P[:n])
                assert centers.tobytes() == want_c[:n].tobytes()
                assert radii.tobytes() == want_r[:n].tobytes()

    @pytest.mark.parametrize("points, grown", [
        # a certified pair: (0, 0) and (4, 0) cover the other two
        ([[0.0, 0.0], [4.0, 0.0], [2.0, 1.5], [1.0, -1.0]], 0),
        # a tied row: a square's two diagonals
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], 1),
        # an acute triangle in R^3, which its farthest pair does not cover
        ([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [1.5, 3.4, 0.2]], 0),
        # four points that the farthest pair, (4, 0) and (1.5, 3.4), misses
        ([[0.0, 0.0], [4.0, 0.0], [1.5, 3.4], [2.0, -0.5]], 1),
    ])
    def test_each_path_is_taken(self, points, grown, monkeypatch):
        P = np.array(points)[None]
        want_c, want_r = welzl_oracle(P)
        calls = []

        def counted(pts, support, dim):
            if not support:  # a row's top-level call, not a recursive one
                calls.append(len(pts))
            return _seb_grow(pts, support, dim)

        monkeypatch.setattr(scene_mod, "_seb_grow", counted)
        centers, radii = _seb_stack(P)
        assert len(calls) == grown
        assert centers.tobytes() == want_c.tobytes()
        assert radii.tobytes() == want_r.tobytes()


def _wire_scene():
    """A 3-d square wire: 40 sites on a square of side 2 in the plane z = 0."""
    u = np.linspace(-1.0, 1.0, 10, endpoint=False)
    ring = np.concatenate([np.stack([u, -np.ones_like(u)], axis=1),
                           np.stack([np.ones_like(u), u], axis=1),
                           np.stack([-u, np.ones_like(u)], axis=1),
                           np.stack([-np.ones_like(u), -u], axis=1)])
    return mx.SiteScene(sites=np.column_stack([ring, np.zeros(len(ring))]),
                        bounding_radius=2.5)


def _grouping_rows(dim):
    """Scene and query rows that between them have 1, 2, 3 and 4 or more
    witnesses, with and without the wall."""
    rng = np.random.default_rng(5)
    if dim == 2:
        g = 1.5 * np.array([[i, j] for i in range(3) for j in range(3)], float) - 1.5
        scene = mx.SiteScene(sites=np.vstack([g, [[2.6, 0.5]]]), bounding_radius=4.0)
        p = scene.sites
        sq = np.array([[0.75, 0.75], [-0.75, 0.75], [0.75, -0.75], [-0.75, -0.75]])
        rows = [mx.build_skeleton(scene).vertices, sq,
                0.5 * (p[:-1] + p[1:]), rng.uniform(-2.5, 2.5, size=(60, 2))]
    else:
        scene = _wire_scene()
        p = scene.sites
        rows = [rng.uniform(-1.2, 1.2, size=(200, 3)) * [1.0, 1.0, 0.3],
                0.5 * (p[:-1] + p[1:]), [[0.0, 0.0, 0.0], [0.0, 0.0, 2.3]]]
    # site/wall balance points: halfway from a site to the wall, radially
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    balance = p / np.where(norms > 0.0, norms, 1.0) * 0.5 * (norms + scene.bounding_radius)
    rows.append(balance[norms[:, 0] > 0.0])
    X = np.vstack(rows)
    return scene, X[np.linalg.norm(X, axis=1) < scene.bounding_radius]


def wall_points(scene, X):
    X = np.atleast_2d(np.asarray(X, float))
    return _wall_points(scene, X, _row_norms(X))


class TestNearestBalls:
    def test_keep_without_band_rejected(self):
        near = _nearest(two_site_scene(), np.array([[0.0, 2.0]]))
        with pytest.raises(ValueError, match="keep"):
            near.cut(keep=np.array([[True, False, False]]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grouped_balls_equal_per_row_balls(self, dim):
        scene, X = _grouping_rows(dim)
        near = _nearest(scene, X)
        near.check()
        m = len(scene.sites)
        kinds = set()
        for band in (None, 0.02, 0.1, 0.5):
            mask = near.cut(band)
            assert mask.shape == (len(X), m + 1)
            centers, F = near.balls(mask)
            for i in range(len(X)):
                cols = mask[i].nonzero()[0]
                pts = [scene.sites[k] if k < m else wall_points(scene, X[i])[0]
                       for k in cols]
                ball = mx.smallest_enclosing_ball(np.stack(pts))
                assert np.array_equal(centers[i], ball.center)
                assert F[i] == ball.radius
                kinds.add((min(len(cols), 4), bool(mask[i, -1])))
        assert kinds == {(k, w) for k in (1, 2, 3, 4) for w in (False, True)}


class TestCandidateTable:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_candidate_distances_equal_cdist_bits(self, dim):
        """Any ascending table: its distances are cdist's, and the sites a
        row names are read through it."""
        rng = np.random.default_rng(dim)
        scene = mx.random_scene(50, 10.0, seed=dim, dim=dim)
        X = rng.uniform(-7.0, 7.0, size=(20000, dim))
        cand = np.sort(rng.integers(0, 50, size=(len(X), 6)), axis=1)
        full = _nearest(scene, X)
        near = _nearest(scene, X, cand)
        assert near.d_sites.tobytes() == np.take_along_axis(full.d_sites, cand, 1).tobytes()
        assert near.d_wall.tobytes() == full.d_wall.tobytes()
        rows = np.arange(len(X))
        nearest = cand[rows, near.d_sites.argmin(axis=1)]
        on_wall = near.d_wall < near.d_sites.min(axis=1)
        want = np.where(on_wall[:, None], wall_points(scene, X), scene.sites[nearest])
        assert near.nearest_points().tobytes() == want.tobytes()
        cols = np.tile([1, 4, 6], (len(X), 1))
        want = np.concatenate([scene.sites[cand[:, [1, 4]]], wall_points(scene, X)[:, None]],
                              axis=1)
        assert near.witnesses(rows, cols).tobytes() == want.tobytes()


class TestWallWitness:
    def test_radial_projection(self):
        scene = two_site_scene()
        w = wall_points(scene, [0.0, 2.0])[0]
        assert np.allclose(w, [0.0, 10.0], atol=1e-12)

    def test_witness_is_on_sphere(self):
        scene = two_site_scene()
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(20, 2)):
            w = wall_points(scene, x)[0]
            assert abs(np.linalg.norm(w) - 10.0) < 1e-9


class TestRandomScene:
    def test_counts_and_margin(self):
        scene = mx.random_scene(12, bounding_radius=6.0, seed=5)
        assert len(scene.sites) == 12
        assert np.linalg.norm(scene.sites, axis=1).max() <= 0.85 * 6.0 + 1e-12

    def test_min_separation_enforced(self):
        scene = mx.random_scene(12, bounding_radius=6.0, seed=5, min_separation=1.0)
        d = np.linalg.norm(scene.sites[:, None, :] - scene.sites[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 1.0

    def test_seed_reproducible(self):
        a = mx.random_scene(8, seed=42)
        b = mx.random_scene(8, seed=42)
        assert np.array_equal(a.sites, b.sites)

    def test_three_dimensional_variant(self):
        scene = mx.random_scene(6, seed=1, dim=3)
        assert scene.sites.shape == (6, 3)

    @pytest.mark.parametrize("n_sites", [0, -1, 2.5, True])
    def test_rejects_bad_site_count(self, n_sites):
        with pytest.raises(mx.InvalidSceneError, match="n_sites"):
            mx.random_scene(n_sites)

    @pytest.mark.parametrize("min_separation", [math.nan, math.inf, -math.inf, -1.0, True, "0.5"])
    def test_rejects_bad_min_separation_before_drawing(self, monkeypatch, min_separation):
        """A separation that no draw can meet, or none that a check reads, is
        bad input, not the generator's placement limit."""
        monkeypatch.setattr(scene_mod, "_in_ball", None)
        with pytest.raises(mx.InvalidSceneError, match="min_separation must be finite"):
            mx.random_scene(5, 10.0, seed=1, min_separation=min_separation)

    def test_zero_min_separation_is_valid(self):
        assert len(mx.random_scene(5, 10.0, seed=1, min_separation=0.0).sites) == 5

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_the_dense_separation_check(self, dim):
        """The same scene, or the same failure, as the check over all
        (n, n, d) differences with the bounding radius on the diagonal:
        one site, separations at and above the radius, and separations that
        take many redraws or never succeed."""
        cases = [(1, 0.5), (1, 6.0), (1, 6.5), (2, 6.0), (2, 7.0), (5, None),
                 (8, 1.0), (12, 1.5), (14, 2.0), (20, 2.5)]
        failures = 0
        for (n, sep), seed in itertools.product(cases, range(4)):
            want = dense_random_sites(n, 6.0, seed, dim, sep)
            if want is None:
                failures += 1
                with pytest.raises(mx.InvalidSceneError, match="could not place"):
                    mx.random_scene(n, 6.0, seed=seed, dim=dim, min_separation=sep)
            else:
                got = mx.random_scene(n, 6.0, seed=seed, dim=dim, min_separation=sep)
                assert got.sites.tobytes() == want.tobytes()
        assert 12 <= failures < len(cases) * 4


def dense_random_sites(n, bounding_radius, seed, dim, min_separation):
    """``random_scene``'s sites by its first separation check, over the
    (n, n, d) array of all differences; None where it gives up."""
    if min_separation is None:
        min_separation = 0.02 * bounding_radius
    rng = np.random.default_rng(seed)
    for _ in range(500):
        sites = scene_mod._in_ball(rng, n, dim, 0.85 * bounding_radius)
        diff = sites[:, None, :] - sites[None, :, :]
        gaps = np.sqrt((diff ** 2).sum(-1)) + np.eye(n) * bounding_radius
        if gaps.min() > min_separation:
            return sites
    return None


class TestSerialization:
    def test_json_round_trip(self):
        scene = mx.random_scene(9, seed=13)
        text = mx.scene_to_json(scene)
        back = mx.scene_from_json(text)
        assert np.array_equal(scene.sites, back.sites)
        assert back.bounding_radius == scene.bounding_radius

    def test_json_is_stable(self):
        scene = two_site_scene()
        assert mx.scene_to_json(scene) == mx.scene_to_json(scene)

    def test_json_bytes_pinned(self):
        """Signed zero, a subnormal and doubles that need 16 or 17 digits
        keep their exact text; an int tie tolerance is written as a float."""
        scene = mx.SiteScene(sites=[[-0.0, 5e-324], [1 / 3, 0.1 + 0.2]],
                             bounding_radius=2.0, tie_tolerance=0)
        assert mx.scene_to_json(scene) == (
            '{"sites": [[-0.0, 5e-324], [0.3333333333333333, 0.30000000000000004]], '
            '"bounding_radius": 2.0, "tie_tolerance": 0.0}')

    @pytest.mark.parametrize("text", [
        '{"sites": [[0.0, 1.0]], "bounding_radius": null}',
        '{"sites": [[0.0, 1.0]], "bounding_radius": "x"}',
        '{"sites": [[0.0, 1.0]], "bounding_radius": 5.0, "tie_tolerance": "x"}',
        '{"sites": [[0.0, 1.0], [2.0]], "bounding_radius": 5.0}'],
        ids=["null-radius", "text-radius", "text-tie", "ragged-sites"])
    def test_bad_values_read_as_malformed(self, text):
        with pytest.raises(mx.InvalidSceneError, match="malformed scene JSON"):
            mx.scene_from_json(text)

    def test_file_round_trip(self, tmp_path):
        scene = mx.random_scene(5, seed=2)
        path = tmp_path / "scene.json"
        mx.save_scene(scene, path)
        back = mx.load_scene(path)
        assert np.array_equal(scene.sites, back.sites)

    def test_rejects_malformed_payload(self):
        with pytest.raises((mx.InvalidSceneError, KeyError, json.JSONDecodeError)):
            mx.scene_from_json("{\"sites\": []}")
