"""Distance field evaluation and the sampled critical function."""

import hashlib
import math

import numpy as np
import pytest

import medaxis as mx
from medaxis import field
from medaxis.flow import _probe, _ties


def two_site_scene():
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                        bounding_radius=10.0)


class TestEvalField:
    def test_equidistant_point_values(self):
        scene = two_site_scene()
        s = mx.eval_field(scene, [0.0, 2.0], alpha=0.5)
        assert abs(s.R - math.sqrt(5.0)) < 1e-12
        assert abs(s.F - 1.0) < 1e-12
        assert np.allclose(s.grad, [0.0, 2.0 / math.sqrt(5.0)], atol=1e-12)
        expect = (math.sqrt(5.0) - 0.5) / math.sqrt(5.0)
        assert abs(s.F_alpha - expect) < 1e-12
        assert set(s.witness_ids) == {0, 1}

    def test_single_witness_point(self):
        scene = two_site_scene()
        s = mx.eval_field(scene, [0.5, 0.0])
        assert abs(s.R - 0.5) < 1e-12
        assert s.F == 0.0
        assert np.allclose(s.grad, [-1.0, 0.0])
        assert s.witness_ids == (1,)

    def test_wall_dominated_point(self):
        scene = two_site_scene()
        s = mx.eval_field(scene, [0.0, 9.0])
        assert abs(s.R - 1.0) < 1e-12
        assert s.witness_ids == (-1,)
        assert np.allclose(s.theta[0], [0.0, 10.0])
        assert np.allclose(s.grad, [0.0, -1.0])

    def test_outside_ball_rejected(self):
        scene = two_site_scene()
        with pytest.raises(mx.DomainError):
            mx.eval_field(scene, [0.0, 11.0])

    def test_query_at_site_rejected(self):
        scene = two_site_scene()
        with pytest.raises(mx.DomainError):
            mx.eval_field(scene, [1.0, 0.0])

    def test_inside_offset_rejected_when_alpha_given(self):
        scene = two_site_scene()
        with pytest.raises(mx.OffsetDomainError):
            mx.eval_field(scene, [0.55, 0.0], alpha=0.5)
        # the same point is fine without an offset
        s = mx.eval_field(scene, [0.55, 0.0])
        assert abs(s.R - 0.45) < 1e-12

    def test_gradient_norm_identity_pointwise(self):
        scene = mx.random_scene(9, bounding_radius=8.0, seed=21)
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 200:
            x = rng.uniform(-8.0, 8.0, size=2)
            if np.linalg.norm(x) >= 7.99:
                continue
            try:
                s = mx.eval_field(scene, x)
            except mx.DomainError:
                continue
            gn2 = float(s.grad @ s.grad)
            assert abs(gn2 - (1.0 - (s.F / s.R) ** 2)) < 1e-9
            checked += 1


class TestBatchEvaluation:
    def test_matches_pointwise(self):
        scene = mx.random_scene(14, bounding_radius=8.0, seed=8)
        rng = np.random.default_rng(9)
        pts = []
        while len(pts) < 60:
            x = rng.uniform(-7.0, 7.0, size=2)
            try:
                mx.eval_field(scene, x)
            except mx.DomainError:
                continue
            pts.append(x)
        X = np.array(pts)
        out = mx.eval_field_batch(scene, X)
        r = mx.r_batch(scene, X)
        for k, x in enumerate(X):
            s = mx.eval_field(scene, x)
            assert out["R"][k] == s.R == r[k]
            assert out["F"][k] == s.F
            assert np.array_equal(out["grad"][k], s.grad)
            assert out["witness_count"][k] == len(s.witness_ids)

    def test_matches_pointwise_exactly_on_ties(self):
        # 3x3 lattice: its four square centers are four-way cocircular ties
        lattice = np.array([[i, j] for i in (-1.0, 0.0, 1.0)
                            for j in (-1.0, 0.0, 1.0)])
        scene = mx.SiteScene(sites=lattice, bounding_radius=5.0)
        rng = np.random.default_rng(17)
        pts = [[sx * 0.5, sy * 0.5] for sx in (-1, 1) for sy in (-1, 1)]
        # site/site bisectors
        for i, j in [(0, 1), (4, 5), (4, 8), (2, 6)]:
            p, q = lattice[i], lattice[j]
            perp = np.array([p[1] - q[1], q[0] - p[0]])
            for t in rng.uniform(-0.4, 0.4, 3):
                pts.append(0.5 * (p + q) + t * perp)
        # site/wall balance points on the ray through a site
        for p in lattice[[1, 3, 5, 7, 8]]:
            pts.append(p / np.linalg.norm(p) * 0.5 * (5.0 + np.linalg.norm(p)))
        # random points nearest to the wall
        for _ in range(30):
            u = rng.standard_normal(2)
            pts.append(u / np.linalg.norm(u) * rng.uniform(3.2, 4.99))
        X = np.array(pts)
        wall_rows = 0
        for band in (None, 0.05):
            out = mx.eval_field_batch(scene, X, witness_band=band)
            for k, x in enumerate(X):
                s = mx.eval_field(scene, x, witness_band=band)
                assert out["R"][k] == s.R
                assert out["F"][k] == s.F
                assert np.array_equal(out["grad"][k], s.grad)
                assert out["witness_count"][k] == len(s.witness_ids)
                wall_rows += s.witness_ids == (-1,)
        assert wall_rows >= 30
        ties = [mx.eval_field(scene, x).witness_ids for x in X[:4]]
        assert all(len(ids) == 4 for ids in ties)
        # the flow's batched probe finds each row's exact witnesses
        sites, wall = _ties(scene, _probe(scene, X, 0.05), np.arange(len(X)))
        for k, x in enumerate(X):
            exact_ids = sites[k].nonzero()[0].tolist() + [-1] * bool(wall[k])
            assert frozenset(exact_ids) == frozenset(mx.eval_field(scene, x).witness_ids)

    def test_r_batch_matches(self):
        scene = mx.random_scene(7, bounding_radius=5.0, seed=3)
        X = np.array([[0.1, 0.2], [1.0, -1.0], [-2.0, 0.5]])
        r = mx.r_batch(scene, X)
        out = mx.eval_field_batch(scene, X)
        assert np.allclose(r, out["R"], atol=1e-14)

    def test_batch_rejects_points_inside_offset(self):
        scene = two_site_scene()
        with pytest.raises(mx.OffsetDomainError):
            mx.eval_field_batch(scene, np.array([[0.0, 2.0], [0.55, 0.0]]),
                                alpha=0.5)


class TestCriticalFunction:
    def test_two_site_plateau_and_branch(self):
        scene = two_site_scene()
        t_grid = np.array([0.3, 0.5, 0.7, 1.5, 2.0, 3.0])
        prof = mx.estimate_critical_function(scene, t_grid,
                                             samples_per_level=600, seed=1)
        # below the half-gap every level point has one witness
        assert np.all(prof.chi[:3] > 0.999)
        # above it the minimum sits on the bisector
        for t, chi in zip(t_grid[3:], prof.chi[3:]):
            assert abs(chi - math.sqrt(1.0 - 1.0 / t ** 2)) < 0.01

    def test_two_site_dips_at_balance_points(self):
        scene = two_site_scene()
        prof = mx.estimate_critical_function(scene, np.array([1.0, 2.0, 4.5]),
                                             samples_per_level=1200, seed=1)
        assert prof.chi[0] < 0.12   # gap midpoint, R = half-gap
        assert prof.chi[1] > 0.8    # smooth branch between the two dips
        assert prof.chi[2] < 0.12   # site/wall balance ring, R = 4.5

    def test_profile_is_deterministic(self):
        scene = two_site_scene()
        t_grid = np.linspace(0.5, 4.0, 8)
        a = mx.estimate_critical_function(scene, t_grid, samples_per_level=300,
                                          seed=7)
        b = mx.estimate_critical_function(scene, t_grid, samples_per_level=300,
                                          seed=7)
        assert a.chi.tobytes() == b.chi.tobytes()

    def test_csv_round_trip(self):
        scene = two_site_scene()
        prof = mx.estimate_critical_function(scene, np.linspace(0.5, 3.0, 5),
                                             samples_per_level=200, seed=2)
        text = mx.profile_to_csv(prof)
        back = mx.profile_from_csv(text)
        assert np.array_equal(prof.t_grid, back.t_grid)
        assert np.array_equal(prof.chi, back.chi)

    @pytest.mark.parametrize("kwargs", [
        {"band_width": -0.01}, {"band_width": 0.0}, {"band_width": float("nan")},
        {"band_width": float("inf")}, {"samples_per_level": -5},
        {"samples_per_level": 0}, {"samples_per_level": 2.5},
        {"samples_per_level": True}],
        ids=lambda kw: "%s=%s" % next(iter(kw.items())))
    def test_bad_sampling_rejected(self, kwargs):
        with pytest.raises(mx.InvalidSceneError):
            mx.estimate_critical_function(two_site_scene(), np.array([0.5, 1.5]),
                                          **kwargs)

    def test_3d_profile_is_pinned(self):
        scene = mx.random_scene(8, 5.0, seed=4, dim=3)
        prof = mx.estimate_critical_function(scene, np.array([0.5, 1.2, 2.0, 2.9]),
                                             samples_per_level=250, seed=5)
        digest = hashlib.sha256(prof.chi.tobytes()
                                + prof.sample_count.tobytes()).hexdigest()
        assert digest == ("b8791964ddf188269149928862ca8d57"
                          "c57dc26664d5de167ae32a42834bfafc")
        assert prof.sample_count.tolist() == [250, 250, 246, 161]
        assert prof.flags == ("r-max-sampled",)
        assert prof.r_max == 2.9

    def test_planar_profile_is_pinned(self):
        scene, t_grid, r_max = _planar_with_r_max()
        prof = mx.estimate_critical_function(scene, t_grid, samples_per_level=300,
                                             seed=5, r_max=r_max)
        digest = hashlib.sha256(prof.chi.tobytes()
                                + prof.sample_count.tobytes()).hexdigest()
        assert digest == ("748fe31bf51734fbf0804131c6c04a7f"
                          "953a6e140cbe847013e3800067ffafb4")
        assert prof.sample_count.tolist() == [300, 287, 251, 228, 200, 136, 69]
        assert prof.flags == ()


def _planar_with_r_max():
    scene = mx.random_scene(12, 5.0, seed=3)
    r_max = mx.scene_r_max(scene)
    return scene, np.linspace(0.2, 0.95 * r_max, 7), r_max


class TestBatchedMarch:
    """Levels march in batches; the schedule must not change any result."""

    @pytest.mark.parametrize("case", ["planar-r-max", "empty-band", "3d"])
    @pytest.mark.parametrize("cap", [1, 2500, 1 << 40])
    def test_batch_schedule_does_not_change_results(self, case, cap,
                                                     monkeypatch):
        if case == "planar-r-max":
            scene, t_grid, r_max = _planar_with_r_max()
        elif case == "empty-band":
            scene, t_grid, r_max = (mx.random_scene(5, 5.0, seed=1),
                                    np.array([0.1, 1.0, 4.9]), None)
        else:
            scene, t_grid, r_max = (mx.random_scene(6, 5.0, seed=2, dim=3),
                                    np.linspace(0.3, 3.0, 4), None)

        def run():
            return mx.estimate_critical_function(scene, t_grid, samples_per_level=100,
                                                 seed=6, r_max=r_max)

        ref = run()
        monkeypatch.setattr(field, "_BATCH_DISTANCES", cap)
        got = run()
        assert got.chi.tobytes() == ref.chi.tobytes()
        assert got.sample_count.tolist() == ref.sample_count.tolist()
        assert got.flags == ref.flags
        assert got.r_max == ref.r_max
        if case == "empty-band":
            assert ref.flags == ("empty-band:4.9", "r-max-sampled")

    def test_rows_march_independently(self):
        scene, _, _ = _planar_with_r_max()
        rng = np.random.default_rng(2)
        band = scene.bounding_radius / 2000.0
        sets = [(field._sprinkle(scene, t, 80, rng), t) for t in (0.4, 1.1)]
        X = np.vstack([x for x, _ in sets])
        levels = np.concatenate([np.full(len(x), t) for x, t in sets])
        rows, pts = field._march_to_level(scene, X, levels, band)
        offset = 0
        for x, t in sets:
            alone_rows, alone_pts = field._march_to_level(scene, x, np.full(len(x), t),
                                                          band)
            mine = (rows >= offset) & (rows < offset + len(x))
            assert np.array_equal(rows[mine] - offset, alone_rows)
            assert pts[mine].tobytes() == alone_pts.tobytes()
            assert len(alone_rows) > 0
            offset += len(x)


def synthetic_profile():
    return mx.CriticalProfile(
        t_grid=np.array([1.0, 2.0, 3.0, 4.0]),
        chi=np.array([1.0, 0.8, 0.4, 0.02]),
        sample_count=np.full(4, 100),
        band_width=0.005,
        r_max=4.0,
        flags=())


class TestReachSummary:
    def test_crossings_interpolate(self):
        prof = synthetic_profile()
        summary = mx.reach_summary(prof, mu=0.5, alpha=0.25, lam=0.5)
        # chi falls through 0.5 between t=2 and t=3
        assert abs(summary.r_mu_alpha - (2.0 + 0.3 / 0.4)) < 1e-12
        # first approach to zero (threshold 0.05) lands between t=3 and t=4
        assert abs(summary.wfs - (3.0 + 0.35 / 0.38)) < 1e-12

    def test_mu_tilde_formula(self):
        prof = synthetic_profile()
        mu, alpha, lam = 0.5, 0.25, 0.5
        summary = mx.reach_summary(prof, mu=mu, alpha=alpha, lam=lam)
        r = summary.r_mu_alpha
        expect = min(mu, math.sqrt(1.0 - (lam / (r - alpha)) ** 2))
        assert abs(summary.mu_tilde - expect) < 1e-12

    def test_no_crossing_censors_at_depth(self):
        prof = mx.CriticalProfile(
            t_grid=np.array([1.0, 2.0, 3.0]),
            chi=np.array([0.9, 0.9, 0.9]),
            sample_count=np.full(3, 50),
            band_width=0.005,
            r_max=3.0,
            flags=())
        summary = mx.reach_summary(prof, mu=0.5, alpha=0.25, lam=0.5)
        # chi never drops below mu on the sampled range, so the reach is
        # reported as the sampled depth and marked censored
        assert summary.r_mu_alpha == 3.0
        assert "reach-censored" in summary.flags
        assert math.isnan(summary.wfs)

    def test_window_restriction_skips_early_dip(self):
        prof = mx.CriticalProfile(
            t_grid=np.array([0.5, 1.0, 2.0, 3.0]),
            chi=np.array([0.1, 0.9, 0.9, 0.3]),
            sample_count=np.full(4, 50),
            band_width=0.005,
            r_max=3.0,
            flags=())
        summary = mx.reach_summary(prof, mu=0.5, alpha=1.0, lam=0.4)
        # the dip at t=0.5 sits inside the offset and must not count
        assert summary.r_mu_alpha > 2.0
