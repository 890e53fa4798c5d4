"""Distance field evaluation and the sampled critical function."""

import hashlib
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from test_scene import _wire_scene

import medaxis as mx
from medaxis import field
from medaxis.scene import _nearest, _wall_points


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

    @pytest.mark.parametrize("x", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0]])
    def test_non_finite_point_rejected(self, x):
        scene = two_site_scene()
        with pytest.raises(mx.DomainError, match="finite"):
            mx.eval_field(scene, x)
        with pytest.raises(mx.DomainError, match="finite"):
            mx.eval_field_batch(scene, [[0.0, 2.0], x])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(mx.DomainError, match="dimension"):
            mx.eval_field(two_site_scene(), [0.0, 1.0, 2.0])

    def test_inside_offset_rejected_when_alpha_given(self):
        scene = two_site_scene()
        with pytest.raises(mx.OffsetDomainError):
            mx.eval_field(scene, [0.55, 0.0], alpha=0.5)
        # the same point is fine without an offset
        s = mx.eval_field(scene, [0.55, 0.0])
        assert abs(s.R - 0.45) < 1e-12

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
    def test_bad_alpha_rejected(self, alpha):
        scene = two_site_scene()
        with pytest.raises(mx.InvalidSceneError, match="alpha"):
            mx.eval_field(scene, [0.0, 2.0], alpha=alpha)
        with pytest.raises(mx.InvalidSceneError, match="alpha"):
            mx.eval_field_batch(scene, [[0.0, 2.0]], alpha=alpha)

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
        alpha = 0.5 * float(mx.r_batch(scene, X).min())
        near = _nearest(scene, X)
        wall = _wall_points(scene, X, near.norm)
        wall_rows = 0
        out = mx.eval_field_batch(scene, X, alpha=alpha)
        mask = near.cut()
        for k, x in enumerate(X):
            s = mx.eval_field(scene, x, alpha=alpha)
            assert out["R"][k] == s.R
            assert out["F"][k] == s.F
            assert out["F_alpha"][k] == s.F_alpha
            assert np.array_equal(out["grad"][k], s.grad)
            assert out["witness_count"][k] == len(s.witness_ids)
            theta = [lattice[j] for j in mask[k, :-1].nonzero()[0]]
            theta += [wall[k]] * bool(mask[k, -1])
            assert np.array(s.theta).tobytes() == np.array(theta).tobytes()
            wall_rows += s.witness_ids == (-1,)
        assert wall_rows >= 30
        ties = [mx.eval_field(scene, x).witness_ids for x in X[:4]]
        assert all(len(ids) == 4 for ids in ties)

    def test_r_batch_matches(self):
        scene = mx.random_scene(7, bounding_radius=5.0, seed=3)
        X = np.array([[0.1, 0.2], [1.0, -1.0], [-2.0, 0.5]])
        r = mx.r_batch(scene, X)
        out = mx.eval_field_batch(scene, X)
        assert np.allclose(r, out["R"], atol=1e-14)

    @pytest.mark.parametrize("x, reason", [
        ([10.0, 0.0], "outside the open bounding ball"),
        ([0.0, 0.0], "coincides with a site"),
        ([math.nan, 0.0], "must be finite")], ids=["outside", "site", "nan"])
    def test_r_batch_rejects_points_off_the_domain(self, x, reason):
        scene = mx.SiteScene(sites=[[0.0, 0.0], [1.0, 0.0]], bounding_radius=5.0)
        with pytest.raises(mx.DomainError, match=reason):
            mx.r_batch(scene, [[0.5, 0.5], x])

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
        header, *lines = text.splitlines()
        assert header == "t,chi" and text.endswith("\n")
        back = np.array([[float(v) for v in ln.split(",")] for ln in lines])
        assert np.array_equal(back, np.column_stack([prof.t_grid, prof.chi]))

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

    @pytest.mark.parametrize("t_grid", [[0.5, math.nan], [math.nan], [0.5, math.inf]])
    def test_non_finite_levels_rejected(self, t_grid):
        with pytest.raises(mx.InvalidSceneError, match="finite"):
            mx.estimate_critical_function(two_site_scene(), t_grid, samples_per_level=10)

    def test_empty_level_and_sampled_r_max_are_flagged(self):
        prof = mx.estimate_critical_function(mx.random_scene(5, 5.0, seed=1),
                                             np.array([0.1, 1.0, 4.9]),
                                             samples_per_level=100, seed=6)
        assert prof.flags == ("empty-band:4.9", "r-max-sampled")
        assert prof.sample_count[2] == 0 and prof.chi[2] == 1.0
        assert prof.sample_count[:2].min() > 0

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

    def test_sampler_matches_exact_chi_on_coplanar_wire(self):
        """The sampler's d >= 3 march over the cocircular witness sets of a
        small square wire in the plane z = 0 (four sites tie at its center,
        at t = 1) reads within 1e-3 of the exact chi of the same scene."""
        scene = _wire_scene()
        t = np.array([0.3, 0.5, 0.7, 0.9, 1.0, 1.1])
        exact = mx.exact_critical_function(scene, t)
        sampled = mx.estimate_critical_function(scene, t, samples_per_level=400,
                                                band_width=1e-4, seed=3, r_max=exact.r_max)
        np.testing.assert_allclose(sampled.chi, exact.chi, rtol=0.0, atol=1e-3)
        assert exact.chi[4] < 1e-7 and sampled.sample_count.tolist() == [400] * 6

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
    """The seeds of a level march as one batch, which may not change any
    seed's result."""

    def test_rows_march_independently(self):
        scene, _, _ = _planar_with_r_max()
        rng = np.random.default_rng(2)
        band = scene.bounding_radius / 2000.0

        def rows(pts):
            return sorted(p.tobytes() for p in pts)

        for t in (0.4, 1.1):
            X = field._sprinkle(scene, t, 160, rng)
            pts, r_seeds = field._march_to_level(scene, X, t, band)
            assert r_seeds == mx.r_batch(scene, X).max()
            alone = [field._march_to_level(scene, x, t, band)[0]
                     for x in (X[:50], X[50:60], X[60:])]
            assert all(len(p) > 0 for p in alone)
            assert rows(pts) == rows(np.vstack(alone))


# --- the full-scan oracle: every step and halving queries every site ------

def oracle_march(scene, X, t, band, max_iters=200):
    """``field._march_to_level``, written out with a full kernel query at
    every march step and halving.  Returns the kept points and the ends
    (lo, hi) of every bracketed seed's bracket, in seed order."""
    r_bound = scene.bounding_radius
    lo = np.empty_like(X)
    hi = np.empty_like(X)
    bracketed = np.zeros(len(X), bool)
    idx = np.arange(len(X))
    cur = X
    near = _nearest(scene, cur)
    r_here, d_wall, foot = near.R, near.d_wall, near.nearest_points()
    for _ in range(max_iters):
        if idx.size == 0:
            break
        u = (cur - foot) / r_here[:, None]
        gap = t - r_here
        step = np.clip(0.9 * np.abs(gap), band / 4.0, 0.05 * r_bound)
        step = np.minimum(step, 0.5 * d_wall)
        trial = cur + np.sign(gap)[:, None] * step[:, None] * u
        near = _nearest(scene, trial)
        crossed = (r_here - t) * (near.R - t) <= 0.0
        sel = idx[crossed]
        above = (r_here[crossed] - t > 0.0)[:, None]
        lo[sel] = np.where(above, trial[crossed], cur[crossed])
        hi[sel] = np.where(above, cur[crossed], trial[crossed])
        bracketed[sel] = True
        stay = ~crossed
        idx, cur = idx[stay], trial[stay]
        r_here, d_wall = near.R[stay], near.d_wall[stay]
        foot = near.nearest_points()[stay]
    rows = np.nonzero(bracketed)[0]
    a, b = lo[rows], hi[rows]
    ends = (a.copy(), b.copy())
    live = np.arange(len(rows))
    for _ in range(60):
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        neg = (_nearest(scene, mid).R - t) < 0.0
        old = np.where(neg[:, None], a[live], b[live])
        moved = (old.view(np.int64) != mid.view(np.int64)).any(axis=1)
        a[live[neg]] = mid[neg]
        b[live[~neg]] = mid[~neg]
        live = live[moved]
    out = np.vstack([0.5 * (a + b), cur[np.abs(r_here - t) <= band]])
    near = _nearest(scene, out)
    keep = (near.norm < r_bound * (1.0 - 1e-15)) & (np.abs(near.R - t) <= band)
    return out[keep], ends


def _lattice_scene():
    lattice = np.array([[i, j] for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])
    return mx.SiteScene(sites=lattice, bounding_radius=5.0)


def _march_case(case):
    """Scene, band, and the seeds of each level of one march comparison."""
    rng = np.random.default_rng(12)
    if case == "switch":
        # seeds just left of the two sites' bisector, R just below the
        # level: most brackets straddle the bisector
        scene = two_site_scene()
        levels = []
        for t in (1.3, 2.2, 3.0):
            x = -rng.uniform(0.0, 6e-4, 20)
            r = t - rng.uniform(0.0, 4e-4, 20)
            levels.append((np.column_stack([x, np.sqrt(r * r - (x + 1.0) ** 2)]), t))
        return scene, scene.bounding_radius / 2000.0, levels
    if case == "wire-3d":
        scene, ts = _wire_scene(), [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0]
    elif case == "planar-r-max":
        scene, grid, _ = _planar_with_r_max()
        ts = grid.tolist()
    elif case == "lattice":
        scene, ts = _lattice_scene(), [0.3, 0.5, math.sqrt(0.5), 1.0, 2.0]
    else:
        scene, ts = two_site_scene(), [0.5, 1.0, 2.0, 4.5]
    levels = [(field._sprinkle(scene, t, 150, rng), t) for t in ts]
    return scene, scene.bounding_radius / 2000.0, levels


class TestCandidateBisection:
    """Every kept point of the march and its bisection must equal the
    full-scan oracle's bit for bit."""

    @pytest.mark.parametrize("case", ["wire-3d", "planar-r-max", "lattice",
                                      "two-site", "switch"])
    def test_equals_full_scan_oracle(self, case):
        scene, band, levels = _march_case(case)
        marched = []
        for X, t in levels:
            pts, _ = field._march_to_level(scene, X, t, band)
            want_pts, (a, b) = oracle_march(scene, X, t, band)
            assert pts.tobytes() == want_pts.tobytes()
            marched.append(pts)
            if case == "switch":
                ends = [cdist(e, scene.sites).argmin(axis=1) for e in (a, b)]
                assert np.count_nonzero(ends[0] != ends[1]) > 0.5 * len(X)
        pts = np.vstack(marched)
        assert len(pts) > 0.5 * sum(len(X) for X, _ in levels)
        if case == "lattice":  # bisected onto the four-way ties
            R = mx.r_batch(scene, pts)
            assert np.any(np.abs(R - math.sqrt(0.5)) < 1e-12)


def synthetic_profile():
    return mx.CriticalProfile(
        t_grid=np.array([1.0, 2.0, 3.0, 4.0]),
        chi=np.array([1.0, 0.8, 0.4, 0.02]),
        sample_count=np.full(4, 100),
        band_width=0.005,
        r_max=4.0,
        flags=())


class TestReachSummary:
    @pytest.mark.parametrize("alpha, lam, window", [
        (math.nan, 0.5, None), (math.inf, 0.5, None), (0.25, math.nan, None),
        (0.25, math.inf, None), (0.25, 0.5, math.nan), (0.25, 0.5, math.inf)])
    def test_non_finite_parameters_rejected(self, alpha, lam, window):
        with pytest.raises(mx.InvalidSceneError, match="finite"):
            mx.reach_summary(synthetic_profile(), mu=0.5, alpha=alpha, lam=lam,
                             window_alpha=window)

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
