"""Distance field evaluation and the sampled critical function."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist
from test_scene import _wire_scene

import medaxis as mx
from medaxis import field
from medaxis.scene import _nearest, _row_norms, _wall_points


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
        for band in (None, 0.05):
            out = mx.eval_field_batch(scene, X, alpha=alpha, witness_band=band)
            mask = near.cut(band)
            for k, x in enumerate(X):
                s = mx.eval_field(scene, x, alpha=alpha, witness_band=band)
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
    """The seeds of a level march as one batch, and the bisection's full
    query runs in row chunks; neither schedule may change any result."""

    @pytest.mark.parametrize("case", ["planar-r-max", "empty-band", "3d"])
    @pytest.mark.parametrize("cap", [1, 2500, 1 << 40])
    def test_batch_schedule_does_not_change_results(self, case, cap,
                                                     monkeypatch):
        """``cap`` site distances per row chunk: one row per chunk, 200 to
        500 rows (the default's chunk holds every row of a level), or all
        of them in one chunk."""
        if case == "planar-r-max":
            scene, t_grid, r_max = _planar_with_r_max()
        elif case == "empty-band":
            scene, t_grid, r_max = (mx.random_scene(5, 5.0, seed=1),
                                    np.array([0.1, 1.0, 4.9]), None)
        else:
            scene, t_grid, r_max = (mx.random_scene(6, 5.0, seed=2, dim=3),
                                    np.linspace(0.3, 3.0, 4), None)

        def run():
            return mx.estimate_critical_function(scene, t_grid, samples_per_level=1000,
                                                 seed=6, r_max=r_max)

        ref = run()
        monkeypatch.setattr(field, "_CHUNK_DISTANCES", cap)
        got = run()
        assert got.chi.tobytes() == ref.chi.tobytes()
        assert got.sample_count.tolist() == ref.sample_count.tolist()
        assert got.flags == ref.flags
        assert got.r_max == ref.r_max

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


# --- the full-scan oracle: every halving queries every site ---------------

def oracle_march(scene, X, t, band, max_iters=200):
    """``field._march_to_level`` with a full kernel query at every halving.
    Returns the kept points and the ends (lo, hi) of every bracketed
    seed's bracket, in seed order."""
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
    """Later halvings measure each seed's candidate sites only; every kept
    point must equal the full-scan oracle's bit for bit."""

    @pytest.mark.parametrize("setting", ["default", "candidates", "small-chunks"])
    @pytest.mark.parametrize("case", ["wire-3d", "planar-r-max", "lattice",
                                      "two-site", "switch"])
    def test_equals_full_scan_oracle(self, case, setting, monkeypatch):
        """``candidates`` widens every table to all sites, so the result may
        depend on a table only through the sites it holds; ``small-chunks``
        queries the first halving in chunks of 62 // m rows, some of one."""
        if setting == "small-chunks":
            monkeypatch.setattr(field, "_CHUNK_DISTANCES", 62)
        tables = []
        bracket_candidates = field._bracket_candidates

        def spy(scene, mid, width):
            R, cand = bracket_candidates(scene, mid, width)
            if setting == "candidates":
                cand = np.tile(np.arange(len(scene.sites)), (len(mid), 1))
            tables.append(cand)
            return R, cand

        monkeypatch.setattr(field, "_bracket_candidates", spy)
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
        assert len(tables) == len(levels)
        if case == "wire-3d" and setting != "candidates":
            assert max(cand.shape[1] for cand in tables) < len(scene.sites)
        if case == "lattice":  # bisected onto the four-way ties
            R = mx.r_batch(scene, pts)
            assert np.any(np.abs(R - math.sqrt(0.5)) < 1e-12)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["random-2d", "random-3d", "lattice", "wire-3d"]),
           seed=st.integers(0, 2 ** 16), log_width=st.floats(-9.0, 0.5))
    def test_candidates_hold_every_nearest_site(self, kind, seed, log_width):
        rng = np.random.default_rng(seed)
        if kind == "lattice":
            scene = _lattice_scene()
            # near the cells' centers, where four sites tie
            a = rng.integers(-1, 1, size=(40, 2)) + 0.5 + rng.normal(size=(40, 2)) * 1e-3
        elif kind == "wire-3d":
            scene = _wire_scene()
            a = rng.uniform(-1.2, 1.2, size=(40, 3))
        else:
            dim = 2 if kind == "random-2d" else 3
            scene = mx.random_scene(int(rng.integers(1, 30)), 5.0, seed=seed, dim=dim)
            a = rng.uniform(-3.0, 3.0, size=(40, dim))
        step = rng.normal(size=a.shape)
        b = a + 10.0 ** log_width * step / np.linalg.norm(step, axis=1, keepdims=True)
        mid = 0.5 * (a + b)
        R, cand = field._bracket_candidates(scene, mid, _row_norms(b - a))
        assert R.tobytes() == _nearest(scene, mid).R.tobytes()
        # points on each bracket and in the box its ends span
        for y in [a, b, a + rng.uniform(size=(40, 1)) * (b - a),
                  a + rng.uniform(size=a.shape) * (b - a)]:
            d = cdist(y, scene.sites)
            for i, row in enumerate(d):
                assert set(np.flatnonzero(row == row.min())) <= set(cand[i])
            assert np.all(_nearest(scene, y, cand).d_sites.min(axis=1) == d.min(axis=1))


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
