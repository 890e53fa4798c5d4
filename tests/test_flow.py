"""Gradient flow integration, its stopping rules, and the growth certificates."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_axis import adversarial_scene

import medaxis as mx
import medaxis.flow as flow_mod
from medaxis.flow import (_F_BACKSLIDE_TOL, _STALL_FRACTION, _accept, _probe,
                          _with_balls)
from medaxis.scene import _nearest, _seb_stack, _wall_points


# --- the scalar oracle: one start, one probe at a time --------------------

def oracle_witnesses(scene, x, band, prev_wide):
    """One point's distance R to the scene, the labels (site indices, then
    -1 for the wall) and points of its witnesses within R + band, those in
    ``prev_wide`` within R + 2 band, and its exact (tie band) label set."""
    near = _nearest(scene, x[None])
    near.check()
    dmin = float(near.R[0])
    dists = near.d_sites[0].tolist() + [float(near.d_wall[0])]
    labels = list(range(len(scene.sites))) + [-1]
    wide_cut, far = dmin + band, dmin + 2.0 * band
    wide = [k for k, d in zip(labels, dists)
            if d <= (far if k in prev_wide else wide_cut)]
    tie = dmin * (1.0 + scene.tie_tolerance)
    ids = frozenset(k for k, d in zip(labels, dists) if d <= tie)
    pts = [scene.sites[k] if k >= 0 else _wall_points(scene, x[None], near.norm)[0]
           for k in wide]
    return dmin, wide, pts, ids


def oracle_probe(scene, x, band, prev_wide=frozenset()):
    """One kernel query: (dmin, exact ids, steering direction, wide F, wide
    witness count, wide id set, wide witness points)."""
    dmin, labels, pts_w, ids = oracle_witnesses(scene, x, band, prev_wide)
    centers, F = _seb_stack(np.array([pts_w]))
    f_wide = float(F[0])
    grad = (x - centers[0]) / dmin
    if len(pts_w) == 2:
        n = pts_w[1] - pts_w[0]
        nn = float(np.linalg.norm(n))
        if nn > 0.0:
            n = n / nn
            grad = grad - float(grad @ n) * n
    return dmin, ids, grad, f_wide, len(pts_w), frozenset(labels), pts_w


def oracle_snap(y, pts_w, cap):
    """One capped Newton step of y toward the equal-distance locus of a pair."""
    d1 = float(np.linalg.norm(y - pts_w[0]))
    d2 = float(np.linalg.norm(y - pts_w[1]))
    if d1 == 0.0 or d2 == 0.0:
        return y
    g = d1 - d2
    dg = (y - pts_w[0]) / d1 - (y - pts_w[1]) / d2
    nrm2 = float(dg @ dg)
    if nrm2 <= 0.0:
        return y
    step = -(g / nrm2) * dg
    if float(np.linalg.norm(step)) > cap:
        return y
    return y + step


def oracle_flow(scene, x0, alpha=None, horizon=1.0, stop=None, max_step=None,
                flow_band=None, events=None):
    """The flow of one start, node by node and probe by probe.  ``events``,
    a Counter, counts the trials that left the domain ("outside"), the
    trials snapped to a tie ("snaps") and the trials whose F dropped by more
    than the tolerance ("backslides")."""
    if events is None:
        events = collections.Counter()
    if stop is not None and stop.alpha is not None and alpha is None:
        alpha = stop.alpha
    if max_step is None:
        max_step = scene.bounding_radius / 500.0
    if flow_band is None:
        flow_band = max_step
    x = np.asarray(x0, float).copy()
    t = arc = 0.0
    rejected = 0
    rows = []
    reason = None
    stall_floor = _STALL_FRACTION * scene.bounding_radius
    node = oracle_probe(scene, x, flow_band)
    while True:
        dmin, ids, grad, f_wide, n_wide, wide, _ = node
        gn_wide = math.sqrt(max(0.0, 1.0 - (f_wide / dmin) ** 2))
        if alpha is not None and dmin > alpha:
            fa_wide = (dmin - alpha) / dmin * f_wide
        else:
            fa_wide = float("nan")
        rows.append((t, arc, x.copy(), dmin, f_wide, fa_wide, gn_wide, n_wide))
        if stop is not None and stop.kind == "axis" and fa_wide >= stop.lam:
            reason = "entered-axis"
            break
        if stop is not None and stop.kind == "gradient" and gn_wide < stop.eta:
            reason = "gradient-below"
            break
        if t >= horizon:
            reason = "time-exhausted"
            break
        if len(rows) >= flow_mod._NODE_CAP:
            reason = "node-cap"
            break
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            reason = "stalled"
            break
        remaining = horizon - t
        if remaining <= stall_floor:
            reason = "time-exhausted"
            break
        dt = min(max_step, remaining)
        while dt >= stall_floor:
            y = x + dt * grad
            try:
                trial = oracle_probe(scene, y, flow_band, wide)
                pts_y = trial[-1]
                if len(pts_y) == 2:
                    y2 = oracle_snap(y, pts_y, cap=dt + 2.0 * flow_band)
                    if y2 is not y:
                        events["snaps"] += 1
                        y = y2
                        trial = oracle_probe(scene, y, flow_band, wide)
            except mx.DomainError:
                events["outside"] += 1
                trial = None
            if trial is not None:
                dmin_y, ids_y, _, f_wide_y, _, _, _ = trial
                events["backslides"] += f_wide_y < f_wide - _F_BACKSLIDE_TOL
                if not (dmin_y < dmin or (ids_y != ids
                                          and f_wide_y < f_wide - _F_BACKSLIDE_TOL)):
                    break
            dt *= 0.5
            rejected += 1
        else:
            reason = "stalled"
            break
        arc += dt * gnorm
        t = horizon if dt == remaining else t + dt
        x = y
        node = trial
    ts, ss, xs, rs, fs, fas, gns, ws = zip(*rows)
    return mx.Trajectory(scene=scene, alpha=alpha, times=np.array(ts),
                         arc=np.array(ss), points=np.array(xs), R=np.array(rs),
                         F=np.array(fs), F_alpha=np.array(fas),
                         grad_norm=np.array(gns), witness_counts=np.array(ws, int),
                         stop_reason=reason, flow_band=flow_band,
                         max_step=max_step, rejected_steps=rejected)


_FIELDS = ("times", "arc", "points", "R", "F", "F_alpha", "grad_norm",
           "witness_counts")


def assert_same_trajectory(got, want):
    """Equal bit for bit: every array's dtype, shape and bytes, and the
    scalar fields."""
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("alpha", "stop_reason", "flow_band", "max_step", "rejected_steps"):
        assert getattr(got, name) == getattr(want, name), name


def two_site_scene():
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                        bounding_radius=10.0)


def domain_points(scene, k, seed, clearance=0.05):
    """k seeded points of the open domain, clear of every site."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < k:
        x = rng.uniform(-1.0, 1.0, scene.dim) * scene.bounding_radius
        if (np.linalg.norm(x) < 0.98 * scene.bounding_radius
                and np.linalg.norm(scene.sites - x, axis=1).min() > clearance):
            out.append(x)
    return np.array(out)


def bisector_points(scene, k, seed):
    """k seeded points on the skeleton's edges (none if it has none), away
    from their ends, where the flow slides along a tie."""
    sk = mx.build_skeleton(scene)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k if len(sk.edges) else 0):
        e = int(rng.integers(len(sk.edges)))
        s0, s1 = sk.s[e].tolist()
        s = rng.uniform(s0 + 0.1 * (s1 - s0), s0 + 0.9 * (s1 - s0))
        out.append(sk.mid[e] + s * sk.u[e])
    return np.array(out).reshape(-1, scene.dim)


def separated_scene(n, seed, radius=10.0, min_sep=0.4):
    """n seeded sites more than min_sep apart, as in a dense flow field."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        p = rng.uniform(-0.85, 0.85, 2) * radius
        if (np.linalg.norm(p) < 0.85 * radius
                and all(np.linalg.norm(p - q) > min_sep for q in pts)):
            pts.append(p)
    return mx.SiteScene(np.array(pts), radius)


def acute_triangle():
    return mx.SiteScene(sites=np.array([[-1.0, -0.5], [1.2, -0.6], [0.1, 1.3]]),
                        bounding_radius=10.0)


def _oracle_cases():
    plane = mx.random_scene(10, bounding_radius=6.0, seed=19)
    space = mx.random_scene(12, bounding_radius=5.0, seed=4, dim=3)
    # sites 0.01 and 0.015 from the wall: trial steps leave the domain
    near_wall = mx.SiteScene(np.array([[9.99, 0.0], [0.0, 9.985], [-3.0, 1.0]]), 10.0)
    tri = acute_triangle()
    top = mx.smallest_enclosing_ball(tri.sites).center  # a local maximum of R
    dense = separated_scene(40, 2)
    one_site = adversarial_scene("near-wall", 1, 4)
    return {
        "plane-time": (plane, domain_points(plane, 12, 1),
                       dict(alpha=0.3, horizon=1.0, stop=mx.time_exhausted())),
        "plane-axis-bisectors": (plane, bisector_points(plane, 10, 2),
                                 dict(horizon=2.0, stop=mx.entered_axis(0.5, 0.3))),
        "two-site-gradient": (two_site_scene(),
                              [[0.0, 1.5], [0.3, 4.0], [0.0, 4.0], [-2.0, 0.5]],
                              dict(alpha=0.5, horizon=20.0, stop=mx.gradient_below(0.5))),
        "near-wall": (near_wall, [[9.993, 0.001], [9.992, -0.002], [0.001, 9.988]],
                      dict(alpha=0.001, horizon=0.2, flow_band=1e-4)),
        "critical": (tri, [top, top + [1e-4, 2e-4], [0.5, 0.2], [3.0, -2.0]],
                     dict(alpha=0.2, horizon=0.05)),
        "horizon-zero": (plane, domain_points(plane, 5, 3), dict(horizon=0.0)),
        "step-below-floor": (plane, domain_points(plane, 3, 4), dict(max_step=1e-13)),
        "small-step": (two_site_scene(), [[0.001, 2.0], [-0.3, 1.0]],
                       dict(horizon=0.01, max_step=1e-4, stop=mx.entered_axis(0.4, 0.2))),
        # the hysteresis keep-set changes the flow from one of these starts
        "keep-set": (dense, domain_points(dense, 60, 2)[24:30],
                     dict(horizon=1.0, stop=mx.entered_axis(0.5, 0.3))),
        # the last step ends the flow at the horizon, where t + (horizon - t)
        # rounds to another value
        "horizon-snap": (near_wall, [[9.994490410408774, -0.0011032339845548293]],
                         dict(horizon=0.0038, flow_band=1e-5)),
        # F drops as the wall point leaves the band, with the same exact
        # witnesses, so the step stands
        "wall-band": (one_site, domain_points(one_site, 10, 4)[6:],
                      dict(horizon=0.6, stop=mx.gradient_below(0.2))),
        "space-axis": (space, domain_points(space, 8, 5),
                       dict(horizon=1.0, stop=mx.entered_axis(0.4, 0.2))),
        "space-time": (space, domain_points(space, 4, 6), dict(alpha=0.1, horizon=0.5)),
    }


_CASES = _oracle_cases()


class TestLockstepBatch:
    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_equals_scalar_oracle_bit_for_bit(self, name):
        scene, starts, kw = _CASES[name]
        events = collections.Counter()
        want = [oracle_flow(scene, x, events=events, **kw) for x in starts]
        got = mx.integrate_flows(scene, starts, **kw)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_trajectory(g, w)
        reasons = [w.stop_reason for w in want]
        if name == "near-wall":
            assert events["outside"] > 0
        if name == "plane-axis-bisectors":
            assert events["snaps"] > 0 and "entered-axis" in reasons
            assert any((w.witness_counts == 2).any() for w in want)
        if name == "two-site-gradient":
            assert "gradient-below" in reasons
        if name == "critical":
            # at the maximum the steering vanishes; beside it every step
            # lowers R and is halved down to the floor
            assert reasons[:2] == ["stalled", "stalled"]
            assert want[0].rejected_steps == 0 and want[1].rejected_steps > 20
        if name == "horizon-zero":
            assert all(len(w) == 1 for w in want) and set(reasons) == {"time-exhausted"}
        if name == "step-below-floor":
            assert all(len(w) == 1 for w in want) and set(reasons) == {"stalled"}
        if name.startswith("space"):
            assert scene.dim == 3
        if name == "horizon-snap":
            t = want[0].times
            assert t[-1] == 0.0038 and t[-2] + (0.0038 - t[-2]) != 0.0038
        if name == "wall-band":
            assert events["backslides"] > 0

    def test_node_cap_counts_nodes_not_ticks(self, monkeypatch):
        monkeypatch.setattr(flow_mod, "_NODE_CAP", 6)
        capped_late = 0  # capped rows whose rejected steps delayed the cap
        for name in ("near-wall", "plane-axis-bisectors", "critical"):
            scene, starts, kw = _CASES[name]
            want = [oracle_flow(scene, x, **kw) for x in starts]
            for g, w in zip(mx.integrate_flows(scene, starts, **kw), want):
                assert_same_trajectory(g, w)
            capped_late += sum(w.stop_reason == "node-cap" and w.rejected_steps > 0
                               for w in want)
        assert capped_late > 0

    def test_one_start_is_a_batch_of_one(self):
        scene, starts, kw = _CASES["plane-axis-bisectors"]
        for x in starts[:3]:
            assert_same_trajectory(mx.integrate_flow(scene, x, **kw),
                                   mx.integrate_flows(scene, [x], **kw)[0])

    def test_rows_do_not_depend_on_the_batch(self):
        scene = mx.random_scene(10, bounding_radius=6.0, seed=19)
        starts = np.vstack([domain_points(scene, 6, 7), bisector_points(scene, 6, 8)])
        kw = dict(horizon=1.5, stop=mx.entered_axis(0.5, 0.3))
        full = mx.integrate_flows(scene, starts, **kw)
        perm = np.random.default_rng(9).permutation(len(starts))
        for k, traj in zip(perm, mx.integrate_flows(scene, starts[perm], **kw)):
            assert_same_trajectory(traj, full[k])
        halves = (mx.integrate_flows(scene, starts[:5], **kw)
                  + mx.integrate_flows(scene, starts[5:], **kw))
        for traj, want in zip(halves, full):
            assert_same_trajectory(traj, want)
        twice = mx.integrate_flows(scene, np.repeat(starts, 2, axis=0), **kw)
        for k, want in enumerate(full):
            assert_same_trajectory(twice[2 * k], want)
            assert_same_trajectory(twice[2 * k + 1], want)

    def test_acceptance_rule_matches_oracle(self):
        scene, band = two_site_scene(), 0.012
        nodes = np.array([[0.0, 2.0], [0.0, 2.0], [0.003, 2.0], [2.0, 1.0], [0.004, 2.0]])
        trials = np.array([[0.3, 3.0], [0.0, 2.5], [0.3, 3.0], [1.9, 1.0], [0.0, 2.2]])
        node = _with_balls(scene, _probe(scene, nodes, band))
        trial = _with_balls(scene, _probe(scene, trials, band, node.wide))
        got = _accept(scene, node, trial)
        for k, (x, y) in enumerate(zip(nodes, trials)):
            dmin, ids, _, f_wide, _, wide, _ = oracle_probe(scene, x, band)
            dmin_y, ids_y, _, f_wide_y, _, _, _ = oracle_probe(scene, y, band, wide)
            assert got[k] == (not (dmin_y < dmin or (
                ids_y != ids and f_wide_y < f_wide - _F_BACKSLIDE_TOL)))
        # R grows, but F drops from 1 to 0 as the exact witnesses change
        assert not got[0]
        # F drops with the same exact witness, so the step stands
        assert got[2] and trial.F[2] < node.F[2] - _F_BACKSLIDE_TOL

    def test_empty_batch_and_bad_starts(self):
        scene = two_site_scene()
        assert mx.integrate_flows(scene, np.empty((0, 2))) == []
        with pytest.raises(mx.DomainError, match="dimension"):
            mx.integrate_flows(scene, [[0.0, 1.0, 2.0]])
        with pytest.raises(mx.DomainError, match="dimension"):
            mx.integrate_flows(scene, [[0.0, 1.0], [2.0]])
        with pytest.raises(mx.DomainError, match="coincides with a site"):
            mx.integrate_flows(scene, [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(mx.DomainError, match="outside"):
            mx.integrate_flows(scene, [[0.0, 1.0], [20.0, 0.0]])
        for bad in ([math.nan, 0.0], [0.0, math.inf]):
            with pytest.raises(mx.DomainError, match="finite"):
                mx.integrate_flows(scene, [[0.0, 1.0], bad])
        with pytest.raises(ValueError, match="flow_band"):
            mx.integrate_flows(scene, [[0.0, 1.0]], flow_band=-0.1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            mx.integrate_flows(two_site_scene(), [[0.0, 2.0]], horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            mx.integrate_flow(two_site_scene(), [0.0, 2.0], horizon=horizon)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["lattice", "polygon", "polygon-center", "row",
                                 "near-wall", "random"]),
           size=st.integers(1, 60), seed=st.integers(0, 2 ** 16),
           lam=st.floats(0.05, 1.0), alpha=st.floats(0.0, 0.5))
    def test_radius_never_decreases_and_certificate_holds(self, kind, size, seed,
                                                          lam, alpha):
        scene = adversarial_scene(kind, size, seed)
        starts = np.vstack([domain_points(scene, 6, seed),
                            bisector_points(scene, 4, seed)])
        trajs = mx.integrate_flows(scene, starts, horizon=1.0,
                                   stop=mx.entered_axis(lam, alpha))
        for traj in trajs:
            assert np.all(np.diff(traj.R) >= 0.0)
            cert = mx.radius_certificate(traj, alpha, lam)
            if not any(f.startswith("start-") for f in cert.flags):
                assert cert.valid


class TestIntegrateFlow:
    def test_radius_never_decreases(self):
        scene = mx.random_scene(10, bounding_radius=6.0, seed=19)
        rng = np.random.default_rng(2)
        done = 0
        while done < 8:
            x0 = rng.uniform(-5.0, 5.0, size=2)
            if np.linalg.norm(x0) > 5.5:
                continue
            try:
                traj = mx.integrate_flow(scene, x0, alpha=0.3, horizon=1.0,
                                         stop=mx.time_exhausted())
            except mx.DomainError:
                continue
            assert np.all(np.diff(traj.R) >= 0.0)
            done += 1

    def test_filter_value_never_drops_much(self):
        scene = mx.random_scene(10, bounding_radius=6.0, seed=19)
        traj = mx.integrate_flow(scene, np.array([0.4, -0.9]), alpha=0.3,
                                 horizon=2.0, stop=mx.time_exhausted())
        fa = traj.F_alpha[np.isfinite(traj.F_alpha)]
        if len(fa) > 1:
            assert np.diff(fa).min() >= -1e-7

    def test_entered_axis_stop(self):
        scene = two_site_scene()
        traj = mx.integrate_flow(scene, np.array([0.0, 1.5]), alpha=0.5,
                                 horizon=20.0, stop=mx.entered_axis(0.75, 0.5))
        assert traj.stop_reason == "entered-axis"
        assert traj.F_alpha[-1] >= 0.75 - 1e-9
        # the bisector flow is vertical; entry happens at the hole boundary
        assert abs(traj.points[-1][0]) < 1e-9
        assert traj.points[-1][1] >= math.sqrt(3.0) - 1e-3

    def test_critical_point_is_a_fixed_point(self):
        scene = two_site_scene()
        start = np.array([0.0, 4.95])
        traj = mx.integrate_flow(scene, start, alpha=0.5, horizon=0.5,
                                 stop=mx.time_exhausted())
        assert traj.stop_reason == "time-exhausted"
        assert np.linalg.norm(traj.points[-1] - start) < 1e-9

    def test_gradient_below_stop(self):
        scene = two_site_scene()
        traj = mx.integrate_flow(scene, np.array([0.0, 4.0]), alpha=0.5,
                                 horizon=50.0, stop=mx.gradient_below(0.5))
        assert traj.stop_reason == "gradient-below"
        assert traj.grad_norm[-1] < 0.5

    def test_time_exhausted_accumulates_horizon(self):
        scene = two_site_scene()
        traj = mx.integrate_flow(scene, np.array([2.0, 2.0]), alpha=0.3,
                                 horizon=0.25, stop=mx.time_exhausted())
        assert traj.stop_reason == "time-exhausted"
        assert abs(traj.times[-1] - 0.25) < 1e-9

    def test_speed_matches_gradient_norm(self):
        scene = two_site_scene()
        traj = mx.integrate_flow(scene, np.array([0.3, 0.4]), alpha=0.3,
                                 horizon=0.5, stop=mx.time_exhausted())
        ds = np.diff(traj.arc)
        dt = np.diff(traj.times)
        speed = ds[dt > 0] / dt[dt > 0]
        assert np.all(speed <= 1.0 + 1e-9)

    def test_off_axis_flow_is_radial_from_witness(self):
        scene = two_site_scene()
        traj = mx.integrate_flow(scene, np.array([0.5, 0.0]), alpha=None,
                                 horizon=0.3, stop=mx.time_exhausted())
        # single witness at (1,0): motion along -x at unit speed
        assert np.allclose(traj.points[:, 1], 0.0, atol=1e-12)
        assert abs(traj.R[-1] - (0.5 + traj.times[-1])) < 1e-6


class TestRadiusCertificate:
    def test_radial_two_site_residuals(self):
        scene = two_site_scene()
        alpha, lam = 0.5, 0.75
        traj = mx.integrate_flow(scene, np.array([0.0, 1.5]), alpha=alpha,
                                 horizon=20.0, stop=mx.entered_axis(lam, alpha))
        cert = mx.radius_certificate(traj, alpha=alpha, lam=lam)
        assert cert.valid
        assert cert.first_inside is not None
        # growth along the bisector is exact: (R-alpha)^2 - (s0+s)^2 - lam^2 >= 0
        assert cert.residuals[:cert.first_inside + 1].min() >= -1e-6 * 100.0

    def test_start_inside_offset_flagged(self):
        scene = two_site_scene()
        traj = mx.integrate_flow(scene, np.array([0.6, 0.0]), alpha=None,
                                 horizon=0.05, stop=mx.time_exhausted())
        cert = mx.radius_certificate(traj, alpha=0.5, lam=0.75)
        assert not cert.valid
        assert "start-inside-offset" in cert.flags

    def test_start_below_certificate_radius_flagged(self):
        scene = two_site_scene()
        # R: sqrt(1.36) = 1.166, so R - alpha = 0.666 < lam
        traj = mx.integrate_flow(scene, np.array([0.0, 0.6]), alpha=0.5,
                                 horizon=0.05, stop=mx.time_exhausted())
        cert = mx.radius_certificate(traj, alpha=0.5, lam=0.75)
        assert not cert.valid
        assert "start-below-certificate-radius" in cert.flags

    def test_never_entering_is_flagged(self):
        scene = two_site_scene()
        traj = mx.integrate_flow(scene, np.array([0.0, 1.5]), alpha=0.5,
                                 horizon=0.01, stop=mx.entered_axis(0.75, 0.5))
        cert = mx.radius_certificate(traj, alpha=0.5, lam=0.75)
        assert cert.first_inside is None
        assert "never-entered-axis" in cert.flags


class TestPushPath:
    def test_pushed_length_bound(self):
        scene = two_site_scene()
        base = np.array([[0.0, 1.9], [0.05, 2.0], [0.0, 2.1]])
        pushed = mx.push_path(scene, base, T=0.2, alpha=0.5)
        assert pushed.L_pushed <= pushed.bound + 1e-6
        assert pushed.bound == pytest.approx(
            2.0 * 0.2 + pushed.L_base * math.exp(0.2 / 0.5), rel=1e-12)

    def test_zero_time_push_is_identity(self):
        scene = two_site_scene()
        base = np.array([[0.0, 1.9], [0.0, 2.1]])
        pushed = mx.push_path(scene, base, T=0.0, alpha=0.5)
        assert pushed.L_pushed == pytest.approx(pushed.L_base, abs=1e-9)


class TestExpansionCheck:
    def test_nearby_points_spread_within_bound(self):
        scene = two_site_scene()
        rep = mx.flow_expansion_check(scene, np.array([0.1, 2.0]),
                                      np.array([-0.1, 2.05]), alpha=0.5, T=0.4)
        assert rep.ok
        assert rep.dT <= rep.bound + 1e-9
        assert rep.bound == pytest.approx(rep.d0 * math.exp(0.4 / 0.5), rel=1e-12)
