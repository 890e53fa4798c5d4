"""Gradient flow integration, its stopping rules, and the growth certificates."""

import collections
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_axis import adversarial_scene

import medaxis as mx
import medaxis.flow as flow_mod
from medaxis import svgout
from medaxis.flow import _STALL_FRACTION, _accept, _probe, _with_balls
from medaxis.scene import _nearest, _seb_stack, _wall_points


# --- the scalar oracle: one start, one probe at a time --------------------

def oracle_witnesses(scene, x, band, prev_wide):
    """One point's distance R to the scene, and the labels (site indices,
    then -1 for the wall) and points of its witnesses within R + band,
    those in ``prev_wide`` within R + 2 band."""
    near = _nearest(scene, x[None])
    near.check()
    dmin = float(near.R[0])
    dists = near.d_sites[0].tolist() + [float(near.d_wall[0])]
    labels = list(range(len(scene.sites))) + [-1]
    wide_cut, far = dmin + band, dmin + 2.0 * band
    wide = [k for k, d in zip(labels, dists)
            if d <= (far if k in prev_wide else wide_cut)]
    pts = [scene.sites[k] if k >= 0 else _wall_points(scene, x[None], near.norm)[0]
           for k in wide]
    return dmin, wide, pts


def oracle_probe(scene, x, band, prev_wide=frozenset()):
    """One kernel query: (dmin, steering direction, wide F, wide witness
    count, wide id set, wide witness points)."""
    dmin, labels, pts_w = oracle_witnesses(scene, x, band, prev_wide)
    centers, F = _seb_stack(np.array([pts_w]))
    grad = (x - centers[0]) / dmin
    return dmin, grad, float(F[0]), len(pts_w), frozenset(labels), pts_w


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


def oracle_flow(scene, x0, alpha=None, horizon=1.0, lam=None, max_step=None,
                events=None):
    """The flow of one start, node by node and probe by probe.  ``events``,
    a Counter, counts the trials that left the domain ("outside") and the
    trials snapped to a tie ("snaps")."""
    if events is None:
        events = collections.Counter()
    if max_step is None:
        max_step = scene.bounding_radius / 500.0
    x = np.asarray(x0, float).copy()
    t = arc = 0.0
    rejected = 0
    rows = []
    reason = None
    stall_floor = _STALL_FRACTION * scene.bounding_radius
    node = oracle_probe(scene, x, max_step)
    while True:
        dmin, grad, f_wide, n_wide, wide, _ = node
        ratio = f_wide / dmin
        gn_wide = math.sqrt(max(0.0, 1.0 - ratio * ratio))
        if alpha is not None and dmin > alpha:
            fa_wide = (dmin - alpha) / dmin * f_wide
        else:
            fa_wide = float("nan")
        rows.append((t, arc, x.copy(), dmin, f_wide, fa_wide, gn_wide, n_wide))
        if lam is not None and fa_wide >= lam:
            reason = "entered-axis"
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
                trial = oracle_probe(scene, y, max_step, wide)
                pts_y = trial[-1]
                if len(pts_y) == 2:
                    y2 = oracle_snap(y, pts_y, cap=dt + 2.0 * max_step)
                    if y2 is not y:
                        events["snaps"] += 1
                        y = y2
                        trial = oracle_probe(scene, y, max_step, wide)
            except mx.DomainError:
                events["outside"] += 1
                trial = None
            if trial is not None and trial[0] > dmin:
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
                         stop_reason=reason, max_step=max_step,
                         rejected_steps=rejected)


_FIELDS = ("times", "arc", "points", "R", "F", "F_alpha", "grad_norm",
           "witness_counts")


def assert_same_trajectory(got, want):
    """Equal bit for bit: every array's dtype, shape and bytes, and the
    scalar fields."""
    for name in _FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("alpha", "stop_reason", "max_step", "rejected_steps"):
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
    # sites 0.01 and 0.015 from the wall, starts nearer the wall than the
    # sites: trial steps leave the domain
    near_wall = mx.SiteScene(np.array([[9.99, 0.0], [0.0, 9.985], [-3.0, 1.0]]), 10.0)
    tri = acute_triangle()
    top = mx.smallest_enclosing_ball(tri.sites).center  # a local maximum of R
    dense = separated_scene(40, 2)
    one_site = adversarial_scene("near-wall", 1, 4)
    return {
        "plane-time": (plane, domain_points(plane, 12, 1),
                       dict(alpha=0.3, horizon=1.0)),
        "plane-axis-bisectors": (plane, bisector_points(plane, 10, 2),
                                 dict(alpha=0.3, horizon=2.0, lam=0.5)),
        "near-wall": (near_wall, [[9.999, 0.001], [9.9985, -0.01], [0.004, 9.999]],
                      dict(alpha=0.001, horizon=0.2)),
        "critical": (tri, [top, top + [1e-4, 2e-4], [0.5, 0.2], [3.0, -2.0]],
                     dict(alpha=0.2, horizon=0.05)),
        "horizon-zero": (plane, domain_points(plane, 5, 3), dict(horizon=0.0)),
        "step-below-floor": (plane, domain_points(plane, 3, 4), dict(max_step=1e-13)),
        "small-step": (two_site_scene(), [[0.001, 2.0], [-0.3, 1.0]],
                       dict(alpha=0.2, horizon=0.01, lam=0.4, max_step=1e-4)),
        # the hysteresis keep-set changes the flow from one of these starts
        "keep-set": (dense, domain_points(dense, 60, 2)[24:30],
                     dict(alpha=0.3, horizon=1.0, lam=0.5)),
        # the last step ends the flow at the horizon, where t + (horizon - t)
        # rounds to another value
        "horizon-snap": (near_wall, [[9.996328903094296, -0.0012490025964095434]],
                         dict(horizon=0.0258)),
        # F drops as the wall point leaves the band; the step stands, as R
        # increases
        "wall-band": (one_site, domain_points(one_site, 10, 4)[6:],
                      dict(horizon=0.6)),
        "space-axis": (space, domain_points(space, 8, 5),
                       dict(alpha=0.2, horizon=1.0, lam=0.4)),
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
            assert t[-1] == 0.0258 and t[-2] + (0.0258 - t[-2]) != 0.0258
        if name == "wall-band":
            assert any((np.diff(w.F) < 0.0).any() for w in want)

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

    def test_rows_do_not_depend_on_the_batch(self):
        scene = mx.random_scene(10, bounding_radius=6.0, seed=19)
        starts = np.vstack([domain_points(scene, 6, 7), bisector_points(scene, 6, 8)])
        kw = dict(alpha=0.3, horizon=1.5, lam=0.5)
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
        nodes = np.array([[0.0, 2.0], [0.0, 2.0], [2.0, 1.0], [0.004, 2.0], [0.5, 9.0]])
        trials = np.array([[0.3, 3.0], [0.0, 2.5], [1.9, 1.0], [0.0, 2.2], [0.5, 11.0]])
        node = _with_balls(scene, _probe(scene, nodes, band))
        trial = _with_balls(scene, _probe(scene, trials, band, node.wide))
        got = _accept(node, trial)
        for k, (x, y) in enumerate(zip(nodes, trials)):
            dmin, _, _, _, wide, _ = oracle_probe(scene, x, band)
            try:
                dmin_y = oracle_probe(scene, y, band, wide)[0]
            except mx.DomainError:
                dmin_y = -math.inf
            assert got[k] == (dmin_y >= dmin)
        # R grows, although F drops from 1 to 0 as the witnesses change
        assert got[0] and trial.F[0] < node.F[0]
        # a trial outside the domain is rejected
        assert not got[4]

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

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            mx.integrate_flows(two_site_scene(), [[0.0, 2.0]], horizon=horizon)

    @pytest.mark.parametrize("kw, message", [
        (dict(max_step=True), "max_step must be finite and positive"),
        (dict(max_step=0.0), "max_step must be finite and positive"),
        (dict(max_step="0.02"), "max_step must be finite and positive"),
        (dict(max_step=-0.02), "max_step must be finite and positive"),
        (dict(max_step=math.nan), "max_step must be finite and positive"),
        (dict(max_step=math.inf), "max_step must be finite and positive"),
        (dict(alpha=0.5, lam=math.nan), "lam must be finite and positive"),
        (dict(alpha=0.5, lam=-0.75), "lam must be finite and positive"),
        (dict(alpha=0.5, lam=0.0), "lam must be finite and positive"),
        (dict(alpha=math.nan, lam=0.75), "alpha must be finite and nonnegative"),
        (dict(alpha=-0.5), "alpha must be finite and nonnegative"),
        (dict(alpha=math.inf), "alpha must be finite and nonnegative"),
    ])
    def test_bad_parameters_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            mx.integrate_flows(two_site_scene(), [[0.3, 2.0]], **kw)

    def test_lam_needs_alpha(self):
        with pytest.raises(ValueError, match="lam needs alpha"):
            mx.integrate_flows(two_site_scene(), [[0.3, 2.0]], lam=0.75)

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
                                   lam=lam, alpha=alpha)
        for traj in trajs:
            assert np.all(np.diff(traj.R) >= 0.0)
            cert = mx.radius_certificate(traj, alpha, lam)
            if not any(f.startswith("start-") for f in cert.flags):
                assert cert.valid

    @pytest.mark.parametrize("size, seed, start, lam, alpha", [
        (1, 7178, [0.35043833, 4.21981254], 0.25, 0.0),
        (47, 63210, [5.293145490217737, 0.9518500479528913], 0.171713020223003,
         0.24452515338691083),
        (47, 29730, [2.5651171572383924, 0.221161679591535], 0.1676250098043168,
         0.0718727395526162),
    ], ids=["1-7178", "47-63210", "47-29730"])
    def test_certificate_holds_on_near_wall_draw(self, size, seed, start, lam, alpha):
        """Draws of the property above whose certificates failed while a
        row with a site and the wall in its band slid along that pair
        (smallest residuals -1.15e-3, -0.0175 and -0.0903).  Steering by
        the band-widened ball keeps every residual above -1e-14."""
        scene = adversarial_scene("near-wall", size, seed)
        traj, = mx.integrate_flows(scene, [start], horizon=1.0, lam=lam, alpha=alpha)
        assert np.all(np.diff(traj.R) >= 0.0)
        cert = mx.radius_certificate(traj, alpha, lam)
        assert cert.valid and cert.residuals.min() >= -1e-12

    @pytest.mark.xfail(strict=True, reason="known defect: the band-widened F_alpha "
                       "falls along flows on near-wall scenes (ROADMAP, hardening item)")
    def test_filter_value_never_drops_on_near_wall_draw(self):
        """At the first step F_alpha drops by 0.164: the wide witness set
        holds a site and the wall, while the exact witness is the wall
        alone.  The bound is criterion 04's."""
        scene = adversarial_scene("near-wall", 15, 12)
        traj, = mx.integrate_flows(scene, [[-0.22070603558518975, 1.5197787874615964]],
                                   alpha=0.2, horizon=2.0, lam=0.8)
        fa = traj.F_alpha[~np.isnan(traj.F_alpha)]
        assert np.diff(fa).min() >= -1e-7


def _pinned_draws():
    """Flows that meet the wall, 3- and 4-witness balls, rejected steps and
    stalls: (scene, starts, keyword arguments) per call."""
    tri = acute_triangle()
    top = mx.smallest_enclosing_ball(tri.sites).center
    wall = adversarial_scene("near-wall", 15, 12)
    lat = adversarial_scene("lattice", 2, 0)
    poly = adversarial_scene("polygon-center", 5, 3)
    dense = separated_scene(50, 1)
    return [
        (wall, np.vstack([domain_points(wall, 6, 12), bisector_points(wall, 4, 12),
                          [[-0.22070603558518975, 1.5197787874615964]]]),
         dict(alpha=0.2, horizon=2.0, lam=0.8)),
        (lat, np.vstack([domain_points(lat, 6, 1), bisector_points(lat, 6, 1)]),
         dict(alpha=0.1, horizon=1.5)),
        (poly, np.vstack([domain_points(poly, 4, 2), bisector_points(poly, 4, 2)]),
         dict(alpha=0.1, horizon=1.5, lam=0.6)),
        (tri, [top, top + [1e-4, 2e-4], [0.5, 0.2]], dict(alpha=0.2, horizon=0.05)),
        (dense, domain_points(dense, 20, 1), dict(alpha=0.3, horizon=1.0, lam=0.5)),
    ]


class TestBitIdentityPin:
    def test_trajectories_keep_their_bits(self):
        """The SHA-256 of every trajectory's arrays and stop data on draws
        that reach each path of the integrator, recorded before the flow
        reused its nodes' witness balls."""
        digest = hashlib.sha256()
        seen = collections.Counter()
        for scene, starts, kw in _pinned_draws():
            for tr in mx.integrate_flows(scene, starts, **kw):
                for name in ("times", "points", "R", "F", "witness_counts"):
                    digest.update(getattr(tr, name).tobytes())
                digest.update(("%s,%d;" % (tr.stop_reason, tr.rejected_steps)).encode())
                seen.update(tr.witness_counts.tolist())
                seen[tr.stop_reason] += 1
                seen["rejected"] += tr.rejected_steps
                # the wall is within the band, so it is a wide witness
                seen["wall"] += int((scene.bounding_radius - np.linalg.norm(tr.points, axis=1)
                                     <= tr.R + tr.max_step).sum())
        assert seen[3] and seen[4] and seen["stalled"] and seen["rejected"] and seen["wall"]
        assert digest.hexdigest() == (
            "bb9dc2e5502ee7c87cbec886c62876768e8b77501a31b2831a472116bcb2a83c")


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
                traj = mx.integrate_flows(scene, [x0], alpha=0.3, horizon=1.0)[0]
            except mx.DomainError:
                continue
            assert np.all(np.diff(traj.R) >= 0.0)
            done += 1

    def test_filter_value_never_drops_much(self):
        scene = mx.random_scene(10, bounding_radius=6.0, seed=19)
        traj = mx.integrate_flows(scene, [[0.4, -0.9]], alpha=0.3, horizon=2.0)[0]
        fa = traj.F_alpha[np.isfinite(traj.F_alpha)]
        if len(fa) > 1:
            assert np.diff(fa).min() >= -1e-7

    def test_entered_axis_stop(self):
        scene = two_site_scene()
        traj = mx.integrate_flows(scene, [[0.0, 1.5]], alpha=0.5,
                                  horizon=20.0, lam=0.75)[0]
        assert traj.stop_reason == "entered-axis"
        assert traj.F_alpha[-1] >= 0.75 - 1e-9
        # the bisector flow is vertical; entry happens at the hole boundary
        assert abs(traj.points[-1][0]) < 1e-9
        assert traj.points[-1][1] >= math.sqrt(3.0) - 1e-3

    def test_critical_point_is_a_fixed_point(self):
        scene = two_site_scene()
        start = np.array([0.0, 4.95])
        traj = mx.integrate_flows(scene, [start], alpha=0.5, horizon=0.5)[0]
        # no step increases R here, so the flow stalls where it started
        assert traj.stop_reason == "stalled"
        assert np.linalg.norm(traj.points[-1] - start) < 1e-9

    @pytest.mark.parametrize("offset", [[1e-7, 0.0], [0.0, -1e-7], [-1e-6, 0.0],
                                        [-6e-7, 5e-7]])
    def test_start_beside_a_maximum_stalls_at_once(self, offset):
        """Beside the circumcenter, a local maximum of R, every step that
        leaves R equal is rejected, so the flow stalls within a few dozen
        probes; were such steps accepted, three of these starts would crawl
        by steps of about 1e-10 toward the 100,000-node cap."""
        tri = acute_triangle()
        start = mx.smallest_enclosing_ball(tri.sites).center + offset
        traj = mx.integrate_flows(tri, [start], alpha=0.2, horizon=0.001)[0]
        assert traj.stop_reason == "stalled"
        assert len(traj) + traj.rejected_steps <= 40

    def test_time_exhausted_accumulates_horizon(self):
        scene = two_site_scene()
        traj = mx.integrate_flows(scene, [[2.0, 2.0]], alpha=0.3, horizon=0.25)[0]
        assert traj.stop_reason == "time-exhausted"
        assert abs(traj.times[-1] - 0.25) < 1e-9

    def test_speed_matches_gradient_norm(self):
        scene = two_site_scene()
        traj = mx.integrate_flows(scene, [[0.3, 0.4]], alpha=0.3, horizon=0.5)[0]
        ds = np.diff(traj.arc)
        dt = np.diff(traj.times)
        speed = ds[dt > 0] / dt[dt > 0]
        assert np.all(speed <= 1.0 + 1e-9)

    def test_off_axis_flow_is_radial_from_witness(self):
        scene = two_site_scene()
        traj = mx.integrate_flows(scene, [[0.5, 0.0]], alpha=None, horizon=0.3)[0]
        # single witness at (1,0): motion along -x at unit speed
        assert np.allclose(traj.points[:, 1], 0.0, atol=1e-12)
        assert abs(traj.R[-1] - (0.5 + traj.times[-1])) < 1e-6


class TestRadiusCertificate:
    def test_radial_two_site_residuals(self):
        scene = two_site_scene()
        alpha, lam = 0.5, 0.75
        traj = mx.integrate_flows(scene, [[0.0, 1.5]], alpha=alpha,
                                  horizon=20.0, lam=lam)[0]
        cert = mx.radius_certificate(traj, alpha=alpha, lam=lam)
        assert cert.valid
        assert cert.first_inside is not None
        # growth along the bisector is exact: (R-alpha)^2 - (s0+s)^2 - lam^2 >= 0
        assert cert.residuals[:cert.first_inside + 1].min() >= -1e-6 * 100.0

    def test_start_inside_offset_flagged(self):
        scene = two_site_scene()
        traj = mx.integrate_flows(scene, [[0.6, 0.0]], alpha=None, horizon=0.05)[0]
        cert = mx.radius_certificate(traj, alpha=0.5, lam=0.75)
        assert not cert.valid
        assert "start-inside-offset" in cert.flags

    def test_start_below_certificate_radius_flagged(self):
        scene = two_site_scene()
        # R: sqrt(1.36) = 1.166, so R - alpha = 0.666 < lam
        traj = mx.integrate_flows(scene, [[0.0, 0.6]], alpha=0.5, horizon=0.05)[0]
        cert = mx.radius_certificate(traj, alpha=0.5, lam=0.75)
        assert not cert.valid
        assert "start-below-certificate-radius" in cert.flags

    @pytest.mark.parametrize("alpha, lam, message", [
        (0.5, math.nan, "lam must be finite and positive"),
        (0.5, -0.75, "lam must be finite and positive"),
        (0.5, 0.0, "lam must be finite and positive"),
        (-0.5, 0.75, "alpha must be finite and nonnegative"),
        (math.inf, 0.75, "alpha must be finite and nonnegative"),
    ])
    def test_bad_parameters_rejected(self, alpha, lam, message):
        traj, = mx.integrate_flows(two_site_scene(), [[0.0, 1.5]], horizon=0.05)
        with pytest.raises(ValueError, match=message):
            mx.radius_certificate(traj, alpha, lam)

    def test_never_entering_is_flagged(self):
        scene = two_site_scene()
        traj = mx.integrate_flows(scene, [[0.0, 1.5]], alpha=0.5,
                                  horizon=0.01, lam=0.75)[0]
        cert = mx.radius_certificate(traj, alpha=0.5, lam=0.75)
        assert cert.first_inside is None
        assert "never-entered-axis" in cert.flags


def oracle_certificate(traj, alpha, lam):
    """The certificate of one trajectory on its own: (s0, residuals,
    first_inside, valid, flags)."""
    r0 = float(traj.R[0])
    if r0 <= alpha or r0 - alpha < lam:
        return (math.nan, np.full(len(traj.R), math.nan), None, False,
                ("start-inside-offset" if r0 <= alpha else "start-below-certificate-radius",))
    s0 = math.sqrt((r0 - alpha) ** 2 - lam * lam)
    residuals = (traj.R - alpha) ** 2 - (s0 + traj.arc) ** 2 - lam ** 2
    inside = [k for k in range(len(traj.R))
              if traj.R[k] > alpha and (traj.R[k] - alpha) / traj.R[k] * traj.F[k] >= lam]
    first_inside = inside[0] if inside else None
    checked = residuals[:len(traj.R) if first_inside is None else first_inside]
    valid = all(v >= -1e-6 * traj.scene.bounding_radius ** 2 for v in checked)
    return s0, residuals, first_inside, valid, () if inside else ("never-entered-axis",)


class TestBatchedCertificates:
    def certificate_draws(self):
        scene = two_site_scene()
        alpha, lam = 0.5, 0.75
        starts = [[0.0, 1.5], [0.0, 3.0], [0.6, 0.0], [0.0, 0.6], [2.0, 2.0]]
        trajs = mx.integrate_flows(scene, starts, alpha=alpha, horizon=0.5)
        trajs += mx.integrate_flows(scene, starts[:3], alpha=alpha, horizon=0.0)
        trajs += mx.integrate_flows(scene, [[0.0, 1.5]], alpha=alpha, horizon=0.01)
        dense = separated_scene(50, 1)
        trajs += mx.integrate_flows(dense, domain_points(dense, 12, 3), alpha=alpha,
                                    horizon=1.0, lam=lam)
        # R that does not grow: node 1 fails the certificate unless it is
        # inside (F_alpha 1.125 >= lam), and so exempt
        for F in ([0.0, 1.5, 0.0], [0.0, 0.0, 1.5]):
            trajs.append(dataclasses.replace(
                trajs[0], times=np.array([0.0, 0.5, 1.0]), arc=np.array([0.0, 0.5, 1.0]),
                R=np.full(3, 2.0), F=np.array(F)))
        return trajs, alpha, lam

    def test_core_matches_each_trajectory_alone(self):
        trajs, alpha, lam = self.certificate_draws()
        # the core takes the trajectories of one scene at a time
        groups = {}
        for tr in trajs:
            groups.setdefault(id(tr.scene), []).append(tr)
        assert len(groups) == 2
        trajs = [tr for group in groups.values() for tr in group]
        batch = [cert for group in groups.values()
                 for cert in flow_mod._certificates(group, alpha, lam)]
        seen = collections.Counter()
        for tr, got in zip(trajs, batch):
            for cert in (got, mx.radius_certificate(tr, alpha, lam)):
                s0, residuals, first_inside, valid, flags = oracle_certificate(tr, alpha, lam)
                assert cert.alpha == alpha and cert.lam == lam
                assert np.array_equal(cert.s0, s0, equal_nan=True)
                assert cert.residuals.tobytes() == residuals.tobytes()
                assert (cert.first_inside, cert.valid, cert.flags) == (first_inside, valid, flags)
            seen.update(got.flags)
            seen["one-node"] += len(tr) == 1
            seen["inside-at-start"] += got.first_inside == 0
            seen["inside-later"] += bool(got.first_inside)
            seen["invalid"] += "start-" not in str(got.flags) and not got.valid
        assert all(seen[k] for k in ("one-node", "inside-at-start", "inside-later", "invalid",
                                     "start-inside-offset", "start-below-certificate-radius",
                                     "never-entered-axis"))


def per_trajectory_svg(scene, trajs):
    """scene_svg of the trajectories with each polyline and each start
    circle formatted on its own, after the polyline."""
    scale = (svgout._SIZE / 2 - svgout._MARGIN) / scene.bounding_radius
    layer = []
    for traj in trajs:
        layer.append('<polyline points="%s" stroke="#ee8833" fill="none" stroke-width="1.5"/>'
                     % svgout._elements("%.3f,%.3f", svgout._canvas(scale, traj.points), " "))
        layer.append(svgout._circles(scale, traj.points[:1], 2.5, "#ee8833", fill="#ee8833"))
    lines = mx.scene_svg(scene).split("\n")
    sites = next(k for k, line in enumerate(lines) if 'fill="#cc2222"' in line)
    return "\n".join(lines[:sites] + layer + lines[sites:])


class TestTrajectorySvg:
    @pytest.mark.parametrize("case", ["empty", "one-node", "flow-field"])
    def test_equals_per_trajectory_form(self, case):
        scene = separated_scene(50, 1)
        if case == "empty":
            trajs = []
        elif case == "one-node":
            trajs = mx.integrate_flows(scene, domain_points(scene, 1, 2), horizon=0.0)
        else:
            trajs = mx.integrate_flows(scene, domain_points(scene, 30, 2), alpha=0.3,
                                       horizon=1.0, lam=0.5)
        assert mx.scene_svg(scene, trajectories=trajs) == per_trajectory_svg(scene, trajs)


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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -0.5])
    def test_bad_alpha_rejected(self, alpha):
        base = np.array([[0.0, 1.9], [0.0, 2.1]])
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            mx.push_path(two_site_scene(), base, T=0.2, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            mx.flow_expansion_check(two_site_scene(), np.array([0.1, 2.0]),
                                    np.array([-0.1, 2.05]), alpha=alpha, T=0.4)


class TestExpansionCheck:
    def test_nearby_points_spread_within_bound(self):
        scene = two_site_scene()
        rep = mx.flow_expansion_check(scene, np.array([0.1, 2.0]),
                                      np.array([-0.1, 2.05]), alpha=0.5, T=0.4)
        assert rep.ok
        assert rep.dT <= rep.bound + 1e-9
        assert rep.bound == pytest.approx(rep.d0 * math.exp(0.4 / 0.5), rel=1e-12)
