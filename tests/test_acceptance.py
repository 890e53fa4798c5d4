"""End-to-end acceptance checks, one per shipped guarantee.

Each test here exercises the package the way the reports do and checks a
quantitative promise at its stated tolerance: closed-form geometry for the
two-site scene, the pointwise field identity, oracle agreement between the
two membership routes, monotonicity certificates along the flow, entry-time
and Lipschitz bounds with measured constants, square-root and fourth-root
perturbation scaling, geodesic diameter and pushed-path bounds, the square
wire critical-function plateau, and byte-level determinism of the reports.

Every bound check is one-sided: measured quantity against its certified
ceiling, never tuned to the data.  Runtime ceilings are asserted where the
guarantee includes one.
"""

import filecmp
import math
import time

import numpy as np
import pytest

import medaxis as mx
from medaxis.axis import (build_skeleton, filter_axis, axis_membership,
                          exact_critical_function, scene_r_max)
from medaxis.field import (eval_field, eval_field_batch, reach_summary,
                           OffsetDomainError)
from medaxis.flow import integrate_flows, radius_certificate, push_path
from medaxis.metrics import (hausdorff_distance, build_geodesic_graph,
                             geodesic_diameter, stability_constants)
from medaxis.experiments import (ExperimentConfig, run_critfn, run_perturb,
                                 run_gh, run_sweep_lambda, run_sweep_alpha)


def two_site_scene() -> mx.SiteScene:
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                        bounding_radius=10.0)


def report_line(name: str, detail: str) -> None:
    print("ACCEPTANCE %s: %s" % (name, detail))


def test_criterion_01_two_site_closed_forms():
    """Hole half-width, wall clip, and the Hausdorff gap between filtrations
    match their closed forms on the canonical two-site scene, in under 1 s."""
    t0 = time.perf_counter()
    scene = two_site_scene()
    skeleton = build_skeleton(scene)

    axis = filter_axis(skeleton, lam=0.75, alpha=0.5)
    # kept spans are |y| in [sqrt(3), 99/20]
    ys = np.abs(axis.vertices[axis.segments.ravel()][:, 1])
    lo, hi = float(ys.min()), float(ys.max())
    assert abs(lo - math.sqrt(3.0)) < 1e-6
    assert abs(hi - 99.0 / 20.0) < 1e-6

    res = scene.bounding_radius / 1000.0
    axis_070 = filter_axis(skeleton, lam=0.70, alpha=0.5)
    gap = hausdorff_distance(axis_070, axis, res)
    expected = math.sqrt(3.0) - 4.0 / 3.0
    assert abs(gap - expected) <= res
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report_line("two-site closed forms",
                "hole %.8f clip %.8f d_H %.6f (expect %.6f) in %.2fs"
                % (lo, hi, gap, expected, elapsed))


def test_criterion_02_field_identity():
    """|grad|^2 = 1 - (F/R)^2 within 1e-9 on 10^4 points over 20 scenes,
    in under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    total = 0
    for _ in range(20):
        n = int(rng.integers(5, 31))
        scene = mx.random_scene(n, bounding_radius=float(rng.uniform(3, 12)),
                                seed=int(rng.integers(1_000_000)))
        pts = []
        while len(pts) < 500:
            p = rng.uniform(-scene.bounding_radius, scene.bounding_radius,
                            size=2)
            if (np.linalg.norm(p) < 0.999 * scene.bounding_radius
                    and min(np.linalg.norm(p - s) for s in scene.sites)
                    > 1e-9):
                pts.append(p)
        out = eval_field_batch(scene, np.array(pts))
        resid = np.abs(np.sum(out["grad"] ** 2, axis=1)
                       - (1.0 - (out["F"] / out["R"]) ** 2))
        worst = max(worst, float(resid.max()))
        total += len(pts)
    elapsed = time.perf_counter() - t0
    assert total == 10_000
    assert worst < 1e-9
    assert elapsed < 5.0
    report_line("field identity",
                "%d points, worst residual %.2e in %.2fs"
                % (total, worst, elapsed))


def test_criterion_03_membership_oracle_agreement():
    """The field-based membership test agrees with interval membership in
    the filtered axis on 10^4 points per scene, outside a 1e-6 band around
    interval endpoints."""
    rng = np.random.default_rng(77)
    scenes = [
        (two_site_scene(), 0.75, 0.5),
        (mx.random_scene(10, bounding_radius=6.0, min_separation=1.2,
                         seed=42), 0.25, 0.2),
        (mx.random_scene(14, bounding_radius=8.0, min_separation=1.0,
                         seed=4), 0.3, 0.2),
    ]
    band = 1e-6
    for scene, lam, alpha in scenes:
        skeleton = build_skeleton(scene)
        axis = filter_axis(skeleton, lam, alpha)
        intervals = {}
        for ei, (mid, u, (s0, s1)) in enumerate(zip(skeleton.mid, skeleton.u,
                                                    skeleton.s.tolist())):
            perp = np.array([-u[1], u[0]])
            kept = []
            for seg in axis.segments:
                ends = axis.vertices[list(seg)]
                offs = ends - mid
                if np.abs(offs @ perp).max() > 1e-9:
                    continue
                s_vals = np.sort(offs @ u)
                if (s_vals[0] >= s0 - 1e-9
                        and s_vals[1] <= s1 + 1e-9):
                    kept.append((float(s_vals[0]), float(s_vals[1])))
            intervals[ei] = kept

        disagreements = 0
        checked = 0
        # ambient points: never members of a measure-zero set
        while checked < 6000:
            p = rng.uniform(-scene.bounding_radius, scene.bounding_radius,
                            size=2)
            if np.linalg.norm(p) >= 0.999 * scene.bounding_radius:
                continue
            if min(np.linalg.norm(p - s) for s in scene.sites) < 1e-6:
                continue
            checked += 1
            if axis_membership(scene, p, lam, alpha):
                disagreements += 1
        # on-edge points: field oracle against the kept intervals
        n_edge = 0
        while n_edge < 4000:
            ei = int(rng.integers(len(skeleton.edges)))
            s0, s1 = skeleton.s[ei].tolist()
            s = float(rng.uniform(s0, s1))
            spans = intervals[ei]
            near_boundary = (any(abs(s - b) < band
                                 for lo_hi in spans for b in lo_hi)
                             or abs(s - s0) < band
                             or abs(s - s1) < band)
            if near_boundary:
                continue
            inside = any(lo <= s <= hi for lo, hi in spans)
            p = skeleton.mid[ei] + s * skeleton.u[ei]
            n_edge += 1
            if axis_membership(scene, p, lam, alpha) != inside:
                disagreements += 1
        assert checked + n_edge == 10_000
        assert disagreements == 0
    report_line("membership oracle agreement",
                "3 scenes x 10000 points, 0 disagreements")


def test_criterion_04_flow_monotonicity():
    """Along 200 trajectories the node radii never decrease, the filtered
    width never drops by more than 1e-7, and every applicable radius
    certificate holds at tolerance 1e-6 R_bound^2."""
    rng = np.random.default_rng(2024)
    alpha = 0.2
    worst_dr = 0.0
    worst_dfa = 0.0
    n_traj = 0
    n_cert = 0
    worst_resid = 0.0
    for _ in range(10):
        scene = mx.random_scene(int(rng.integers(5, 14)), bounding_radius=6.0,
                                min_separation=0.8,
                                seed=int(rng.integers(1_000_000)))
        skeleton = build_skeleton(scene)
        starts = []
        for _ in range(10):
            while True:
                p = rng.uniform(-5.0, 5.0, size=2)
                if (np.linalg.norm(p) < 5.0
                        and min(np.linalg.norm(p - s)
                                for s in scene.sites) > 1e-3):
                    starts.append(p)
                    break
        for _ in range(10):
            ei = int(rng.integers(len(skeleton.edges)))
            s0, s1 = skeleton.s[ei].tolist()
            s = rng.uniform(s0 + 0.1 * (s1 - s0), s0 + 0.9 * (s1 - s0))
            starts.append(skeleton.mid[ei] + s * skeleton.u[ei])
        # one batch per scene; a row does not depend on its batch
        for traj in integrate_flows(scene, starts, alpha=alpha, horizon=2.0):
            n_traj += 1
            if len(traj) > 1:
                worst_dr = min(worst_dr, float(np.diff(traj.R).min()))
            fa = traj.F_alpha
            ok = ~np.isnan(fa)
            if ok.sum() > 1:
                worst_dfa = min(worst_dfa, float(np.diff(fa[ok]).min()))
            cert = radius_certificate(traj, alpha=alpha, lam=0.45)
            if set(cert.flags) <= {"never-entered-axis"}:
                n_cert += 1
                assert cert.valid
                n_chk = (cert.first_inside if cert.first_inside is not None
                         else len(traj.R))
                if n_chk:
                    worst_resid = min(
                        worst_resid, float(cert.residuals[:n_chk].min()))
    assert n_traj == 200
    assert worst_dr >= 0.0
    assert worst_dfa >= -1e-7
    assert worst_resid >= -1e-6 * 6.0 ** 2
    report_line("flow monotonicity",
                "200 trajectories, min dR %.1e, min dF_alpha %.1e, "
                "%d certificates, min residual %.1e"
                % (worst_dr, worst_dfa, n_cert, worst_resid))


def test_criterion_05_entry_time_bound():
    """Starts within 1e-3 of the two-site axis enter the slack filtration
    within the certified time budget computed from the exact critical
    profile."""
    scene = two_site_scene()
    lam, alpha, delta, eps = 0.5, 0.25, 0.2, 1e-3
    profile = exact_critical_function(scene, np.linspace(0.3, 5.0, 60))
    summary = reach_summary(profile, mu=0.5, alpha=alpha, lam=lam)
    assert math.isfinite(summary.mu_tilde)
    assert summary.r_mu_alpha > alpha + lam
    bound = (8.0 * summary.r_max ** 2 * eps
             / ((2.0 * lam - delta) * delta * summary.mu_tilde))

    rng = np.random.default_rng(321)
    starts = []
    for _ in range(100):
        y = rng.uniform(-4.9, 4.9)
        th = rng.uniform(0.0, 2.0 * np.pi)
        starts.append([eps * np.cos(th), y + eps * np.sin(th)])
    worst = 0.0
    for traj in integrate_flows(scene, starts, alpha=alpha, horizon=float(bound),
                                lam=lam - delta, max_step=1e-4):
        assert traj.stop_reason == "entered-axis"
        worst = max(worst, float(traj.times[-1]))
    assert worst <= bound
    report_line("entry-time bound",
                "100 entries, worst %.5f against budget %.4f "
                "(mu_tilde %.3f, r_max %.3f)"
                % (worst, bound, summary.mu_tilde, summary.r_max))


def _sweep_scene(seed: int, h_ab: float, c_off: float) -> mx.SiteScene:
    """Ten sites: a close pair, a spoiler near their midpoint so the pair's
    balance point is owned by the spoiler, and a tight far cluster whose
    internal features sit below the offset radius."""
    rng = np.random.default_rng([seed, 77])
    ang = rng.uniform(0, 2 * np.pi)
    center = 5.6 * np.array([np.cos(ang), np.sin(ang)])
    sats = []
    while len(sats) < 7:
        p = center + rng.uniform(-0.5, 0.5, size=2)
        if all(np.linalg.norm(p - q) > 0.12 for q in sats):
            sats.append(p)
    sites = np.vstack([[-h_ab, 0.0], [h_ab, 0.0], [0.0, c_off]] + sats)
    return mx.SiteScene(sites=sites, bounding_radius=10.0)


def test_criterion_06_lipschitz_sweeps():
    """Filtration sweeps in lambda and alpha on five ten-site scenes stay
    within the certified Lipschitz rate at every consecutive grid pair,
    with the rate hypotheses actually verified, in under 60 s."""
    t0 = time.perf_counter()
    cores = [(1.0, 0.35), (0.9, 0.30), (1.1, 0.40), (0.95, 0.32),
             (1.05, 0.38)]
    n_enforced = 0
    n_responsive = 0
    for seed, (h_ab, c_off) in enumerate(cores):
        scene = _sweep_scene(seed, h_ab, c_off)
        cfg_l = ExperimentConfig(scene=scene, lambda_grid=(0.60, 0.65, 0.70),
                                 alpha_grid=(0.6,), t_count=40,
                                 samples_per_level=800, seed=seed,
                                 gh_variant=False)
        rep_l = run_sweep_lambda(cfg_l)
        assert rep_l.passed
        cfg_a = ExperimentConfig(scene=scene, lambda_grid=(0.65,),
                                 alpha_grid=(0.55, 0.60, 0.65), t_count=40,
                                 samples_per_level=800, seed=seed,
                                 gh_variant=False)
        rep_a = run_sweep_alpha(cfg_a)
        assert rep_a.passed
        for rep in (rep_l, rep_a):
            lip = [a for a in rep.assertions
                   if a["name"].startswith("lipschitz")]
            assert len(lip) == 2
            assert all(a["enforced"] and a["passed"] for a in lip)
            n_enforced += len(lip)
            n_responsive += sum(1 for r in rep.rows if r["d_H"] > 0.0)
    elapsed = time.perf_counter() - t0
    assert n_enforced == 20
    assert n_responsive >= 5  # the sweeps genuinely move the axis
    assert elapsed < 60.0
    report_line("lipschitz sweeps",
                "5 scenes x 2 sweeps, 20 enforced rate checks, "
                "%d responsive steps, %.1fs" % (n_responsive, elapsed))


def test_criterion_07_hausdorff_root_scaling():
    """Site jitter moves the axis by at most C sqrt(eps) across four decades
    of eps on the two-site scene and a ten-site scene, with fitted
    log-log slope at least 0.4."""
    scenes = [
        (two_site_scene(), 0.5, 0.25),
        (mx.random_scene(10, bounding_radius=6.0, min_separation=1.2,
                         seed=42), 0.25, 0.2),
    ]
    for scene, lam, alpha in scenes:
        cfg = ExperimentConfig(scene=scene,
                               epsilons=tuple(np.logspace(-5, -1, 9)),
                               lambda_grid=(lam,), alpha_grid=(alpha,),
                               t_count=40, samples_per_level=800, seed=7)
        rep = run_perturb(cfg)
        assert rep.passed
        rows = [r for r in rep.rows if "d_H" in r]
        assert len(rows) == 9
        for r in rows:
            assert r["d_H"] <= r["bound"]
        assert rep.slope >= 0.4
        report_line("hausdorff root scaling",
                    "%d sites: slope %.3f, all d_H within C sqrt(eps)"
                    % (len(scene.sites), rep.slope))


def test_criterion_08_gromov_hausdorff_report():
    """Jittered copies of a connected axis admit a surjective relation at
    radius C sqrt(eps); distortion stays within the certified sum whose
    three terms the report carries separately."""
    scene = two_site_scene()
    cfg = ExperimentConfig(scene=scene, epsilons=(1e-5, 1e-4, 1e-3),
                           lambda_grid=(0.5,), alpha_grid=(0.25,),
                           t_count=40, samples_per_level=800, seed=9,
                           sample_pairs=48)
    rep = run_gh(cfg)
    assert rep.passed
    rows = [r for r in rep.rows if "gh_distortion" in r]
    assert len(rows) == 3
    n_hyp = 0
    for r in rows:
        surj = [a for a in rep.assertions
                if a["name"] == "gh-surjective-%d" % rows.index(r)]
        cons = r["constants"]
        for key in ("gh_term_flow", "gh_term_near", "gh_term_diam"):
            assert key in cons
        assert math.isfinite(r["gh_distortion"])
        assert r["gh_distortion"] <= cons["gh_bound"]
        if not r["flags"]:
            n_hyp += 1
    surj_checks = [a for a in rep.assertions
                   if a["name"].startswith("gh-surjective")]
    assert len(surj_checks) == 3
    assert all(a["passed"] and a["enforced"] for a in surj_checks)
    report_line("gromov-hausdorff report",
                "3 epsilons surjective, distortions within bounds, "
                "%d inside the small-epsilon hypothesis" % n_hyp)


def test_criterion_09_geodesic_diameter_and_pushes():
    """Measured geodesic diameters of connected filtered axes stay under the
    certified ceiling, and 100 pushed paths obey the length bound."""
    scenes = [
        (two_site_scene(), 0.5, 0.25),
        (mx.random_scene(8, bounding_radius=6.0, min_separation=1.2,
                         seed=5), 0.25, 0.2),
        (mx.random_scene(12, bounding_radius=6.0, min_separation=1.0,
                         seed=13), 0.2, 0.15),
    ]
    for scene, lam, alpha in scenes:
        skeleton = build_skeleton(scene)
        axis = filter_axis(skeleton, lam, alpha)
        graph = build_geodesic_graph(axis)
        gd = geodesic_diameter(graph)
        assert math.isfinite(gd)  # connected by construction of the scenes
        top = 0.99 * scene_r_max(scene, skeleton)
        profile = exact_critical_function(scene, np.linspace(0.3, top, 40), skeleton)
        summary = reach_summary(profile, mu=0.4, alpha=alpha, lam=lam)
        summary_half = reach_summary(profile, mu=0.4, alpha=alpha, lam=lam,
                                     window_alpha=alpha / 2.0)
        cons = stability_constants(summary, delta=lam / 2.0, epsilon=1e-4,
                                   gdiam_a=gd, gdiam_b=gd,
                                   r_bound=scene.bounding_radius,
                                   mu_tilde_half=summary_half.mu_tilde)
        assert gd <= cons.gdiam_bound
        report_line("geodesic diameter",
                    "%d sites: gdiam %.3f under ceiling %.2e"
                    % (len(scene.sites), gd, cons.gdiam_bound))

    rng = np.random.default_rng(88)
    other = scenes[1][0]
    worst_excess = -math.inf
    for k in range(100):
        scene = scenes[0][0] if k % 2 == 0 else other
        rb = scene.bounding_radius
        while True:
            c = rng.uniform(-0.55 * rb, 0.55 * rb, size=2)
            pts = c + rng.uniform(-0.4, 0.4, size=(3, 2))
            if (all(np.linalg.norm(p) < 0.9 * rb for p in pts)
                    and all(min(np.linalg.norm(p - s) for s in scene.sites)
                            > 0.05 for p in pts)):
                break
        T = float(rng.uniform(0.05, 0.4))
        pushed = push_path(scene, pts, T=T, alpha=0.3, subdiv=32)
        assert pushed.L_pushed <= pushed.bound + 1e-6
        worst_excess = max(worst_excess, pushed.L_pushed - pushed.bound)
    report_line("pushed paths",
                "100 pushes within 2T + L exp(T/alpha), worst slack %.3f"
                % (-worst_excess))


def test_criterion_10_square_plateau():
    """A sampled square wire reproduces the 1/sqrt(2) plateau of its level
    width profile within [-0.05, +0.02] and crosses zero at half the side
    within 5 percent, in under 120 s."""
    t0 = time.perf_counter()
    side = 2.0
    u = np.linspace(-1.0, 1.0, 400, endpoint=False)
    ring = np.concatenate([
        np.stack([u, np.full_like(u, -1.0)], axis=1),
        np.stack([np.full_like(u, 1.0), u], axis=1),
        np.stack([-u, np.full_like(u, 1.0)], axis=1),
        np.stack([np.full_like(u, -1.0), -u], axis=1),
    ])
    sites = np.concatenate([ring, np.zeros((len(ring), 1))], axis=1)
    scene = mx.SiteScene(sites=sites, bounding_radius=4.0)
    cfg = ExperimentConfig(scene=scene,
                           t_grid=tuple(np.linspace(0.15, 1.2, 22)),
                           samples_per_level=1500, band_width=4e-4,
                           seed=2, expect_square_side=side)
    rep = run_critfn(cfg)
    assert rep.passed
    byname = {a["name"]: a for a in rep.assertions}
    for name in ("plateau-median-near-invsqrt2", "chi-small-at-t-crit",
                 "crossing-near-t-crit"):
        assert byname[name]["enforced"] and byname[name]["passed"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report_line("square plateau",
                "plateau median %.4f (target %.4f), crossing %.3f "
                "(target %.3f), %.1fs"
                % (rep.constants["plateau_median"], 1.0 / math.sqrt(2.0),
                   rep.constants["crossing"], side / 2.0, elapsed))


def test_criterion_11_deterministic_reports(tmp_path):
    """Identical config and seed produce byte-identical JSON and CSV."""
    scene = two_site_scene()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg1 = ExperimentConfig(scene=scene,
                                t_grid=tuple(np.linspace(0.3, 5.0, 12)),
                                samples_per_level=300, seed=5,
                                out_dir=str(out))
        run_critfn(cfg1)
        cfg2 = ExperimentConfig(scene=scene, lambda_grid=(0.70, 0.75),
                                alpha_grid=(0.5,), t_count=12,
                                samples_per_level=300, seed=5,
                                gh_variant=False, out_dir=str(out))
        run_sweep_lambda(cfg2)
        cfg3 = ExperimentConfig(scene=scene, epsilons=(1e-4, 1e-3),
                                lambda_grid=(0.5,), alpha_grid=(0.25,),
                                t_count=12, samples_per_level=300, seed=5,
                                out_dir=str(out))
        run_perturb(cfg3)
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == sorted(p.name for p in outputs[1].iterdir())
    assert len(names) >= 3
    for name in names:
        assert filecmp.cmp(outputs[0] / name, outputs[1] / name,
                           shallow=False), name
    report_line("deterministic reports",
                "%d report files byte-identical across reruns" % len(names))
