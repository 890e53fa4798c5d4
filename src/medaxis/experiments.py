"""Reproducible stability experiments on filtered medial axes.

Each experiment takes an ExperimentConfig (usually parsed from a JSON file),
measures a stability quantity across a parameter grid, compares it against
the corresponding closed-form bound, and returns a StabilityReport.  Bounds
are asserted only where their hypothesis flags pass; skipped assertions are
recorded, never silent.  Reports are deterministic functions of
(config, seed) and serialize to byte-identical JSON across reruns.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .scene import InvalidSceneError, SiteScene, load_scene, scene_from_json
from .field import (
    CriticalProfile,
    _check_count,
    _check_real,
    _check_sampling,
    estimate_critical_function,
    profile_to_csv,
    reach_summary,
)
from .axis import (
    FilteredAxis,
    VoronoiSkeleton,
    axis_to_json,
    build_skeleton,
    exact_critical_function,
    filter_axis,
    scene_r_max,
)
from .flow import integrate_flows, radius_certificate
from .metrics import (
    SurjectivityError,
    build_geodesic_graph,
    directed_hausdorff,
    geodesic_diameter,
    gh_distortion,
    hausdorff_distance,
    stability_constants,
)
from .svgout import profile_svg, scene_svg

__all__ = [
    "ExperimentConfig",
    "StabilityReport",
    "load_config",
    "config_from_dict",
    "run_axis",
    "run_critfn",
    "run_flow",
    "run_sweep_lambda",
    "run_sweep_alpha",
    "run_perturb",
    "run_gh",
]


@dataclass
class ExperimentConfig:
    scene: SiteScene
    lambda_grid: tuple = ()
    alpha_grid: tuple = ()
    epsilons: tuple = ()
    seed: int = 0
    resolution: float | None = None
    out_dir: str | None = None
    mu: float | str = "auto"
    t_grid: tuple | None = None
    t_count: int = 80
    samples_per_level: int = 4000
    band_width: float | None = None
    starts: tuple = ()
    horizon: float = 5.0
    sample_pairs: int = 2000
    gh_variant: bool = True
    expect_square_side: float | None = None

    def __post_init__(self):
        for name in ("lambda_grid", "alpha_grid", "epsilons", "t_grid"):
            vals = getattr(self, name) or ()
            # NaN compares false both ways, so a sortedness test passes it
            if any(v != v for v in vals) or any(not a < b for a, b in zip(vals, vals[1:])):
                raise InvalidSceneError("%s must be strictly increasing, without NaN" % name)
        _check_sampling(self.samples_per_level, self.band_width)
        _check_count("sample_pairs", self.sample_pairs)
        _check_count("t_count", self.t_count)
        _check_count("seed", self.seed, least=0)
        _check_real("horizon", self.horizon, positive=False)
        if not isinstance(self.gh_variant, bool):
            raise InvalidSceneError("gh_variant must be true or false")
        if self.resolution is None:
            self.resolution = self.scene.bounding_radius / 1000.0
        _check_real("resolution", self.resolution)
        for eps in self.epsilons or ():
            _check_real("epsilons", eps)
        if self.expect_square_side is not None:
            _check_real("expect_square_side", self.expect_square_side)


def config_from_dict(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    raw = dict(raw)
    scene_spec = raw.pop("scene")
    if isinstance(scene_spec, str):
        path = scene_spec if os.path.isabs(scene_spec) else os.path.join(base_dir, scene_spec)
        scene = load_scene(path)
    else:
        scene = scene_from_json(json.dumps(scene_spec))
    kwargs = {"scene": scene}
    for key in ("lambda_grid", "alpha_grid", "epsilons", "starts", "t_grid"):
        if key in raw:
            val = raw.pop(key)
            kwargs[key] = tuple(tuple(v) if isinstance(v, list) else v for v in val)
    for f in dataclasses.fields(ExperimentConfig):  # the scalar keys left
        if f.name in raw:
            kwargs[f.name] = raw.pop(f.name)
    if raw:
        raise InvalidSceneError("unknown config keys: %s" % sorted(raw))
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# --- reports ---------------------------------------------------------------

def _plain(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


@dataclass
class StabilityReport:
    kind: str
    seed: int
    resolution: float
    rows: list = field(default_factory=list)
    assertions: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    slope: float = float("nan")
    slope_residual: float = float("nan")
    n_samples: int = 0

    def add_assertion(self, name: str, passed: bool, enforced: bool) -> None:
        self.assertions.append({"name": name, "passed": bool(passed),
                                "enforced": bool(enforced)})

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions if a["enforced"])

    @property
    def skipped_count(self) -> int:
        return sum(1 for a in self.assertions if not a["enforced"])

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "seed": self.seed,
            "resolution": self.resolution,
            "rows": self.rows,
            "assertions": self.assertions,
            "constants": self.constants,
            "flags": self.flags,
            "slope": self.slope,
            "slope_residual": self.slope_residual,
            "n_samples": self.n_samples,
            "passed": self.passed,
            "skipped_assertions": self.skipped_count,
        }
        return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def _write(out_dir: str | None, name: str, text: str, paths: list) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    paths.append(path)


def _slope_fit(eps, vals):
    pts = [(e, v) for e, v in zip(eps, vals) if v > 0.0 and math.isfinite(v)]
    if len(pts) < 2:
        return float("nan"), float("nan"), len(pts)
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    rms = math.sqrt(float(res[0]) / len(pts)) if len(res) else 0.0
    return float(coef[0]), rms, len(pts)


# --- shared measurement helpers --------------------------------------------

def _levels(config: ExperimentConfig, r_max: float | None) -> np.ndarray:
    """The config's t_grid, or t_count levels spread below r_max."""
    if config.t_grid is not None:
        return np.asarray(config.t_grid, float)
    if r_max is None:
        raise InvalidSceneError("t_grid required for non-planar scenes")
    return np.linspace(0.02 * r_max, 0.99 * r_max, config.t_count)


def _profile_for(scene: SiteScene, config: ExperimentConfig,
                 skeleton: VoronoiSkeleton | None = None) -> CriticalProfile:
    """Critical profile for a scene: in closed form from the scene's
    skeleton (the caller's, when it holds one) for d = 2, sampled for
    d >= 3."""
    if scene.dim == 2:
        if skeleton is None:
            skeleton = build_skeleton(scene)
        return exact_critical_function(
            scene, _levels(config, scene_r_max(scene, skeleton)), skeleton)
    return estimate_critical_function(
        scene, _levels(config, None), samples_per_level=config.samples_per_level,
        band_width=config.band_width, seed=config.seed)


def _resolve_mu(config: ExperimentConfig, profile: CriticalProfile,
                alpha: float, lam: float) -> tuple:
    """Config mu, or 0.95 of the smallest chi value just past the filter.

    The window stops a bit beyond alpha + lam: the stability bounds only
    need the reach to clear that radius, and scenes generically have
    critical values further out that would drive a global minimum to zero.
    """
    if config.mu != "auto":
        return float(config.mu), []
    top = min(1.25 * (alpha + lam), 0.9 * profile.r_max)
    window = (profile.t_grid > alpha) & (profile.t_grid <= top)
    if not window.any():
        return 0.5, ["mu-auto-empty-window"]
    mu = 0.95 * float(profile.chi[window].min())
    flags = []
    if mu <= 0.0:
        mu = 1e-6
        flags.append("mu-auto-chi-zero")
    return min(mu, 1.0), flags


def _connected(axis: FilteredAxis) -> bool:
    if axis.is_empty:
        return False
    return len(set(int(c) for c in axis.component_ids)) == 1


def _jitter(scene: SiteScene, eps: float, rng) -> SiteScene:
    dirs = rng.normal(size=scene.sites.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = eps * rng.uniform(size=(len(scene.sites), 1)) ** (1.0 / scene.dim)
    return SiteScene(sites=scene.sites + dirs * radii,
                     bounding_radius=scene.bounding_radius,
                     tie_tolerance=scene.tie_tolerance)


def _merge_summaries(a, b):
    """Two-scene summary: largest r_max, smallest mu_tilde and reach."""
    return dataclasses.replace(
        a,
        r_max=max(a.r_max, b.r_max),
        r_mu_alpha=min(a.r_mu_alpha, b.r_mu_alpha),
        mu_tilde=min(a.mu_tilde, b.mu_tilde),
        flags=tuple(sorted(set(a.flags) | set(b.flags))))


# --- experiments ------------------------------------------------------------

def _grid_points(config: ExperimentConfig) -> list:
    return [(float(l), float(a)) for l in config.lambda_grid
            for a in config.alpha_grid]


def run_axis(config: ExperimentConfig) -> StabilityReport:
    """Build and write the filtered axis at every (lambda, alpha) grid point."""
    points = _grid_points(config)
    if not points:
        raise InvalidSceneError("axis experiment needs a (lambda, alpha) grid")
    report = StabilityReport(kind="axis", seed=config.seed,
                             resolution=config.resolution)
    skeleton = build_skeleton(config.scene)
    paths = []
    for lam, alpha in points:
        axis = filter_axis(skeleton, lam, alpha)
        n_comp = len(set(int(c) for c in axis.component_ids))
        row = {
            "lambda": lam,
            "alpha": alpha,
            "n_segments": int(len(axis.segments)),
            "n_isolated": int(len(axis.isolated)),
            "n_components": n_comp,
            "total_length": axis.total_length(),
            "empty": axis.is_empty,
            "flags": list(axis.flags),
        }
        report.rows.append(row)
        stem = "axis_lam%g_alp%g" % (lam, alpha)
        _write(config.out_dir, stem + ".json", axis_to_json(axis) + "\n", paths)
        _write(config.out_dir, stem + ".svg",
               scene_svg(config.scene, axis=axis, skeleton=skeleton), paths)
    report.constants["files"] = [os.path.basename(p) for p in paths]
    _write(config.out_dir, "axis_report.json", report.to_json(), paths)
    return report


def run_critfn(config: ExperimentConfig) -> StabilityReport:
    """Estimate the critical function; optionally check the square-scene
    signature (median plateau at 1/sqrt(2), zero crossing at half the side)."""
    report = StabilityReport(kind="critfn", seed=config.seed,
                             resolution=config.resolution)
    profile = _profile_for(config.scene, config)
    report.rows = [{"t": float(t), "chi": float(c)}
                   for t, c in zip(profile.t_grid, profile.chi)]
    report.flags.extend(profile.flags)
    report.n_samples = int(np.sum(profile.sample_count))

    marks = {}
    if config.alpha_grid and config.lambda_grid:
        alpha = float(config.alpha_grid[0])
        lam = float(config.lambda_grid[0])
        mu, mu_flags = _resolve_mu(config, profile, alpha, lam)
        report.flags.extend(mu_flags)
        summary = reach_summary(profile, mu, alpha, lam)
        report.constants = {
            "mu": summary.mu, "alpha": alpha, "lambda": lam,
            "r_mu_alpha": summary.r_mu_alpha, "wfs": summary.wfs,
            "r_max": summary.r_max, "mu_tilde": summary.mu_tilde,
            "summary_flags": list(summary.flags),
        }
        marks["wfs"] = summary.wfs
        marks["r_mu"] = summary.r_mu_alpha

    if config.expect_square_side is not None:
        side = float(config.expect_square_side)
        t_crit = side / 2.0
        window = (profile.t_grid > 0.1 * side) & (profile.t_grid < 0.9 * t_crit)
        plateau = float(np.median(profile.chi[window])) if window.any() else float("nan")
        chi_at_crit = float(np.interp(t_crit, profile.t_grid, profile.chi))
        below = profile.chi <= 0.1
        crossing = float(profile.t_grid[np.argmax(below)]) if below.any() else float("nan")
        report.constants["plateau_median"] = plateau
        report.constants["chi_at_t_crit"] = chi_at_crit
        report.constants["crossing"] = crossing
        target = 1.0 / math.sqrt(2.0)
        report.add_assertion("plateau-median-near-invsqrt2",
                             target - 0.05 <= plateau <= target + 0.02, True)
        report.add_assertion("chi-small-at-t-crit", chi_at_crit <= 0.1, True)
        report.add_assertion("crossing-near-t-crit",
                             math.isfinite(crossing)
                             and abs(crossing - t_crit) <= 0.05 * t_crit, True)
        marks["t_crit"] = t_crit

    paths = []
    _write(config.out_dir, "critfn.csv", profile_to_csv(profile), paths)
    _write(config.out_dir, "critfn.svg", profile_svg(profile, marks), paths)
    _write(config.out_dir, "critfn_report.json", report.to_json(), paths)
    return report


def _trajectory_csv(traj) -> str:
    cols = ["t", "s"] + ["x%d" % k for k in range(traj.points.shape[1])] + \
        ["R", "F", "F_alpha", "grad_norm"]
    lines = [",".join(cols)]
    for k in range(len(traj)):
        vals = [traj.times[k], traj.arc[k], *traj.points[k], traj.R[k],
                traj.F[k], traj.F_alpha[k], traj.grad_norm[k]]
        lines.append(",".join("%.17g" % v for v in vals))
    return "\n".join(lines) + "\n"


def run_flow(config: ExperimentConfig) -> StabilityReport:
    """Integrate trajectories from the configured starts; enforce exact R
    monotonicity and the radius-growth certificate where it applies."""
    if not config.starts:
        raise InvalidSceneError("flow experiment needs starts")
    report = StabilityReport(kind="flow", seed=config.seed,
                             resolution=config.resolution)
    alpha = float(config.alpha_grid[0]) if config.alpha_grid else None
    lam = float(config.lambda_grid[0]) if config.lambda_grid else None
    trajs = integrate_flows(config.scene, config.starts, alpha=alpha,
                            horizon=config.horizon,
                            lam=None if alpha is None else lam)
    paths = []
    for k, (start, traj) in enumerate(zip(config.starts, trajs)):
        r_steps = np.diff(traj.R)
        row = {
            "start": [float(v) for v in start],
            "stop_reason": traj.stop_reason,
            "nodes": len(traj),
            "final_R": float(traj.R[-1]),
            "min_R_step": float(r_steps.min()) if len(r_steps) else 0.0,
            "flags": [],
        }
        report.add_assertion("R-monotone-%d" % k,
                             row["min_R_step"] >= 0.0, True)
        if lam is not None and alpha is not None:
            cert = radius_certificate(traj, alpha, lam)
            row["certificate_valid"] = cert.valid
            row["certificate_flags"] = list(cert.flags)
            applicable = not any(f.startswith("start-") for f in cert.flags)
            report.add_assertion("certificate-%d" % k,
                                 cert.valid if applicable else True, applicable)
        report.rows.append(row)
        _write(config.out_dir, "trajectory_%02d.csv" % k,
               _trajectory_csv(traj), paths)
    _write(config.out_dir, "flow.svg",
           scene_svg(config.scene, trajectories=trajs), paths)
    _write(config.out_dir, "flow_report.json", report.to_json(), paths)
    return report


class _SweepDirection(NamedTuple):
    grid: str        # config grid that is swept
    fixed: str       # config grid whose first value is held
    need: str        # what a sweep in this direction needs
    point: Callable  # (grid value, fixed value) -> (lambda, alpha)
    mu_at: int       # grid index whose (lambda, alpha) sets the mu window
    window: Callable  # lower grid value -> reach-summary window (None: alpha)
    lip: Callable    # (r_max, lower grid value, alpha, mu_tilde) -> constant


_SWEEPS = {
    "lambda": _SweepDirection(
        "lambda_grid", "alpha_grid", ">= 2 lambdas and an alpha",
        lambda v, fixed: (v, fixed), -1, lambda lo: None,
        lambda r_max, lo, alpha, mt: r_max ** 2 / (alpha * lo * mt ** 2)),
    "alpha": _SweepDirection(
        "alpha_grid", "lambda_grid", ">= 2 alphas and a lambda",
        lambda v, fixed: (fixed, v), 0, lambda lo: lo,
        lambda r_max, lo, alpha, mt: r_max / (lo * mt ** 2)),
}


def _gh_measure(config: ExperimentConfig, graph_a, graph_b, radius: float):
    """(distortion, surjective) of the radius relation between two geodesic
    graphs; a relation that is not surjective has infinite distortion."""
    try:
        distortion = gh_distortion(graph_a, graph_b, radius,
                                   sample_pairs=config.sample_pairs,
                                   resolution=config.resolution, seed=config.seed)
    except SurjectivityError:
        return float("inf"), False
    return distortion, True


def _sweep(config: ExperimentConfig, which: str) -> StabilityReport:
    scene = config.scene
    res = config.resolution
    report = StabilityReport(kind="sweep-" + which, seed=config.seed,
                             resolution=res)
    way = _SWEEPS[which]
    grid = [float(v) for v in getattr(config, way.grid)]
    fixed = getattr(config, way.fixed)
    if len(grid) < 2 or not fixed:
        raise InvalidSceneError("%s sweep needs %s" % (which, way.need))
    points = [way.point(v, float(fixed[0])) for v in grid]

    skeleton = build_skeleton(scene)
    profile = _profile_for(scene, config, skeleton)
    axes = [filter_axis(skeleton, lam, alpha) for lam, alpha in points]
    lam_mu, alpha_mu = points[way.mu_at]
    mu, mu_flags = _resolve_mu(config, profile, alpha_mu, lam_mu)
    report.flags.extend(mu_flags)
    report.constants["mu"] = mu
    report.constants["r_max"] = profile.r_max

    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        delta = hi - lo
        axis_lo, axis_hi = axes[i], axes[i + 1]
        lam, alpha = points[i + 1]
        summary = reach_summary(profile, mu, alpha, lam,
                                window_alpha=way.window(lo))
        lip = (way.lip(profile.r_max, lo, alpha, summary.mu_tilde)
               if math.isfinite(summary.mu_tilde) else float("nan"))
        hyp_ok = (math.isfinite(summary.mu_tilde)
                  and math.isfinite(summary.r_mu_alpha)
                  and summary.r_mu_alpha > alpha + lam)
        back = directed_hausdorff(axis_hi, axis_lo, res)
        d_h = max(directed_hausdorff(axis_lo, axis_hi, res), back)
        bound = lip * delta + res
        row = {
            "lo": lo, "hi": hi, "delta": delta, "d_H": d_h,
            "directed_back": back, "lip": lip, "bound": bound,
            "mu_tilde": summary.mu_tilde, "flags": [],
        }
        if not hyp_ok:
            row["flags"].append("outside-hypothesis")
        if math.isfinite(lip) and d_h > 10.0 * max(bound, res):
            row["flags"].append("discontinuity")
        report.add_assertion("nested-%s-%d" % (which, i),
                             back <= 1e-11 * scene.bounding_radius, True)
        report.add_assertion("lipschitz-%s-%d" % (which, i),
                             (d_h <= bound) if hyp_ok else True, hyp_ok)

        if config.gh_variant:
            connected = _connected(axis_lo) and _connected(axis_hi)
            if connected and hyp_ok:
                t_flow = lip * delta
                graph_lo = build_geodesic_graph(axis_lo)
                diam = geodesic_diameter(graph_lo)
                radius = max(t_flow, d_h + 2.0 * res)
                distortion, gh_ok = _gh_measure(
                    config, graph_lo, build_geodesic_graph(axis_hi), radius)
                gh_bound = (2.0 * t_flow + diam * math.expm1(t_flow / alpha)
                            if t_flow / alpha < 700.0 else float("inf"))
                row["gh_distortion"] = distortion
                row["gh_bound"] = gh_bound
                row["gdiam"] = diam
                report.add_assertion("gh-variant-%s-%d" % (which, i),
                                     gh_ok and distortion <= gh_bound, True)
            else:
                row["flags"].append("gh-variant-skipped")
                report.add_assertion("gh-variant-%s-%d" % (which, i), True, False)
        report.rows.append(row)

    paths = []
    _write(config.out_dir, "sweep_%s_report.json" % which, report.to_json(), paths)
    return report


def run_sweep_lambda(config: ExperimentConfig) -> StabilityReport:
    """Hausdorff Lipschitz continuity in lambda, with the flow-relation GH
    variant on connected axes."""
    return _sweep(config, "lambda")


def run_sweep_alpha(config: ExperimentConfig) -> StabilityReport:
    """Hausdorff Lipschitz continuity in alpha; larger alpha gives a subset."""
    return _sweep(config, "alpha")


def _jitter_base(config: ExperimentConfig, report: StabilityReport) -> tuple:
    """Set-up shared by the jitter experiments.

    Returns (lam, alpha, base axis, profile, mu, summary, jitters).  Each
    epsilon k is jittered once, by ``default_rng([seed, k])``; ``jitters``
    holds (epsilon, skeleton of the jittered scene), with None for a jitter
    that gives an invalid scene.  The summary is merged with the one of the
    last, most perturbed scene so the hypotheses cover both.
    """
    if not config.epsilons or not config.lambda_grid or not config.alpha_grid:
        raise InvalidSceneError("%s experiment needs epsilons, lambda, alpha"
                                % report.kind)
    lam = float(config.lambda_grid[0])
    alpha = float(config.alpha_grid[0])
    skeleton = build_skeleton(config.scene)
    base_axis = filter_axis(skeleton, lam, alpha)
    profile = _profile_for(config.scene, config, skeleton)
    mu, mu_flags = _resolve_mu(config, profile, alpha, lam)
    report.flags.extend(mu_flags)
    summary = reach_summary(profile, mu, alpha, lam)
    jitters = []
    for k, eps in enumerate(config.epsilons):
        try:
            scene_p = _jitter(config.scene, float(eps),
                              np.random.default_rng([config.seed, k]))
        except InvalidSceneError:
            scene_p = None
        jitters.append((float(eps), None if scene_p is None else build_skeleton(scene_p)))
    try:
        top = jitters[-1][1]
        if top is None:
            raise InvalidSceneError("the most perturbed scene is invalid")
        summary = _merge_summaries(summary, reach_summary(
            _profile_for(top.scene, config, top), mu, alpha, lam))
    except InvalidSceneError:
        report.flags.append("top-epsilon-scene-invalid")
    return lam, alpha, base_axis, profile, mu, summary, jitters


def _valid_jitters(jitters: list, report: StabilityReport):
    """Yield (k, epsilon, skeleton) per valid jitter.  An epsilon whose
    jitter gave an invalid scene gets a flagged row and a skipped
    ``<kind>-k`` assertion instead."""
    for k, (eps, skeleton) in enumerate(jitters):
        if skeleton is None:
            report.rows.append({"epsilon": eps, "flags": ["invalid-perturbed-scene"]})
            report.add_assertion("%s-%d" % (report.kind, k), True, False)
            continue
        yield k, eps, skeleton


def run_perturb(config: ExperimentConfig) -> StabilityReport:
    """Hausdorff stability under site jitter: d_H(axes) <= C sqrt(eps)."""
    scene = config.scene
    res = config.resolution
    report = StabilityReport(kind="perturb", seed=config.seed, resolution=res)
    if config.epsilons and max(config.epsilons) < 100.0 * min(config.epsilons):
        report.flags.append("epsilon-span-below-two-decades")
    lam, alpha, base_axis, _, mu, summary_used, jitters = _jitter_base(config, report)
    report.constants["mu"] = mu
    report.constants["mu_tilde"] = summary_used.mu_tilde
    report.constants["r_max"] = summary_used.r_max

    eps_list, dh_list, hyps = [], [], []
    for k, eps, skeleton_p in _valid_jitters(jitters, report):
        shift = float(np.linalg.norm(skeleton_p.scene.sites - scene.sites, axis=1).max())
        axis_p = filter_axis(skeleton_p, lam, alpha)
        d_h = hausdorff_distance(base_axis, axis_p, res)
        cons = stability_constants(summary_used, delta=lam / 2.0, epsilon=eps)
        hyp_ok = (cons.hypothesis_flags["mu-tilde-defined"]
                  and cons.hypothesis_flags["reach-exceeds-filter"]
                  and cons.hypothesis_flags["perturb-epsilon-small"])
        row = {
            "epsilon": eps, "d_H": d_h, "site_shift": shift,
            "bound": cons.hausdorff_bound, "C": cons.c,
            "constants": {"mu_tilde": cons.mu_tilde, "r_max": cons.r_max},
            "flags": [] if hyp_ok else ["outside-hypothesis"],
        }
        report.rows.append(row)
        report.add_assertion("site-shift-%d" % k, shift <= eps, True)
        report.add_assertion("perturb-%d" % k,
                             (d_h <= cons.hausdorff_bound) if hyp_ok else True,
                             hyp_ok)
        hyps.append(hyp_ok)
        eps_list.append(eps)
        dh_list.append(d_h)

    all_hyp = len(hyps) == len(config.epsilons) and all(hyps)
    slope, rms, n = _slope_fit(eps_list, dh_list)
    report.slope = slope
    report.slope_residual = rms
    report.n_samples = n
    enforce_slope = all_hyp and n >= 4
    report.add_assertion("slope-at-least-0.4",
                         (slope >= 0.4) if enforce_slope else True, enforce_slope)
    paths = []
    _write(config.out_dir, "perturb_report.json", report.to_json(), paths)
    return report


def run_gh(config: ExperimentConfig) -> StabilityReport:
    """Gromov-Hausdorff stability under site jitter: distortion of the
    radius-C*sqrt(eps) relation against the three-term bound."""
    scene = config.scene
    res = config.resolution
    report = StabilityReport(kind="gh", seed=config.seed, resolution=res)
    lam, alpha, base_axis, profile, mu, summary_used, jitters = _jitter_base(config, report)
    summary_half = reach_summary(profile, mu, alpha, lam, window_alpha=alpha / 2.0)

    base_connected = _connected(base_axis)
    base_graph = build_geodesic_graph(base_axis) if base_connected else None
    gdiam_base = geodesic_diameter(base_graph) if base_connected else float("inf")
    report.constants["mu"] = mu
    report.constants["mu_tilde"] = summary_used.mu_tilde
    report.constants["gdiam_base"] = gdiam_base

    for k, eps, skeleton_p in _valid_jitters(jitters, report):
        axis_p = filter_axis(skeleton_p, lam, alpha)
        connected = base_connected and _connected(axis_p)
        if not connected:
            report.rows.append({"epsilon": eps, "flags": ["disconnected-skip"]})
            report.add_assertion("gh-surjective-%d" % k, True, False)
            report.add_assertion("gh-%d" % k, True, False)
            continue
        graph_p = build_geodesic_graph(axis_p)
        gdiam_p = geodesic_diameter(graph_p)
        cons = stability_constants(summary_used, delta=lam / 2.0, epsilon=eps,
                                   gdiam_a=gdiam_base, gdiam_b=gdiam_p,
                                   r_bound=scene.bounding_radius,
                                   mu_tilde_half=summary_half.mu_tilde)
        # max(res, nan) is res; the cap keeps an infinite bound queryable
        radius = min(max(res, cons.hausdorff_bound),
                     4.0 * scene.bounding_radius)
        d_h = hausdorff_distance(base_axis, axis_p, res)
        distortion, surjective = _gh_measure(config, base_graph, graph_p, radius)
        hyp_ok = (cons.hypothesis_flags["mu-tilde-defined"]
                  and cons.hypothesis_flags["reach-exceeds-filter"]
                  and cons.hypothesis_flags["gh-epsilon-small"])
        diam_hyp = (cons.hypothesis_flags["mu-tilde-defined"]
                    and cons.hypothesis_flags["reach-exceeds-filter"])
        row = {
            "epsilon": eps, "d_H": d_h, "gh_distortion": distortion,
            "radius": radius, "gdiam": gdiam_p,
            "constants": {
                "C": cons.c,
                "gh_term_flow": cons.gh_term_flow,
                "gh_term_near": cons.gh_term_near,
                "gh_term_diam": cons.gh_term_diam,
                "gh_bound": cons.gh_bound,
                "gdiam_bound": cons.gdiam_bound,
                "universal_gdiam_bound": cons.universal_gdiam_bound,
            },
            "hypothesis_flags": dict(cons.hypothesis_flags),
            "flags": [] if hyp_ok else ["outside-hypothesis"],
        }
        report.rows.append(row)
        report.add_assertion("gh-surjective-%d" % k, surjective, True)
        report.add_assertion("gh-%d" % k,
                             (distortion <= cons.gh_bound) if hyp_ok else True,
                             hyp_ok)
        report.add_assertion(
            "gdiam-bound-%d" % k,
            (max(gdiam_base, gdiam_p) <= cons.gdiam_bound) if diam_hyp else True,
            diam_hyp)
    paths = []
    _write(config.out_dir, "gh_report.json", report.to_json(), paths)
    return report
