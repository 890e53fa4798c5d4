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
import numbers
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .scene import (InvalidSceneError, SiteScene, _check_count, _check_real, _in_ball,
                    load_scene, scene_from_json)
from .field import (
    CriticalProfile,
    _check_sampling,
    estimate_critical_function,
    profile_to_csv,
    reach_summary,
)
from .axis import (
    FilteredAxis,
    VoronoiSkeleton,
    _in_plane,
    _plane_basis,
    axis_to_json,
    build_skeleton,
    exact_critical_function,
    filter_axis,
    scene_r_max,
)
from .flow import _certificates, integrate_flows
from .metrics import (
    SurjectivityError,
    build_geodesic_graph,
    directed_hausdorff,
    geodesic_diameter,
    gh_distortion,
    hausdorff_distance,
    stability_constants,
)
from .svgout import _elements, _scene_picture, profile_svg, scene_svg

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
        for name, key, positive in (("lam", "lambda_grid", True), ("alpha", "alpha_grid", False),
                                    ("epsilons", "epsilons", True), ("t_grid", "t_grid", True)):
            for val in getattr(self, key) or ():
                _check_real(name, val, positive)
        mu = self.mu
        if mu != "auto" and (isinstance(mu, bool) or not isinstance(mu, numbers.Real)
                             or not 0.0 < mu <= 1.0):
            raise InvalidSceneError('mu must be "auto" or a real number in (0, 1]')
        _check_sampling(self.samples_per_level, self.band_width)
        _check_count("sample_pairs", self.sample_pairs)
        _check_count("t_count", self.t_count)
        _check_count("seed", self.seed, least=0)
        _check_real("horizon", self.horizon, positive=False)
        if not isinstance(self.gh_variant, bool):
            raise InvalidSceneError("gh_variant must be true or false")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise InvalidSceneError("out_dir must be a path string")
        if self.resolution is None:
            self.resolution = self.scene.bounding_radius / 1000.0
        _check_real("resolution", self.resolution)
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
    # built-in types first; np.float64 is a float, but stays a number
    # when it is NaN or inf
    if isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
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

    def add_assertion(self, name: str, passed: bool, enforced: bool = True) -> None:
        """Record a check; one that is not enforced is recorded as passed."""
        self.assertions.append({"name": name, "passed": bool(passed or not enforced),
                                "enforced": bool(enforced)})

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions if a["enforced"])

    @property
    def skipped_count(self) -> int:
        return sum(1 for a in self.assertions if not a["enforced"])

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload.update(passed=self.passed, skipped_assertions=self.skipped_count)
        return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def _write(out_dir: str | None, name: str, text: str) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _finish(config: ExperimentConfig, report: StabilityReport) -> StabilityReport:
    """Write the report as ``<kind, "-" as "_">_report.json`` and return it."""
    _write(config.out_dir, report.kind.replace("-", "_") + "_report.json",
           report.to_json())
    return report


def _remove_stale(out_dir: str | None, pattern: str, keep=()) -> None:
    """Remove the files in out_dir whose names match the regular expression
    pattern in full and are not in keep: files of the runner's own kind that
    an earlier run left and this run does not write.  Nothing else is
    removed, and a missing out_dir is no error."""
    if out_dir is None or not os.path.isdir(out_dir):
        return
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if re.fullmatch(pattern, name) and name not in keep and os.path.isfile(path):
            os.remove(path)


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
    """Critical profile for a scene: in closed form from the skeleton of
    its sites in their plane (the caller's, when it holds one) for d = 2 and
    for sites that span a plane through the origin in any d, sampled for
    every other d >= 3 scene."""
    if scene.dim == 2 or _plane_basis(scene) is not None:
        skeleton = _in_plane(scene, skeleton)[1]
        return exact_critical_function(
            scene, _levels(config, scene_r_max(scene, skeleton)), skeleton)
    return estimate_critical_function(
        scene, _levels(config, None), samples_per_level=config.samples_per_level,
        band_width=config.band_width, seed=config.seed)


def _resolve_mu(config: ExperimentConfig, report: StabilityReport,
                profile: CriticalProfile, alpha: float, lam: float) -> float:
    """Config mu, or 0.95 of the smallest chi value just past the filter;
    a fallback of the latter adds its ``mu-auto-*`` flag to the report.

    The window stops a bit beyond alpha + lam: the stability bounds only
    need the reach to clear that radius, and scenes generically have
    critical values further out that would drive a global minimum to zero.
    """
    if config.mu != "auto":
        return float(config.mu)
    top = min(1.25 * (alpha + lam), 0.9 * profile.r_max)
    window = (profile.t_grid > alpha) & (profile.t_grid <= top)
    if not window.any():
        report.flags.append("mu-auto-empty-window")
        return 0.5
    mu = 0.95 * float(profile.chi[window].min())
    if mu <= 0.0:
        report.flags.append("mu-auto-chi-zero")
        return 1e-6
    return min(mu, 1.0)


def _connected(axis: FilteredAxis) -> bool:
    return not axis.is_empty and np.unique(axis.component_ids).size == 1


def _jitter(scene: SiteScene, eps: float, rng) -> SiteScene:
    return SiteScene(sites=scene.sites + _in_ball(rng, len(scene.sites), scene.dim, eps),
                     bounding_radius=scene.bounding_radius,
                     tie_tolerance=scene.tie_tolerance)


def _nan_or(pick, a, b):
    """pick(a, b), or NaN where either is NaN: Python's min and max keep
    their first argument against a NaN, so they depend on the order."""
    return math.nan if math.isnan(a) or math.isnan(b) else pick(a, b)


def _merge_summaries(a, b):
    """Two-scene summary: largest r_max, smallest mu_tilde and reach, each
    NaN where either scene's is."""
    return dataclasses.replace(
        a,
        r_max=_nan_or(max, a.r_max, b.r_max),
        r_mu_alpha=_nan_or(min, a.r_mu_alpha, b.r_mu_alpha),
        mu_tilde=_nan_or(min, a.mu_tilde, b.mu_tilde),
        flags=tuple(sorted(set(a.flags) | set(b.flags))))


# --- experiments ------------------------------------------------------------

def run_axis(config: ExperimentConfig) -> StabilityReport:
    """Build and write the filtered axis at every (lambda, alpha) grid point."""
    points = [(float(l), float(a)) for l in config.lambda_grid
              for a in config.alpha_grid]
    if not points:
        raise InvalidSceneError("axis experiment needs a (lambda, alpha) grid")
    report = StabilityReport("axis", config.seed, config.resolution)
    skeleton = build_skeleton(config.scene)
    draw = _scene_picture(config.scene, skeleton)
    stems = ["axis_lam%g_alp%g" % point for point in points]
    files = [stem + ext for stem in stems for ext in (".json", ".svg")]
    _remove_stale(config.out_dir, r"axis_lam.*_alp.*\.(json|svg)", files)
    for (lam, alpha), stem in zip(points, stems):
        axis = filter_axis(skeleton, lam, alpha)
        n_comp = np.unique(axis.component_ids).size
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
        _write(config.out_dir, stem + ".json", axis_to_json(axis) + "\n")
        _write(config.out_dir, stem + ".svg", draw(axis))
    report.constants["files"] = files if config.out_dir is not None else []
    return _finish(config, report)


def run_critfn(config: ExperimentConfig) -> StabilityReport:
    """Estimate the critical function; optionally check the square-scene
    signature (median plateau at 1/sqrt(2), zero crossing at half the side)."""
    report = StabilityReport("critfn", config.seed, config.resolution)
    profile = _profile_for(config.scene, config)
    report.rows = [{"t": float(t), "chi": float(c)}
                   for t, c in zip(profile.t_grid, profile.chi)]
    report.flags.extend(profile.flags)
    report.n_samples = int(np.sum(profile.sample_count))

    marks = {}
    if config.alpha_grid and config.lambda_grid:
        alpha = float(config.alpha_grid[0])
        lam = float(config.lambda_grid[0])
        mu = _resolve_mu(config, report, profile, alpha, lam)
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
                             target - 0.05 <= plateau <= target + 0.02)
        report.add_assertion("chi-small-at-t-crit", chi_at_crit <= 0.1)
        report.add_assertion("crossing-near-t-crit",
                             abs(crossing - t_crit) <= 0.05 * t_crit)
        marks["t_crit"] = t_crit

    _write(config.out_dir, "critfn.csv", profile_to_csv(profile))
    _write(config.out_dir, "critfn.svg", profile_svg(profile, marks))
    return _finish(config, report)


def _trajectories_csv(trajs) -> str:
    """Every trajectory's nodes in one table, in start order; ``start`` is
    the index into the starts and the report's rows.  Each trajectory is
    filled by its own format: one format over all of them would hold a
    string per value of every node at once."""
    d = trajs[0].points.shape[1]
    row = ",".join(["%.17g"] * (d + 6))
    lines = [",".join(["start", "t", "s"] + ["x%d" % k for k in range(d)]
                      + ["R", "F", "F_alpha", "grad_norm"])]
    for k, tr in enumerate(trajs):
        lines.append(_elements("%d,%s" % (k, row), np.column_stack(
            [tr.times, tr.arc, tr.points, tr.R, tr.F, tr.F_alpha, tr.grad_norm])))
    return "\n".join(lines) + "\n"


def run_flow(config: ExperimentConfig) -> StabilityReport:
    """Integrate trajectories from the configured starts; enforce exact R
    monotonicity and the radius-growth certificate where it applies."""
    if not config.starts:
        raise InvalidSceneError("flow experiment needs starts")
    report = StabilityReport("flow", config.seed, config.resolution)
    alpha = float(config.alpha_grid[0]) if config.alpha_grid else None
    lam = float(config.lambda_grid[0]) if config.lambda_grid else None
    trajs = integrate_flows(config.scene, config.starts, alpha=alpha,
                            horizon=config.horizon,
                            lam=None if alpha is None else lam)
    # the one-file-per-start tables that trajectories.csv replaced
    _remove_stale(config.out_dir, r"trajectory_[0-9]{2,}\.csv")
    if lam is not None and alpha is not None:
        certs = _certificates(trajs, alpha, lam)
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
        report.add_assertion("R-monotone-%d" % k, row["min_R_step"] >= 0.0)
        if lam is not None and alpha is not None:
            cert = certs[k]
            row["certificate_valid"] = cert.valid
            row["certificate_flags"] = list(cert.flags)
            applicable = not any(f.startswith("start-") for f in cert.flags)
            report.add_assertion("certificate-%d" % k, cert.valid, applicable)
        report.rows.append(row)
    _write(config.out_dir, "trajectories.csv", _trajectories_csv(trajs))
    _write(config.out_dir, "flow.svg", scene_svg(config.scene, trajectories=trajs))
    return _finish(config, report)


def _sweep(config: ExperimentConfig, which: str) -> StabilityReport:
    scene = config.scene
    res = config.resolution
    report = StabilityReport("sweep-" + which, config.seed, res)
    by_lam = which == "lambda"
    grid, fixed = ((config.lambda_grid, config.alpha_grid) if by_lam
                   else (config.alpha_grid, config.lambda_grid))
    grid = [float(v) for v in grid]
    if len(grid) < 2 or not fixed:
        raise InvalidSceneError("%s sweep needs %s" % (
            which, ">= 2 lambdas and an alpha" if by_lam else ">= 2 alphas and a lambda"))
    fixed = float(fixed[0])
    points = [(v, fixed) if by_lam else (fixed, v) for v in grid]

    skeleton = build_skeleton(scene)
    profile = _profile_for(scene, config, skeleton)
    axes = [filter_axis(skeleton, lam, alpha) for lam, alpha in points]
    lam_mu, alpha_mu = points[-1] if by_lam else points[0]
    mu = _resolve_mu(config, report, profile, alpha_mu, lam_mu)
    report.constants["mu"] = mu
    report.constants["r_max"] = profile.r_max

    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        delta = hi - lo
        axis_lo, axis_hi = axes[i], axes[i + 1]
        lam, alpha = points[i + 1]
        summary = reach_summary(profile, mu, alpha, lam,
                                window_alpha=None if by_lam else lo)
        mt = summary.mu_tilde
        lip = float("nan")
        if math.isfinite(mt):
            lip = (profile.r_max ** 2 / (alpha * lo * mt ** 2) if by_lam
                   else profile.r_max / (lo * mt ** 2))
        hyp_ok = summary.reach_holds
        back = directed_hausdorff(axis_hi, axis_lo, res)
        d_h = max(directed_hausdorff(axis_lo, axis_hi, res), back)
        bound = lip * delta + res
        row = {
            "lo": lo, "hi": hi, "delta": delta, "d_H": d_h,
            "directed_back": back, "lip": lip, "bound": bound,
            "mu_tilde": mt, "flags": [],
        }
        if not hyp_ok:
            row["flags"].append("outside-hypothesis")
        if math.isfinite(lip) and d_h > 10.0 * max(bound, res):
            row["flags"].append("discontinuity")
        report.add_assertion("nested-%s-%d" % (which, i),
                             back <= 1e-11 * scene.bounding_radius)
        report.add_assertion("lipschitz-%s-%d" % (which, i), d_h <= bound, hyp_ok)

        if config.gh_variant:
            connected = _connected(axis_lo) and _connected(axis_hi)
            if connected and hyp_ok:
                t_flow = lip * delta
                graph_lo = build_geodesic_graph(axis_lo)
                diam = geodesic_diameter(graph_lo)
                # each sample lies within d_H of the other axis and within
                # res/2 of one of its samples, so this radius covers both
                # axes: a SurjectivityError here is a program error
                distortion = gh_distortion(
                    graph_lo, build_geodesic_graph(axis_hi), max(t_flow, d_h + 2.0 * res),
                    sample_pairs=config.sample_pairs, resolution=res, seed=config.seed)
                gh_bound = (2.0 * t_flow + diam * math.expm1(t_flow / alpha)
                            if t_flow / alpha < 700.0 else float("inf"))
                row["gh_distortion"] = distortion
                row["gh_bound"] = gh_bound
                row["gdiam"] = diam
                report.add_assertion("gh-variant-%s-%d" % (which, i),
                                     distortion <= gh_bound)
            else:
                row["flags"].append("gh-variant-skipped")
                report.add_assertion("gh-variant-%s-%d" % (which, i), True, False)
        report.rows.append(row)
    return _finish(config, report)


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
    mu = _resolve_mu(config, report, profile, alpha, lam)
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
    report = StabilityReport("perturb", config.seed, res)
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
        hyp_ok = (summary_used.reach_holds
                  and cons.hypothesis_flags["perturb-epsilon-small"])
        row = {
            "epsilon": eps, "d_H": d_h, "site_shift": shift,
            "bound": cons.hausdorff_bound, "C": cons.c,
            "constants": {"mu_tilde": cons.mu_tilde, "r_max": cons.r_max},
            "flags": [] if hyp_ok else ["outside-hypothesis"],
        }
        report.rows.append(row)
        report.add_assertion("site-shift-%d" % k, shift <= eps)
        report.add_assertion("perturb-%d" % k, d_h <= cons.hausdorff_bound, hyp_ok)
        hyps.append(hyp_ok)
        eps_list.append(eps)
        dh_list.append(d_h)

    all_hyp = len(hyps) == len(config.epsilons) and all(hyps)
    slope, rms, n = _slope_fit(eps_list, dh_list)
    report.slope = slope
    report.slope_residual = rms
    report.n_samples = n
    enforce_slope = all_hyp and n >= 4
    report.add_assertion("slope-at-least-0.4", slope >= 0.4, enforce_slope)
    return _finish(config, report)


def run_gh(config: ExperimentConfig) -> StabilityReport:
    """Gromov-Hausdorff stability under site jitter: distortion of the
    radius-C*sqrt(eps) relation against the three-term bound."""
    scene = config.scene
    res = config.resolution
    report = StabilityReport("gh", config.seed, res)
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
        # max(res, nan) is res, a radius no bound backs, so surjectivity is
        # enforced only where mu_tilde is defined; the cap keeps an infinite
        # bound queryable
        radius = min(max(res, cons.hausdorff_bound),
                     4.0 * scene.bounding_radius)
        d_h = hausdorff_distance(base_axis, axis_p, res)
        try:
            distortion = gh_distortion(base_graph, graph_p, radius,
                                       sample_pairs=config.sample_pairs,
                                       resolution=res, seed=config.seed)
            surjective = True
        except SurjectivityError:
            distortion, surjective = float("inf"), False
        diam_hyp = summary_used.reach_holds
        hyp_ok = diam_hyp and cons.hypothesis_flags["gh-epsilon-small"]
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
        report.add_assertion("gh-surjective-%d" % k, surjective,
                             cons.hypothesis_flags["mu-tilde-defined"])
        report.add_assertion("gh-%d" % k, distortion <= cons.gh_bound, hyp_ok)
        report.add_assertion("gdiam-bound-%d" % k,
                             max(gdiam_base, gdiam_p) <= cons.gdiam_bound,
                             diam_hyp and not math.isnan(cons.gdiam_bound))
    return _finish(config, report)
