"""The four benchmark workloads: generated configs plus output checks.

Each workload turns a seed into a list of ``axiform`` calls.  ``build``
generates the scenes, validates them as ``SiteScene`` objects and writes one
config JSON per call; the program sees nothing else.  Each call carries a
check that reads the call's report after the timed pass and returns the
problems it finds (empty when the output is correct).

Why these four (one bypasses what another stresses):

* planar-audit: the paper's stability audit as users run it; many tiny
  scenes, so the critical-function sampler and per-call overhead dominate.
* square-wire-3d: the only non-planar path; batched distances and smallest
  enclosing balls of large witness sets, with no skeleton, metrics or flow.
* large-planar-axis: the only large-n planar path; one skeleton build per
  scene, filtered over a grid and written as JSON and SVG.
* flow-field: one-point-at-a-time distance queries and 2-3 point balls of
  the gradient flow, which no other workload runs.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

import scenes


@dataclass
class Call:
    name: str
    command: str
    config: str
    out: str
    check: object
    info: dict = field(default_factory=dict)


def _report(out, command):
    path = os.path.join(out, command.replace("-", "_") + "_report.json")
    with open(path) as fh:
        return json.load(fh)


def _passed(rep):
    if not rep["passed"]:
        bad = [a["name"] for a in rep["assertions"]
               if a["enforced"] and not a["passed"]]
        return ["report not passed: %s" % ", ".join(bad)]
    return []


def _check_passed(mx, call, first):
    return _passed(_report(call.out, call.command))


_SQUARE = ("plateau-median-near-invsqrt2", "chi-small-at-t-crit",
           "crossing-near-t-crit")


def _check_square(mx, call, first):
    rep = _report(call.out, call.command)
    problems = _passed(rep)
    got = {a["name"]: a for a in rep["assertions"]}
    for name in _SQUARE:
        a = got.get(name)
        if a is None or not (a["enforced"] and a["passed"]):
            problems.append("square assertion %s missing, skipped or failed" % name)
    return problems


def _check_flow(mx, call, first):
    rep = _report(call.out, call.command)
    problems = _passed(rep)
    for a in rep["assertions"]:
        if a["name"].startswith("R-monotone-") and not (a["enforced"] and a["passed"]):
            problems.append(a["name"])
        if a["name"].startswith("certificate-") and a["enforced"] and not a["passed"]:
            problems.append(a["name"])
    return problems


def _check_axis(mx, call, first):
    """Every grid point's kept-segment midpoints (a fixed sample of up to
    300) pass the field membership oracle.  Later passes rely on the output
    digests matching the first pass."""
    rep = _report(call.out, call.command)
    problems = _passed(rep)
    if not first:
        return problems
    with open(call.config) as fh:
        sc = json.load(fh)["scene"]
    scene = mx.SiteScene(np.asarray(sc["sites"], float), sc["bounding_radius"])
    for row in rep["rows"]:
        lam, alpha = row["lambda"], row["alpha"]
        with open(os.path.join(call.out, "axis_lam%g_alp%g.json" % (lam, alpha))) as fh:
            ax = json.load(fh)
        verts = np.asarray(ax["vertices"], float).reshape(-1, 2)
        segs = np.asarray(ax["segments"], int).reshape(-1, 2)
        if len(segs) != row["n_segments"]:
            problems.append("axis file and report disagree at %g/%g" % (lam, alpha))
        pick = np.random.default_rng(0).permutation(len(segs))[:300]
        mids = 0.5 * (verts[segs[pick, 0]] + verts[segs[pick, 1]])
        bad = sum(not mx.axis_membership(scene, m, lam, alpha) for m in mids)
        if bad:
            problems.append("%d of %d midpoints fail membership at lambda %g alpha %g"
                            % (bad, len(mids), lam, alpha))
    return problems


def _scene_dict(sites, radius):
    return {"sites": sites.tolist(), "bounding_radius": float(radius)}


def _planar_audit(rng):
    specs = []
    # Four scenes: whether a GH step is skipped (a disconnected axis) depends
    # on the scene, so more scenes keep the work of a pass alike across seeds.
    for k, n in enumerate((11, 12, 13, 14)):
        sites = scenes.audit_sites(rng, n)
        common = {"scene": _scene_dict(sites, 10.0), "t_count": 7,
                  "samples_per_level": 100, "resolution": 0.08,
                  "seed": int(rng.integers(2**31))}
        specs += [
            ("s%d-sweep-lambda" % k, "sweep-lambda", dict(
                common, lambda_grid=[0.60, 0.65, 0.70], alpha_grid=[0.6],
                gh_variant=True, sample_pairs=100), _check_passed),
            ("s%d-sweep-alpha" % k, "sweep-alpha", dict(
                common, lambda_grid=[0.65], alpha_grid=[0.55, 0.60, 0.65],
                gh_variant=False), _check_passed),
            ("s%d-perturb" % k, "perturb", dict(
                common, lambda_grid=[0.5], alpha_grid=[0.4],
                epsilons=[1e-5, 1e-4, 1e-3, 1e-2]), _check_passed),
            ("s%d-gh" % k, "gh", dict(
                common, lambda_grid=[0.5], alpha_grid=[0.4],
                epsilons=[1e-5, 1e-4, 1e-3], sample_pairs=100), _check_passed),
        ]
    return specs


def _square_wire(rng):
    side = float(rng.uniform(1.8, 2.2))
    sites = scenes.square_wire(rng, 100, side)
    levels = side * np.array([0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5])
    cfg = {"scene": _scene_dict(sites, 2.0 * side), "t_grid": levels.tolist(),
           "samples_per_level": 2000, "band_width": 2e-4 * side,
           "expect_square_side": side, "seed": int(rng.integers(2**31))}
    return [("wire", "critfn", cfg, _check_square)]


def _large_axis(rng):
    specs = []
    for n in (500, 2000):
        sites = scenes.separated_sites(rng, n, 10.0, min_sep=0.15)
        cfg = {"scene": _scene_dict(sites, 10.0),
               "lambda_grid": [0.05, 0.1, 0.15], "alpha_grid": [0.1, 0.3]}
        specs.append(("n%d" % n, "axis", cfg, _check_axis))
    return specs


def _flow_field(rng):
    specs = []
    for n in (50, 90, 130, 180):
        sites = scenes.separated_sites(rng, n, 10.0, min_sep=0.4)
        starts = scenes.flow_starts(rng, sites, 125, 10.0, clearance=0.05)
        cfg = {"scene": _scene_dict(sites, 10.0), "starts": starts.tolist(),
               "lambda_grid": [0.5], "alpha_grid": [0.3], "horizon": 1.0}
        specs.append(("n%d" % n, "flow", cfg, _check_flow))
    return specs


WORKLOADS = {
    "planar-audit": _planar_audit,
    "square-wire-3d": _square_wire,
    "large-planar-axis": _large_axis,
    "flow-field": _flow_field,
}


def build(mx, workload, seed, work_dir):
    """Generate, validate and write the workload's configs; return calls."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    calls = []
    for name, command, cfg, check in WORKLOADS[workload](rng):
        sc = cfg["scene"]
        scene = mx.SiteScene(np.asarray(sc["sites"], float), sc["bounding_radius"])
        path = os.path.join(work_dir, "configs", name + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        calls.append(Call(name=name, command=command, config=path,
                          out=os.path.join(work_dir, "out", name), check=check,
                          info={"sites": len(scene.sites), "dim": scene.dim}))
    return calls
