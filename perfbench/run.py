"""Benchmark of the ``axiform`` experiments, end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload planar-audit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run generates the workload's scenes from the seed, writes them as
``axiform`` configs, then repeats passes over the workload's calls to
``medaxis.cli.main`` (in process) for about ``--seconds`` seconds.  Every
call's output is checked after each pass, outside the timed window.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of five
set-ups, each in a fresh process: importing medaxis, generating and
validating the scenes, writing the configs), ``norm_wall_s`` (the time of
one pass) and ``peak_rss_mb``.  Both times are scaled to a fixed machine
speed; see ``reference_kernel``.
``--trace 1`` alternates untraced passes with passes traced by
``tracer.Tracer`` and reports the per-layer metrics, including the tracing
overhead.  Failed calls over calls attempted (``failed_ops``) are printed
and carried by the ``failed``/``attempted`` fields of the result.  The last
line of standard output is the JSON result; the run record and the spans go
to ``perfbench/_work/``.  ``--workload all`` runs every workload in its own
process and prints one table.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; subprocesses inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")
WORKLOAD_NAMES = ("planar-audit", "square-wire-3d", "large-planar-axis",
                  "flow-field")
SETUP_REPEATS = 5
# Seconds the reference kernel takes on an uncontended 2-vCPU x86-64 VM.
REFERENCE_S = 0.03
EXPERIMENTS = ("run_axis", "run_critfn", "run_flow", "run_sweep_lambda",
               "run_sweep_alpha", "run_perturb", "run_gh")
# Config parsing counts towards the CLI layer, as ``axiform`` users see it.
CLI_PARTS = ("cli.main", "cli.build_parser", "experiments.load_config",
             "experiments.config_from_dict")


def setup(workload, seed, work_dir):
    """Import medaxis, then generate, validate and write the configs.

    Returns (seconds, cli module, calls)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import medaxis
    cli = importlib.import_module("medaxis.cli")
    import workloads
    calls = workloads.build(medaxis, workload, seed, work_dir)
    return time.perf_counter() - t0, cli, calls


def setup_in_subprocess(args):
    """Time one set-up in a fresh process, with the reference kernel run
    before and after it.  Returns (seconds, seconds scaled as in
    ``run_pass``)."""
    ref = reference_kernel()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=120)
    took = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
    return took, took * REFERENCE_S / (0.5 * (ref + reference_kernel()))


def reference_kernel():
    """Time a fixed mix of small numpy operations and Python loops, the
    kind of work medaxis does, using no medaxis code.

    On a shared host the same call runs up to twice as slow for seconds at
    a time, and its CPU time grows with it, so neither wall nor CPU time of
    a pass repeats across runs.  The kernel slows with the host, so a call's
    time divided by the kernel time measured next to it varies a third as
    much, while a change to medaxis moves it as much as it moves the call.
    In a long slow spell the scaled times still read up to about 10% high."""
    import numpy as np
    t0 = time.perf_counter()
    pts = np.random.default_rng(0).normal(size=(400, 2))
    acc = 0.0
    for i in range(1500):
        d = np.sqrt(((pts - pts[i % 400]) ** 2).sum(1))
        acc += float(d[int(np.argmin(d + (d == 0) * 1e9))])
        acc += sum([x * 1.0001 for x in range(60)]) * 1e-9
    return time.perf_counter() - t0


def run_pass(cli, calls):
    """Run one pass over the calls, timing each call and the reference
    kernel before and after it.  Returns ([seconds per call], [seconds per
    call scaled by REFERENCE_S over the mean of the two kernel times],
    [(exit, stdout, stderr)])."""
    results, raw, scaled = [], [], []
    ref = reference_kernel()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        argv = [call.command, "--config", call.config, "--out", call.out]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            code = traceback.format_exc()
        took = time.perf_counter() - t0
        ref_after = reference_kernel()
        raw.append(took)
        scaled.append(took * REFERENCE_S / (0.5 * (ref + ref_after)))
        ref = ref_after
        results.append((code, out.getvalue(), err.getvalue()))
    return raw, scaled, results


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_pass(mx, calls, results, digests, first):
    """Problems per failed call; fills ``digests`` on the first pass."""
    failures = {}
    for call, (code, out, err) in zip(calls, results):
        problems = []
        if code != 0:
            problems.append("exit %s: %s" % (code, err.strip()[-300:]))
        else:
            try:
                if not json.loads(out.strip().splitlines()[-1])["passed"]:
                    problems.append("summary says not passed")
                problems += call.check(mx, call, first)
                digest = digest_dir(call.out)
                if first:
                    digests[call.name] = digest
                elif digests.get(call.name) != digest:
                    problems.append("output digest differs from the first pass")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append("unreadable output: %r" % exc)
        if problems:
            failures[call.name] = problems
    return failures


# --- per-layer metrics -------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap):
    """Per-layer metrics of one traced pass, keyed by name: (value, unit)."""
    calls, total, own, cnt = snap["calls"], snap["total"], snap["self"], snap["counts"]

    def self_s(*names):
        return sum(own.get(n, 0.0) for n in names)

    exp_self = sum(v for k, v in own.items()
                   if k.startswith("experiments.") and k not in CLI_PARTS)
    seb = "scene.smallest_enclosing_ball"
    flows = calls.get("flow.integrate_flow", 0)
    accepted = cnt.get("flow.nodes", 0) - flows
    m = {
        seb + ".calls": (calls.get(seb, 0), "count"),
        seb + ".self_s": (self_s(seb), "s"),
        seb + ".points_mean": (_ratio(cnt.get(seb + ".points", 0), calls.get(seb, 0)), "points"),
        "scene.nearest_site_info.calls": (calls.get("scene.nearest_site_info", 0), "count"),
        "scene.nearest_site_info.self_s": (self_s("scene.nearest_site_info"), "s"),
        "scene.SiteScene.calls": (calls.get("scene.SiteScene", 0), "count"),
        "scene.SiteScene.self_s": (self_s("scene.SiteScene"), "s"),
        "field.estimate_critical_function.self_s": (self_s("field.estimate_critical_function"), "s"),
        "field.levels": (cnt.get("field.levels", 0), "count"),
        "field.seeds": (cnt.get("field.seeds", 0), "count"),
        "field.on_level": (cnt.get("field.on_level", 0), "count"),
        "field.on_level_ratio": (_ratio(cnt.get("field.on_level", 0), cnt.get("field.seeds", 0)), "ratio"),
        "field.r_batch.calls": (calls.get("field.r_batch", 0), "count"),
        "field.r_batch.rows": (cnt.get("field.r_batch.rows", 0), "count"),
        "field.r_batch.self_s": (self_s("field.r_batch"), "s"),
        "field.eval_field.calls": (calls.get("field.eval_field", 0), "count"),
        "field.eval_field.self_s": (self_s("field.eval_field"), "s"),
        "axis.build_skeleton.calls": (calls.get("axis.build_skeleton", 0), "count"),
        "axis.build_skeleton.self_s": (self_s("axis.build_skeleton"), "s"),
        "axis.skeleton_edges": (cnt.get("axis.skeleton_edges", 0), "count"),
        "axis.filter_axis.calls": (calls.get("axis.filter_axis", 0), "count"),
        "axis.filter_axis.self_s": (self_s("axis.filter_axis"), "s"),
        "axis.scene_r_max.self_s": (self_s("axis.scene_r_max"), "s"),
        "axis.axis_to_json.self_s": (self_s("axis.axis_to_json"), "s"),
        "axis.axis_to_json.bytes": (cnt.get("axis.axis_to_json.bytes", 0), "B"),
        "flow.integrate_flow.calls": (flows, "count"),
        "flow.integrate_flow.self_s": (self_s("flow.integrate_flow"), "s"),
        "flow.nodes": (cnt.get("flow.nodes", 0), "count"),
        "flow.rejected_steps": (cnt.get("flow.rejected_steps", 0), "count"),
        "flow.accept_ratio": (_ratio(accepted, accepted + cnt.get("flow.rejected_steps", 0)), "ratio"),
        "flow.radius_certificate.self_s": (self_s("flow.radius_certificate"), "s"),
        "metrics.hausdorff.self_s": (self_s("metrics.hausdorff_distance", "metrics.directed_hausdorff"), "s"),
        "metrics.sample_points": (cnt.get("metrics.sample_points", 0), "count"),
        "metrics.build_geodesic_graph.self_s": (self_s("metrics.build_geodesic_graph"), "s"),
        "metrics.geodesic_nodes": (cnt.get("metrics.geodesic_nodes", 0), "count"),
        "metrics.geodesic_coarsened": (cnt.get("metrics.geodesic_coarsened", 0), "count"),
        "metrics.geodesic_diameter.self_s": (self_s("metrics.geodesic_diameter"), "s"),
        "metrics.gh_distortion.self_s": (self_s("metrics.gh_distortion"), "s"),
        "svgout.scene_svg.self_s": (self_s("svgout.scene_svg"), "s"),
        "svgout.profile_svg.self_s": (self_s("svgout.profile_svg"), "s"),
        "svgout.bytes": (cnt.get("svgout.bytes", 0), "B"),
        "experiments.self_s": (exp_self, "s"),
        "cli.main.self_s": (self_s(*CLI_PARTS), "s"),
    }
    for name in EXPERIMENTS:
        key = "experiments." + name
        m[key + ".s"] = (total.get(key, 0.0), "s")
    return m


def summarize_layers(snaps, tracer, untraced, traced):
    """Median of each time over traced passes; counts must repeat exactly."""
    per_pass = [layer_metrics(s) for s in snaps]
    out, mismatched = {}, []
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != value for v in values):
            mismatched.append(name)
        out[name] = {"value": value, "unit": unit}
    out["axis.build_skeleton.growth_exp"] = {"value": tracer.growth_exponent(),
                                             "unit": "slope"}
    out["trace.overhead_s"] = {"value": statistics.median(traced) - statistics.median(untraced),
                               "unit": "s"}
    out["trace.spans"] = {"value": len(tracer.spans) // len(snaps), "unit": "count"}
    return out, mismatched


# --- one workload ----------------------------------------------------------

def run_record(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": platform.machine(),
        "processor": platform.processor(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def run_workload(args):
    work_dir = os.path.join(WORK, "%s-seed%d" % (args.workload, args.seed))
    if args.setup_only:
        took, _, _ = setup(args.workload, args.seed, work_dir)
        print(json.dumps({"setup_s": took}))
        return 0
    _, cli, calls = setup(args.workload, args.seed, work_dir)
    setup_times = [setup_in_subprocess(args) for _ in range(SETUP_REPEATS)]
    import medaxis as mx
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    modes = (False, True) if args.trace else (False,)
    times = {False: [], True: []}
    scaled_times = []  # untraced passes only
    snaps, digests, problems = [], {}, []
    attempted = failed = cycles = 0
    start = time.perf_counter()
    while True:
        for traced in modes:
            for call in calls:
                shutil.rmtree(call.out, ignore_errors=True)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                per_call, scaled, results = run_pass(cli, calls)
            finally:
                if traced:
                    tracer.uninstall()
            times[traced].append(sum(per_call))
            if not traced:
                scaled_times.append(scaled)
            if traced:
                snaps.append({"calls": dict(tracer.calls), "total": dict(tracer.total),
                              "self": dict(tracer.self_time), "counts": dict(tracer.counts)})
            bad = check_pass(mx, calls, results, digests, first=not digests)
            attempted += len(calls)
            failed += len(bad)
            problems += [{"cycle": cycles, "traced": traced, "call": k,
                          "problems": v}
                         for k, v in bad.items()]
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles > 1 and elapsed + 0.5 * elapsed / cycles > args.seconds:
            break

    record = run_record(args)
    record.update(setup_times=setup_times, untraced_pass_s=times[False],
                  traced_pass_s=times[True], untraced_scaled_call_s=scaled_times,
                  problems=problems,
                  calls=[dict(name=c.name, command=c.command,
                              digest=digests.get(c.name), **c.info) for c in calls])
    correct = failed == 0
    if args.trace:
        metrics, mismatched = summarize_layers(snaps, tracer, times[False], times[True])
        if mismatched:
            correct = False
            record["count_mismatch"] = mismatched
        tracer.write_spans(os.path.join(work_dir, "spans.tsv"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(t[1] for t in setup_times), "unit": "s"},
            "norm_wall_s": {"value": sum(statistics.median(c) for c in zip(*scaled_times)),
                            "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
    record["metrics"] = metrics
    for call in calls:
        shutil.rmtree(call.out, ignore_errors=True)
    with open(os.path.join(work_dir, "record-trace%d.json" % args.trace), "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s seed %d trace %d: %d calls per pass, %d untraced + %d traced "
          "passes, median untraced pass %.3f s unscaled; nproc %s, python %s, "
          "numpy %s, scipy %s"
          % (args.workload, args.seed, args.trace, len(calls), len(times[False]),
             len(times[True]), statistics.median(times[False]), record["nproc"],
             record["python"], record["numpy"], record["scipy"]))
    for p in problems[:20]:
        print("FAILED %s" % json.dumps(p))
    print("failed_ops %d/%d = %.4f ratio" % (failed, attempted, failed / attempted))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    rows, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        rows[name] = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and rows[name]["correct"]
    for name, res in rows.items():
        print("%-18s failed_ops %d/%d ratio" % (name, res["failed"], res["attempted"]))
        for metric, v in res["metrics"].items():
            print("%-18s %-42s %14.6g %s" % (name, metric, v["value"], v["unit"]))
    print(json.dumps(rows))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "medaxis", "cli.py")):
        print("error: medaxis sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
