"""Drive the axiform command line end to end from a pair of JSON files.

The CLI wraps the same experiment runners used elsewhere in these demos:
a config file names a scene (inline or by path) plus parameters, and the
subcommand decides which experiment to run and which report files to
write.  A flow run follows the distance's gradient from a few starts, and
the next two runs read the critical function in closed form: of a square
wire in a tilted plane of R^3, and of a 10 x 10 lattice, whose ties are
exact.  The last run filters that lattice's axis where exact ties decide
which vertices stay, and an alpha sweep checks the Lipschitz and GH
bounds on six sites.  Everything below goes through subprocess so the output matches
what a shell user would see, including the one-line JSON summary on
stdout and the report files in --out.
"""

import json
import os
import shutil
import subprocess
import sys

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "cli")


def axiform_cmd() -> list:
    exe = shutil.which("axiform")
    if exe:
        return [exe]
    return [sys.executable, "-m", "medaxis.cli"]


def main():
    os.makedirs(OUT, exist_ok=True)

    scene_path = os.path.join(OUT, "scene.json")
    with open(scene_path, "w") as fh:
        json.dump({"sites": [[-1.0, 0.0], [1.0, 0.0]],
                   "bounding_radius": 10.0}, fh)

    config = {
        "scene": "scene.json",
        "lambda_grid": [0.7, 0.75],
        "alpha_grid": [0.5],
        "t_count": 12,
        "samples_per_level": 300,
        "seed": 5,
        "gh_variant": False,
    }
    config_path = os.path.join(OUT, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
    print("config written to %s:" % os.path.relpath(config_path))
    print(json.dumps(config, indent=2))

    for sub in ("axis", "sweep-lambda", "critfn"):
        run(sub, config_path, os.path.join(OUT, sub))

    # The gradient flow of the distance from four starts on the same scene,
    # stopped where F_alpha reaches lambda.  Every node of every start goes
    # to one trajectories.csv, its start column indexing the report's rows.
    flow = {
        "scene": "scene.json",
        "starts": [[0.0, 1.5], [0.3, 0.9], [-2.0, -3.0], [4.0, 0.5]],
        "lambda_grid": [0.75],
        "alpha_grid": [0.5],
        "horizon": 20.0,
    }
    flow_path = os.path.join(OUT, "flow_config.json")
    with open(flow_path, "w") as fh:
        json.dump(flow, fh, indent=2)
    print("\nflow config written to %s" % os.path.relpath(flow_path))
    run("flow", flow_path, os.path.join(OUT, "flow"))

    # A square wire of 200 sites, side 2, in a tilted plane of R^3.  Its
    # sites span a plane through the origin, so critfn reads chi in closed
    # form, as for a planar scene: 1/sqrt(2) on the plateau, 0 at half the
    # side.
    u = [-1.0 + k / 25.0 for k in range(50)]
    ring = ([(x, -1.0) for x in u] + [(1.0, x) for x in u]
            + [(-x, 1.0) for x in u] + [(-1.0, -x) for x in u])
    e1, e2 = (2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0), (-2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0)
    wire = {
        "scene": {"sites": [[a * p + b * q for p, q in zip(e1, e2)] for a, b in ring],
                  "bounding_radius": 4.0},
        "t_grid": [0.25, 0.4, 0.55, 0.7, 0.85, 1.0, 1.15],
        "expect_square_side": 2.0,
    }
    wire_path = os.path.join(OUT, "wire_config.json")
    with open(wire_path, "w") as fh:
        json.dump(wire, fh)
    print("\nsquare wire config written to %s" % os.path.relpath(wire_path))
    run("critfn", wire_path, os.path.join(OUT, "critfn-wire"))

    # A 10 x 10 lattice of spacing 1.5: many sites tie on its square
    # centers and where its bisectors meet the wall, and chi is still read
    # in closed form off the skeleton.
    lattice = {
        "scene": {"sites": [[1.5 * i - 6.75, 1.5 * j - 6.75]
                            for i in range(10) for j in range(10)],
                  "bounding_radius": 10.0},
        "lambda_grid": [0.5],
        "alpha_grid": [0.3],
    }
    lattice_path = os.path.join(OUT, "lattice_config.json")
    with open(lattice_path, "w") as fh:
        json.dump(lattice, fh)
    print("\nlattice config written to %s" % os.path.relpath(lattice_path))
    run("critfn", lattice_path, os.path.join(OUT, "critfn-lattice"))

    # The same lattice's axis at lambda 0.75, its half gap, and 1.0, where
    # no edge stays: each vertex stays or goes on its own R and F, which
    # exact ties decide, four sites at a square's center and two sites and
    # the wall at the rim.
    lattice.update(lambda_grid=[0.75, 1.0], alpha_grid=[0.3])
    axis_lattice_path = os.path.join(OUT, "axis_lattice_config.json")
    with open(axis_lattice_path, "w") as fh:
        json.dump(lattice, fh)
    print("\nlattice axis config written to %s" % os.path.relpath(axis_lattice_path))
    run("axis", axis_lattice_path, os.path.join(OUT, "axis-lattice"))

    # An alpha sweep with the GH variant on six sites.  Its first step lies
    # inside the reach hypothesis, so its Lipschitz and GH checks are
    # enforced; the last two lie outside it and are recorded as skipped.
    sweep = {
        "scene": {"sites": [[-2.9, -2.23], [-3.62, -0.94], [-7.64, -0.62],
                            [-4.04, 3.77], [2.44, 3.54], [6.52, -0.45]],
                  "bounding_radius": 10.0},
        "lambda_grid": [0.6],
        "alpha_grid": [0.2, 0.3, 0.4, 0.5],
        "t_count": 20,
        "sample_pairs": 100,
        "seed": 5,
        "gh_variant": True,
    }
    sweep_path = os.path.join(OUT, "sweep_alpha_config.json")
    with open(sweep_path, "w") as fh:
        json.dump(sweep, fh)
    print("\nalpha sweep config written to %s" % os.path.relpath(sweep_path))
    run("sweep-alpha", sweep_path, os.path.join(OUT, "sweep-alpha"))


def run(sub, config_path, out_dir):
    cmd = axiform_cmd() + [sub, "--config", config_path, "--out", out_dir]
    shown = [os.path.basename(cmd[0])]
    shown += [os.path.relpath(c) if c.startswith(OUT) else c
              for c in cmd[1:]]
    print("\n$ %s" % " ".join(shown))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    print("exit code %d, files in %s:" % (proc.returncode,
                                          os.path.relpath(out_dir)))
    for name in sorted(os.listdir(out_dir)):
        size = os.path.getsize(os.path.join(out_dir, name))
        print("  %-28s %6d bytes" % (name, size))


if __name__ == "__main__":
    main()
