"""Flow a ring of seeds onto the filtered axis and audit the laws they obey.

Each trajectory follows the steepest-ascent direction of the distance to
the sites, sliding along witness ties once it reaches them.  Along the way
the clearance radius R never decreases (exactly, node by node), and once a
trajectory enters the axis the run stops.  For each trajectory that starts
outside the offset region we also check the radius-growth certificate: a
per-node lower bound on R in terms of arc length that must hold up to the
entry node.
"""

import os

import numpy as np

from medaxis import integrate_flows, radius_certificate, random_scene, scene_svg

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main():
    scene = random_scene(9, bounding_radius=6.0, seed=21, min_separation=1.0)
    lam, alpha = 0.35, 0.25

    print("flowing 16 seeds, lam=%.2f alpha=%.2f" % (lam, alpha))
    print("%6s %18s %6s %9s %9s %6s" % ("seed", "stop", "nodes",
                                        "R start", "R end", "cert"))
    ang = 2.0 * np.pi * np.arange(16) / 16.0
    starts = 2.2 * np.column_stack([np.cos(ang), np.sin(ang)])
    trajs = integrate_flows(scene, starts, alpha=alpha, horizon=4.0, lam=lam)
    worst_step = 0.0
    for k, traj in enumerate(trajs):
        steps = np.diff(traj.R)
        if len(steps):
            worst_step = min(worst_step, float(steps.min()))
        cert = radius_certificate(traj, alpha, lam)
        mark = "ok" if cert.valid else ",".join(cert.flags) or "FAIL"
        print("%6d %18s %6d %9.4f %9.4f %6s"
              % (k, traj.stop_reason, len(traj), traj.R[0], traj.R[-1], mark))

    print("worst R step over all nodes: %.3e (>= 0 means monotone)"
          % worst_step)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "flow_portrait.svg")
    with open(path, "w") as fh:
        fh.write(scene_svg(scene, trajectories=trajs))
    print("wrote %s" % os.path.relpath(path))


if __name__ == "__main__":
    main()
