"""Compare intrinsic shapes of the axis before and after a perturbation.

Hausdorff distance only says the two axes overlap as subsets of the
plane.  The stronger statement is metric: walking distances along the
perturbed axis differ from walking distances along the original by a
controlled distortion.  This experiment samples point pairs on both
axes, matches them by nearness, measures the worst geodesic discrepancy,
and prints it next to the three-term ceiling (flow displacement, nearest
point snap, diameter growth).  It also reports the geodesic diameter of
each axis against its own standalone bound.

Fair warning about the ceiling: its growth factor is exponential in a
power of epsilon over alpha, so at any epsilon worth simulating it
overflows to infinity and the distortion comparison holds vacuously.
The printout says so when it happens.  The surjectivity requirement on
the matched samples is checked for real at every epsilon where mu_tilde
is defined, and the geodesic diameter bound wherever it is defined.
"""

import math
import os

import numpy as np

from medaxis import ExperimentConfig, SiteScene, run_gh

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def main():
    scene = SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                      bounding_radius=10.0)
    config = ExperimentConfig(
        scene=scene,
        lambda_grid=(0.5,),
        alpha_grid=(0.25,),
        epsilons=(1e-5, 1e-4, 1e-3),
        t_count=30,
        samples_per_level=600,
        seed=9,
        sample_pairs=64,
        out_dir=os.path.join(OUT, "gh"),
    )
    report = run_gh(config)

    for row in report.rows:
        c = row["constants"]
        print("epsilon %.1e" % row["epsilon"])
        print("  geodesic distortion %12.6f  <= ceiling %.6g" %
              (row["gh_distortion"], c["gh_bound"]))
        print("  ceiling terms: flow %.3g, nearest-point %.3g, diameter %.3g"
              % (c["gh_term_flow"], c["gh_term_near"], c["gh_term_diam"]))
        print("  geodesic diameter %.4f (bound %.6g)"
              % (row["gdiam"], c["gdiam_bound"]))
        failed = sorted(k for k, v in row["hypothesis_flags"].items() if not v)
        if failed:
            print("  hypotheses not met: %s" % ", ".join(failed))
        if math.isinf(c["gh_bound"]):
            print("  ceiling is infinite at this epsilon (the exponential"
                  " growth factor overflows), so the distortion comparison"
                  " is vacuous; the surjectivity check at radius %.4g is"
                  " still real." % row["radius"])
    print("all checks passed: %s" % report.passed)
    print("reports under %s" % os.path.relpath(config.out_dir))


if __name__ == "__main__":
    main()
