"""Filtered medial axes of point-site scenes, with quantitative stability.

The package computes the medial axis of the complement of a finite point
set inside a bounding ball, filtered by the smallest-enclosing-ball radius
of the nearest-site witnesses, and verifies the closed-form stability
bounds that the filtration satisfies: Hausdorff Lipschitz dependence on
the filter parameters, Hausdorff and Gromov-Hausdorff stability under
site perturbation, and gradient-flow certificates.

The public names are those of each module's ``__all__``, bound here to the
modules' own objects.
"""

from . import axis, experiments, field, flow, metrics, scene, svgout
from .scene import *  # noqa: F401,F403
from .field import *  # noqa: F401,F403
from .axis import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .svgout import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for mod in (scene, field, axis, flow, metrics, svgout, experiments)
           for name in mod.__all__]
