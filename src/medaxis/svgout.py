"""Static SVG renderings of scenes, filtered axes, critical profiles, and
flow trajectories.  Output strings are deterministic functions of the input
data (fixed decimal formatting, fixed element order)."""

from __future__ import annotations

import math

import numpy as np

from .axis import FilteredAxis, VoronoiSkeleton
from .field import CriticalProfile
from .scene import SiteScene

__all__ = ["scene_svg", "profile_svg"]

_SIZE = 640
_MARGIN = 20


def _fmt(v: float) -> str:
    return "%.3f" % v


def _canvas(scale: float, P: np.ndarray) -> np.ndarray:
    """Canvas coordinates (n, 2) of the points in the rows of P (any leading
    shape): y flipped, since SVG grows downward."""
    P = P.reshape(-1, P.shape[-1])
    center = _SIZE / 2
    return np.column_stack([center + scale * P[:, 0], center - scale * P[:, 1]])


def _elements(template: str, coords: np.ndarray, sep: str = "\n") -> str:
    """The template filled from each row of coordinates, by one format."""
    return sep.join([template] * len(coords)) % tuple(coords.ravel().tolist())


def _lines(scale: float, A, B, color: str, width: str) -> str:
    return _elements('<line x1="%%.3f" y1="%%.3f" x2="%%.3f" y2="%%.3f" stroke="%s" '
                     'stroke-width="%s"/>' % (color, width),
                     np.column_stack([_canvas(scale, A), _canvas(scale, B)]))


def _circles(scale: float, C, r_px: float, color: str, fill: str = "none") -> str:
    return _elements('<circle cx="%%.3f" cy="%%.3f" r="%s" stroke="%s" fill="%s" '
                     'stroke-width="1"/>' % (_fmt(r_px), color, fill), _canvas(scale, C))


def _skeleton_lines(scale: float, skeleton: VoronoiSkeleton) -> str:
    ends = skeleton.mid[:, None] + skeleton.s[:, :, None] * skeleton.u[:, None]
    return _lines(scale, ends[:, 0], ends[:, 1], "#bbbbbb", "1")


def _scene_picture(scene: SiteScene, skeleton: VoronoiSkeleton | None):
    """``scene_svg`` of this scene and skeleton as a function of the axis and
    the trajectories.  The layers that depend on the scene and the skeleton
    alone (the header, the wall circle, the skeleton and the sites) are
    formatted here, once for every picture drawn from the function."""
    scale = (_SIZE / 2 - _MARGIN) / scene.bounding_radius
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">\n<rect width="%d" height="%d" fill="white"/>\n'
            % (_SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE)
            + _circles(scale, np.zeros((1, 2)), scale * scene.bounding_radius, "#888888"))
    skeleton_lines = "" if skeleton is None else _skeleton_lines(scale, skeleton)
    tail = _circles(scale, scene.sites, 3.0, "#cc2222", fill="#cc2222") + "\n</svg>\n"

    def draw(axis: FilteredAxis | None, trajectories=None) -> str:
        parts = [head, skeleton_lines]
        if axis is not None:
            V, seg = axis.vertices, axis.segments
            parts.append(_lines(scale, V[seg[:, 0]], V[seg[:, 1]], "#2266cc", "2.5"))
            # a cross per isolated point: its horizontal arm, then its vertical one
            P = axis.isolated_points[:, None]
            arms = (4.0 / scale) * np.eye(2)
            parts.append(_lines(scale, P - arms, P + arms, "#2266cc", "2.5"))
        trajectories = list(trajectories or ())  # read twice below
        if trajectories:
            # each trajectory's polyline, then the circle at its start
            starts = _circles(scale, np.array([traj.points[0] for traj in trajectories]),
                              2.5, "#ee8833", fill="#ee8833").split("\n")
            for traj, start in zip(trajectories, starts):
                parts.append('<polyline points="%s" stroke="#ee8833" fill="none" '
                             'stroke-width="1.5"/>'
                             % _elements("%.3f,%.3f", _canvas(scale, traj.points), " "))
                parts.append(start)
        parts.append(tail)
        return "\n".join(part for part in parts if part)

    return draw


def scene_svg(scene: SiteScene, axis: FilteredAxis | None = None,
              skeleton: VoronoiSkeleton | None = None,
              trajectories=None) -> str:
    """Scene with optional skeleton (gray), filtered axis (blue), isolated
    axis points (blue crosses), and trajectories (orange).  Planar scenes."""
    return _scene_picture(scene, skeleton)(axis, trajectories)


def profile_svg(profile: CriticalProfile, marks: dict | None = None) -> str:
    """Plot of the critical function over its level grid, values in [0, 1].

    ``marks`` maps label -> t value; each gets a dashed vertical line."""
    w, h = 640, 360
    ml, mr, mt, mb = 50, 15, 15, 35
    t0 = float(profile.t_grid[0])
    t1 = float(profile.t_grid[-1])
    span = t1 - t0 if t1 > t0 else 1.0

    def mx(t):
        return ml + (t - t0) / span * (w - ml - mr)

    def my(c):
        return mt + (1.0 - c) * (h - mt - mb)

    parts = ['<rect width="%d" height="%d" fill="white"/>' % (w, h)]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = my(frac)
        parts.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#dddddd"/>'
                     % (_fmt(ml), _fmt(y), _fmt(w - mr), _fmt(y)))
        parts.append('<text x="%s" y="%s" font-size="11" fill="#444444" '
                     'text-anchor="end">%.2f</text>'
                     % (_fmt(ml - 5), _fmt(y + 4), frac))
    coords = " ".join("%s,%s" % (_fmt(mx(t)), _fmt(my(min(max(c, 0.0), 1.0))))
                      for t, c in zip(profile.t_grid, profile.chi))
    parts.append('<polyline points="%s" stroke="#2266cc" fill="none" '
                 'stroke-width="2"/>' % coords)
    if marks:
        for label in sorted(marks):
            t = marks[label]
            if not math.isfinite(t) or not (t0 <= t <= t1):
                continue
            x = mx(t)
            parts.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#cc2222" '
                         'stroke-dasharray="4 3"/>'
                         % (_fmt(x), _fmt(mt), _fmt(x), _fmt(h - mb)))
            parts.append('<text x="%s" y="%s" font-size="11" fill="#cc2222">%s'
                         "</text>" % (_fmt(x + 3), _fmt(mt + 12), label))
    parts.append('<text x="%s" y="%s" font-size="11" fill="#444444">t</text>'
                 % (_fmt(w - mr - 10), _fmt(h - 8)))
    body = "\n".join(parts)
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">\n%s\n</svg>\n' % (w, h, w, h, body))
