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


class _Canvas:
    def __init__(self, scale: float, center: float):
        self.scale = scale
        self.center = center
        self.parts = []

    def map(self, p) -> tuple:
        # y flipped: SVG grows downward
        return (self.center + self.scale * p[0], self.center - self.scale * p[1])

    def line(self, a, b, color, width, dash=None):
        xa, ya = self.map(a)
        xb, yb = self.map(b)
        extra = ' stroke-dasharray="%s"' % dash if dash else ""
        self.parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>'
            % (_fmt(xa), _fmt(ya), _fmt(xb), _fmt(yb), color, width, extra))

    def circle(self, c, r_px, color, fill="none", width="1"):
        x, y = self.map(c)
        self.parts.append(
            '<circle cx="%s" cy="%s" r="%s" stroke="%s" fill="%s" stroke-width="%s"/>'
            % (_fmt(x), _fmt(y), _fmt(r_px), color, fill, width))

    def polyline(self, pts, color, width):
        coords = " ".join("%s,%s" % tuple(map(_fmt, self.map(p))) for p in pts)
        self.parts.append(
            '<polyline points="%s" stroke="%s" fill="none" stroke-width="%s"/>'
            % (coords, color, width))


def scene_svg(scene: SiteScene, axis: FilteredAxis | None = None,
              skeleton: VoronoiSkeleton | None = None,
              trajectories=None) -> str:
    """Scene with optional skeleton (gray), filtered axis (blue), isolated
    axis points (blue crosses), and trajectories (orange).  Planar scenes."""
    scale = (_SIZE / 2 - _MARGIN) / scene.bounding_radius
    cv = _Canvas(scale, _SIZE / 2)
    cv.circle(np.zeros(2), scale * scene.bounding_radius, "#888888")

    if skeleton is not None:
        for e in skeleton.edges:
            cv.line(e.mid + e.s0 * e.u, e.mid + e.s1 * e.u, "#bbbbbb", "1")
    if axis is not None:
        for a, b in axis.segments:
            cv.line(axis.vertices[a], axis.vertices[b], "#2266cc", "2.5")
        arm = 4.0 / scale
        for p in axis.isolated_points:
            cv.line(p - (arm, 0.0), p + (arm, 0.0), "#2266cc", "2.5")
            cv.line(p - (0.0, arm), p + (0.0, arm), "#2266cc", "2.5")
    if trajectories is not None:
        for traj in trajectories:
            cv.polyline(traj.points, "#ee8833", "1.5")
            cv.circle(traj.points[0], 2.5, "#ee8833", fill="#ee8833")
    for site in scene.sites:
        cv.circle(site, 3.0, "#cc2222", fill="#cc2222")

    body = "\n".join(cv.parts)
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">\n<rect width="%d" height="%d" fill="white"/>\n'
            "%s\n</svg>\n" % (_SIZE, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE, body))


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
