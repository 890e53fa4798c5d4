"""Seeded scene and start generators for the benchmark workloads.

Sites are placed one at a time by rejection against a uniform grid whose
cell edge equals the minimum separation, so a candidate is compared only
with the sites in its 3x3 neighbouring cells.  This places thousands of
separated sites, where resampling the whole set at once (the package's
``random_scene``) stops succeeding long before that.

Everything here returns plain arrays; the program sees the scenes only as
config JSON written by the workloads.
"""

import itertools

import numpy as np
from scipy.spatial import cKDTree


class _Grid:
    """Points hashed by grid cell for separation queries."""

    def __init__(self, cell):
        self.cell = float(cell)
        self.offsets = list(itertools.product((-1, 0, 1), repeat=2))
        self.cells = {}

    def _key(self, p):
        return tuple(int(v) for v in np.floor(p / self.cell))

    def clear_of(self, p, sep):
        key = self._key(p)
        for off in self.offsets:
            for q in self.cells.get(tuple(k + o for k, o in zip(key, off)), ()):
                if np.linalg.norm(p - q) <= sep:
                    return False
        return True

    def add(self, p):
        self.cells.setdefault(self._key(p), []).append(p)


def separated_sites(rng, n, radius, min_sep, fixed=(), fixed_sep=None):
    """``n`` uniform planar sites in the disk of radius ``0.85 * radius``,
    each more than ``min_sep`` from every other and more than ``fixed_sep``
    (default ``min_sep``) from the ``fixed`` points, which are not returned.
    """
    fixed_sep = min_sep if fixed_sep is None else fixed_sep
    grid = _Grid(max(min_sep, fixed_sep))
    anchors = _Grid(max(min_sep, fixed_sep))
    for p in fixed:
        anchors.add(np.asarray(p, float))
    out = []
    for _ in range(200 * n + 1000):
        if len(out) == n:
            break
        d = rng.normal(size=2)
        p = d / np.linalg.norm(d) * 0.85 * radius * rng.uniform() ** 0.5
        if grid.clear_of(p, min_sep) and anchors.clear_of(p, fixed_sep):
            grid.add(p)
            out.append(p)
    if len(out) < n:
        raise RuntimeError("placed only %d of %d separated sites" % (len(out), n))
    return np.array(out)


def audit_sites(rng, n):
    """A close pair with a spoiler over its midpoint, plus ``n - 3`` random
    separated sites: the shape of the Lipschitz-sweep acceptance scenes."""
    h = rng.uniform(0.9, 1.1)
    spoiler = rng.uniform(0.30, 0.40)
    ang = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    core = np.array([[-h, 0.0], [h, 0.0], [0.0, spoiler]]) @ rot.T
    rest = separated_sites(rng, n - 3, 10.0, min_sep=2.4, fixed=core,
                           fixed_sep=4.0)
    return np.vstack([core, rest])


def square_wire(rng, per_side, side):
    """A square wire of ``4 * per_side`` sites in a random plane of R^3."""
    u = np.linspace(-1.0, 1.0, per_side, endpoint=False)
    half = side / 2.0
    ring = half * np.concatenate([
        np.stack([u, np.full_like(u, -1.0)], axis=1),
        np.stack([np.full_like(u, 1.0), u], axis=1),
        np.stack([-u, np.full_like(u, 1.0)], axis=1),
        np.stack([np.full_like(u, -1.0), -u], axis=1),
    ])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return ring @ q[:2]


def flow_starts(rng, sites, n, radius, clearance):
    """``n`` uniform starts in the domain, each farther than ``clearance``
    from every site and from the wall."""
    tree = cKDTree(sites)
    out = []
    while len(out) < n:
        d = rng.normal(size=2)
        p = d / np.linalg.norm(d) * 0.95 * radius * np.sqrt(rng.uniform())
        if radius - np.linalg.norm(p) > clearance and tree.query(p)[0] > clearance:
            out.append(p)
    return np.array(out)
