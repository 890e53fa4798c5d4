"""Out-of-program tracing of the medaxis modules.

``Tracer.install`` replaces every public function of the traced modules
(each module's ``__all__``; for ``cli``, which has none, its public
functions) with a timing wrapper at every binding that holds it: the
defining module, every medaxis module that imported it by name, the package
namespace and ``cli._COMMANDS``.  Calls between modules therefore pass
through the wrappers too, for example ``field`` -> ``r_batch`` and
``flow`` -> ``smallest_enclosing_ball``.  ``SiteScene`` validation is traced
through its ``__post_init__``.  ``uninstall`` restores every binding, so
traced and untraced passes can alternate in one process.

Spans are kept in memory as (id, name, start, end, parent id) and written
by ``write_spans``.  Work counters are read off call arguments and return
values only; the program is not edited.
"""

import collections
import math
import sys
import time
import types

PACKAGE = "medaxis"
MODULES = ("cli", "experiments", "scene", "field", "axis", "flow", "metrics",
           "svgout")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_seb(c, args, kwargs, result):
    pts = _arg(args, kwargs, 0, "points")
    c["scene.smallest_enclosing_ball.points"] += len(pts)


def _count_r_batch(c, args, kwargs, result):
    c["field.r_batch.rows"] += len(result)


def _count_sampler(c, args, kwargs, result):
    levels = len(result.t_grid)
    c["field.levels"] += levels
    c["field.seeds"] += levels * int(_arg(args, kwargs, 2, "samples_per_level", 4000))
    c["field.on_level"] += int(sum(result.sample_count))


def _count_skeleton(c, args, kwargs, result):
    c["axis.skeleton_edges"] += len(result.edges)


def _count_flow(c, args, kwargs, result):
    c["flow.nodes"] += len(result)
    c["flow.rejected_steps"] += int(result.rejected_steps)


def _count_geodesic(c, args, kwargs, result):
    c["metrics.geodesic_nodes"] += len(result)
    c["metrics.geodesic_coarsened"] += int("resolution-coarsened" in result.flags)


def _count_samples(c, args, kwargs, result):
    c["metrics.sample_points"] += len(result)


def _count_json(c, args, kwargs, result):
    c["axis.axis_to_json.bytes"] += len(result.encode())


def _count_svg(c, args, kwargs, result):
    c["svgout.bytes"] += len(result.encode())


COUNTERS = {
    "scene.smallest_enclosing_ball": _count_seb,
    "field.r_batch": _count_r_batch,
    "field.estimate_critical_function": _count_sampler,
    "axis.build_skeleton": _count_skeleton,
    "flow.integrate_flow": _count_flow,
    "metrics.build_geodesic_graph": _count_geodesic,
    "metrics.sample_axis_points": _count_samples,
    "axis.axis_to_json": _count_json,
    "svgout.scene_svg": _count_svg,
    "svgout.profile_svg": _count_svg,
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(mod, name)
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """Timing wrappers over the medaxis modules plus their span log."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.calls = collections.Counter()
        self.total = collections.Counter()
        self.self_time = collections.Counter()
        self.skeleton_times = collections.defaultdict(list)
        self._stack = []
        self._next_id = 0
        self._patches = []

    def reset(self):
        """Clear the per-pass aggregates; spans and skeleton times are kept."""
        self.counts.clear()
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                self.spans.append((span_id, name, start, end, parent))
                self.calls[name] += 1
                self.total[name] += took
                self.self_time[name] += took - frame[1]
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            if name == "axis.build_skeleton":
                self.skeleton_times[len(result.scene.sites)].append(took)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {k: m for k, m in sys.modules.items()
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))}
        wrappers = {}
        for short in MODULES:
            mod = mods[PACKAGE + "." + short]
            for fname, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(short + "." + fname, fn))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1], setattr)
        commands = mods[PACKAGE + ".cli"]._COMMANDS
        for key, val in list(commands.items()):
            hit = wrappers.get(id(val))
            if hit is not None:
                self._patch(commands, key, hit[1], dict.__setitem__)
        scene_cls = mods[PACKAGE + ".scene"].SiteScene
        self._patch(scene_cls, "__post_init__",
                    self._wrap("scene.SiteScene", scene_cls.__post_init__),
                    setattr)

    def _patch(self, target, key, value, setter):
        getter = dict.__getitem__ if setter is dict.__setitem__ else getattr
        self._patches.append((target, key, getter(target, key), setter))
        setter(target, key, value)

    def uninstall(self):
        while self._patches:
            target, key, old, setter = self._patches.pop()
            setter(target, key, old)

    def growth_exponent(self):
        """Log-log slope of median ``build_skeleton`` time between the two
        largest site counts, or 0.0 unless they differ by at least 2x."""
        sizes = sorted(self.skeleton_times)
        if len(sizes) < 2 or sizes[-1] < 2 * sizes[-2]:
            return 0.0
        lo, hi = sizes[-2], sizes[-1]
        t_lo = sorted(self.skeleton_times[lo])[len(self.skeleton_times[lo]) // 2]
        t_hi = sorted(self.skeleton_times[hi])[len(self.skeleton_times[hi]) // 2]
        return math.log(t_hi / t_lo) / math.log(hi / lo)

    def write_spans(self, path):
        """One tab-separated line per span: id, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for span in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % span)
