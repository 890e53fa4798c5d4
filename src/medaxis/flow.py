"""Discrete gradient flow of the distance field.

The flow follows x' = grad(x), where grad is the distance gradient
(x - center)/R with center the midpoint of the smallest ball enclosing the
nearest witnesses.  Steps use the exact witness set: between medial sheets
the witness is unique and the step is a straight radial segment, so the
distance to that witness grows by exactly the step length.  Crossing a
sheet flips the witness and the iterate zigzags along it; the zigzag is
self-stabilizing because every accepted step must keep R non-decreasing
exactly.

Node diagnostics (F, F_alpha, gradient norm) are evaluated with a widened
witness band on the scale of the step, since a discrete iterate rides a
sheet only up to step-size accuracy; the exact tie band would report a
single witness almost everywhere and hide the sheet.  The band-widened
gradient norm is sqrt(1 - (F/R)^2), clamped at zero.

A step that cannot be accepted at any size down to 1e-12 of the bounding
radius terminates the trajectory with status "stalled"; this is the normal
outcome at a local maximum of R, where every direction decreases R.

``integrate_flows`` integrates all starts of a call in lockstep, one step
attempt per start and tick, with array operations over the rows; each row
follows the same steps as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scene import DomainError, SiteScene, _dot, _nearest, _Nearest, _row_norms

__all__ = [
    "StopCondition",
    "time_exhausted",
    "entered_axis",
    "gradient_below",
    "Trajectory",
    "integrate_flows",
    "integrate_flow",
    "RadiusCertificate",
    "radius_certificate",
    "PushedPath",
    "push_path",
    "ExpansionReport",
    "flow_expansion_check",
]

_NODE_CAP = 100000
_STALL_FRACTION = 1e-12
_F_BACKSLIDE_TOL = 1e-7


@dataclass(frozen=True)
class StopCondition:
    kind: str
    lam: float = float("nan")
    alpha: float | None = None
    eta: float = float("nan")


def time_exhausted() -> StopCondition:
    """Run until the horizon; no early exit."""
    return StopCondition(kind="time")


def entered_axis(lam: float, alpha: float) -> StopCondition:
    """Stop once the node's F_alpha value reaches lam."""
    return StopCondition(kind="axis", lam=float(lam), alpha=float(alpha))


def gradient_below(eta: float) -> StopCondition:
    """Stop once the band-widened gradient norm drops below eta."""
    return StopCondition(kind="gradient", eta=float(eta))


@dataclass(frozen=True)
class Trajectory:
    scene: SiteScene
    alpha: float | None
    times: np.ndarray
    arc: np.ndarray
    points: np.ndarray
    R: np.ndarray
    F: np.ndarray
    F_alpha: np.ndarray
    grad_norm: np.ndarray
    witness_counts: np.ndarray
    stop_reason: str
    flow_band: float
    max_step: float
    rejected_steps: int

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.times)


class _Probe(NamedTuple):
    """A kernel query of the flow at n rows: the distance kernel's arrays,
    in ``_Nearest``'s order, then the band-widened witnesses and, once
    ``_with_balls`` has run, their balls."""

    X: np.ndarray        # (n, d) query rows
    norm: np.ndarray     # (n,) |x|
    d_sites: np.ndarray  # (n, m) site distances
    d_wall: np.ndarray   # (n,) wall distances
    R: np.ndarray        # (n,) distance to the scene set
    wide: np.ndarray     # (n, m + 1) witnesses within the band cut, wall last
    count: np.ndarray    # (n,) number of wide witnesses
    centers: np.ndarray | None = None  # (n, d) wide witness ball centers
    F: np.ndarray | None = None        # (n,) wide witness ball radii


def _probe(scene: SiteScene, X: np.ndarray, band: float,
           keep: np.ndarray | None = None) -> _Probe:
    """Query the rows of X.  The wide set is the band cut with the previous
    node's wide set as its hysteresis keep-set, so a witness hovering at the
    cut does not flicker in and out between nodes."""
    near = _nearest(scene, X)
    wide = near.cut(band, keep)
    return _Probe(*near[1:], wide, wide.sum(axis=1))


def _with_balls(scene: SiteScene, probe: _Probe) -> _Probe:
    """The probe with its wide witness balls."""
    return _Probe(*probe[:7], *_Nearest(scene, *probe[:5]).balls(probe.wide))


def _ties(scene: SiteScene, probe: _Probe, rows: np.ndarray) -> np.ndarray:
    """Witness mask of the exact witnesses (the relative tie band) of
    ``rows``."""
    return _Nearest(scene, *(a[rows] for a in probe[:5])).cut()


def _accept(scene: SiteScene, node: _Probe, trial: _Probe) -> np.ndarray:
    """Rows whose trial is accepted: R must not decrease (a trial outside
    the domain has R <= 0), and a drop of F by more than a hair rejects the
    trial only where the exact witnesses changed."""
    acc = trial.R >= node.R
    drop = trial.F < node.F - _F_BACKSLIDE_TOL
    if drop.any():
        r = drop.nonzero()[0]
        acc[r] &= ~(_ties(scene, trial, r) != _ties(scene, node, r)).any(axis=1)
    return acc


def _pairs(scene: SiteScene, probe: _Probe, rows: np.ndarray) -> np.ndarray:
    """The two wide witnesses of each of ``rows``, which have two, shaped
    (len(rows), 2, d) in label order: a site, then a later site or the
    row's wall projection."""
    cols = probe.wide[rows].nonzero()[1].reshape(-1, 2)
    return _Nearest(scene, *probe[:5]).witnesses(rows, cols)


def _steer(scene: SiteScene, probe: _Probe):
    """Steering direction and its norm at each row of a probe.

    Steering by the band-widened ball center instead of the razor-thin
    exact tie set lets a trajectory slide along a bisector smoothly rather
    than chattering across it with rejected micro-steps; the step-acceptance
    rule still enforces hard radius monotonicity.
    """
    grad = (probe.X - probe.centers) / probe.R[:, None]
    two = (probe.count == 2).nonzero()[0]
    if two.size:
        # Pure slide direction: remove the component along the witness
        # pair, which only measures the (band-sized) offset from the
        # bisector and would otherwise feed back into outward drift.
        pts = _pairs(scene, probe, two)
        n = pts[:, 1] - pts[:, 0]
        n /= _row_norms(n)[:, None]
        g = grad[two]
        grad[two] = g - _dot(g, n)[:, None] * n
    return grad, _row_norms(grad)


def _snap_to_tie(Y: np.ndarray, pts: np.ndarray, cap: np.ndarray):
    """One Newton step of each row of Y toward the equal-distance locus of
    its pair of points (shaped (n, 2, d)).

    Keeps a sliding trajectory centered in its band so the reported witness
    pair does not flicker at the band edge.  A row moves only if its
    displacement is within its cap, so the correction can never dominate an
    accepted step.  Returns the moving rows' mask and the stepped rows.
    """
    D = Y[:, None] - pts
    d = _row_norms(D)
    U = D / d[..., None]
    dg = U[:, 0] - U[:, 1]
    nrm2 = _dot(dg, dg)
    moves = nrm2 > 0.0
    step = ((d[:, 1] - d[:, 0]) / np.where(moves, nrm2, 1.0))[:, None] * dg
    return moves & (_row_norms(step) <= cap), Y + step


def _f_alpha(R: np.ndarray, F: np.ndarray, alpha: float | None) -> np.ndarray:
    """F_alpha of nodes: (R - alpha)/R F, NaN where R <= alpha or alpha is
    None."""
    if alpha is None:
        return np.full(len(R), np.nan)
    return np.where(R > alpha, (R - alpha) / R * F, np.nan)


def _grad_norm(R: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Band-widened gradient norm of nodes, sqrt(1 - (F/R)^2) clamped at
    zero; float_power is libm pow, as is Python's float ** 2."""
    return np.sqrt(np.maximum(0.0, 1.0 - np.float_power(F / R, 2.0)))


def integrate_flows(scene: SiteScene, X0, alpha: float | None = None,
                    horizon: float = 1.0, stop: StopCondition | None = None,
                    max_step: float | None = None,
                    flow_band: float | None = None) -> list[Trajectory]:
    """Integrate the distance gradient flow from each row of X0 up to the
    time horizon, all rows in lockstep.

    Acceptance rule per step: R must not decrease, and if the witness set
    changes the band-widened F must not drop by more than a hair.  Rejected
    steps are halved; exhaustion of step size is reported as "stalled".

    Every running row makes one attempt per tick, so a tick is one kernel
    query, plus one for the rows whose trial snaps to a tie.  A row's
    trajectory does not depend on the other rows of the batch.
    """
    if not 0.0 <= horizon < math.inf:
        raise ValueError("horizon must be finite and nonnegative")
    if stop is not None and stop.alpha is not None:
        if alpha is None:
            alpha = stop.alpha
        elif alpha != stop.alpha:
            raise ValueError("alpha differs between flow and stop condition")
    if max_step is None:
        max_step = scene.bounding_radius / 500.0
    if flow_band is None:
        flow_band = max_step
    if not flow_band >= 0.0:
        raise ValueError("flow_band must be nonnegative")
    try:
        X = np.array(X0, float)
    except ValueError as err:
        raise DomainError("starts must be points of the scene's dimension") from err
    if len(X) == 0:
        return []
    if X.ndim != 2 or X.shape[1] != scene.dim:
        raise DomainError("query point has wrong dimension")
    kind = None if stop is None else stop.kind
    stall_floor = _STALL_FRACTION * scene.bounding_radius

    node = _probe(scene, X, flow_band)
    if not (node.R > 0.0).all():
        _nearest(scene, X).check()
    node = _with_balls(scene, node)
    grad, gnorm = _steer(scene, node)
    n = len(X)
    live = np.arange(n)  # batch row of each running row
    t, arc, rejected = np.zeros(n), np.zeros(n), np.zeros(n, int)
    done_nodes, done_rejected, done_reason = (np.zeros(n, int) for _ in range(3))
    acc = np.ones(n, bool)  # rows that reached a new node this tick
    moved = True            # acc.all()
    stalled = False         # rejected rows whose halved step is below the floor
    log = []
    while True:
        # Every row has run since the first tick, so a row's node count is
        # the tick count less its rejected steps.  A row that did not move
        # tests its node again, which passed, so only its step can end it.
        log.append((live, acc, t, arc, node.X, node.R, node.F, node.count))
        remaining = horizon - t
        fresh = np.minimum(max_step, remaining)
        if moved:
            dt = fresh
        else:
            dt = np.where(acc, fresh, 0.5 * dt)
            stalled = ~acc & (dt < stall_floor)
        # Stop tests, in order; their codes index ``reasons`` below.
        # remaining <= stall_floor, within rounding of the horizon, is
        # implied by t >= horizon and is not a stall; a max_step below the
        # floor stalls every row at its first node.
        tests = [False, False, None, False, gnorm == 0.0,
                 remaining <= stall_floor, max_step < stall_floor]
        ends = tests[4] | tests[5]
        if not moved:
            ends |= stalled
        if kind == "axis":
            tests[0] = _f_alpha(node.R, node.F, alpha) >= stop.lam
            ends |= tests[0]
        elif kind == "gradient":
            tests[1] = _grad_norm(node.R, node.F) < stop.eta
            ends |= tests[1]
        if len(log) >= _NODE_CAP:
            tests[3] = len(log) - rejected >= _NODE_CAP
            ends |= tests[3]
        if tests[6] or ends.any():
            tests[2] = t >= horizon
            code = np.where(stalled, 4, -1)
            for k in range(6, -1, -1):
                code = np.where(tests[k], k, code)
            ends = code >= 0
            done = live[ends]
            done_reason[done], done_rejected[done] = code[ends], rejected[ends]
            done_nodes[done] = len(log) - rejected[ends]
            go = ~ends
            if not go.any():
                break
            live, t, arc, dt, remaining, grad, gnorm, rejected = (
                a[go] for a in (live, t, arc, dt, remaining, grad, gnorm, rejected))
            node = _Probe(*(a[go] for a in node))

        trial = _probe(scene, node.X + dt[:, None] * grad, flow_band, node.wide)
        two = (trial.count == 2).nonzero()[0]
        if two.size:
            two = two[trial.R[two] > 0.0]
            # The in-band offset can slightly exceed the step size when band
            # and step are comparable, so the cap allows for both scales.
            moves, Y = _snap_to_tie(trial.X[two], _pairs(scene, trial, two),
                                    cap=dt[two] + 2.0 * flow_band)
            rows = two[moves]
            if rows.size == len(live):
                trial = _probe(scene, Y, flow_band, node.wide)
            elif rows.size:
                again = _probe(scene, Y[moves], flow_band, node.wide[rows])
                for mine, theirs in zip(trial[:7], again[:7]):
                    mine[rows] = theirs
        trial = _with_balls(scene, trial)
        acc = _accept(scene, node, trial)
        moved = acc.all()
        if moved:
            arc = arc + dt * gnorm
            t = np.where(dt == remaining, horizon, t + dt)
            node = trial
            grad, gnorm = _steer(scene, trial)
            stalled = False
            continue
        rejected += ~acc
        arc = np.where(acc, arc + dt * gnorm, arc)
        t = np.where(acc, np.where(dt == remaining, horizon, t + dt), t)
        pick = acc.nonzero()[0]
        if pick.size:
            grad[pick], gnorm[pick] = _steer(scene, _Probe(*(a[pick] for a in trial)))
            node = _Probe(*(np.where(acc[:, None] if b.ndim > 1 else acc, a, b)
                            for a, b in zip(trial, node)))

    reasons = ("entered-axis", "gradient-below", "time-exhausted", "node-cap",
               "stalled", "time-exhausted", "stalled")
    rows, acc, *cols = (np.concatenate(c) for c in zip(*log))
    order = acc.nonzero()[0][np.argsort(rows[acc], kind="stable")]
    times, arcs, points, R, F, counts = (c[order] for c in cols)
    fa, gn = _f_alpha(R, F, alpha), _grad_norm(R, F)
    bounds = np.cumsum(done_nodes).tolist()
    return [Trajectory(scene=scene, alpha=alpha, times=times[a:b], arc=arcs[a:b],
                       points=points[a:b], R=R[a:b], F=F[a:b], F_alpha=fa[a:b],
                       grad_norm=gn[a:b], witness_counts=counts[a:b],
                       stop_reason=reasons[code], flow_band=flow_band,
                       max_step=max_step, rejected_steps=k)
            for a, b, code, k in zip([0] + bounds[:-1], bounds,
                                     done_reason.tolist(), done_rejected.tolist())]


def integrate_flow(scene: SiteScene, x0, alpha: float | None = None,
                   horizon: float = 1.0, stop: StopCondition | None = None,
                   max_step: float | None = None,
                   flow_band: float | None = None) -> Trajectory:
    """Integrate the distance gradient flow from x0 up to the time horizon:
    ``integrate_flows`` over a batch of one start."""
    return integrate_flows(scene, [x0], alpha, horizon, stop, max_step,
                           flow_band)[0]


# --- certified radius growth ---------------------------------------------

@dataclass(frozen=True)
class RadiusCertificate:
    alpha: float
    lam: float
    s0: float
    node_arc: np.ndarray
    residuals: np.ndarray
    first_inside: int | None
    valid: bool
    flags: tuple


def radius_certificate(traj: Trajectory, alpha: float, lam: float,
                       tol: float | None = None) -> RadiusCertificate:
    """Check the certified radius growth along a trajectory.

    While the trajectory stays below the axis threshold (F_alpha < lam), the
    quantity sqrt((R - alpha)^2 - lam^2) must grow at least at unit rate in
    arc length:

        (R_i - alpha)^2 - (s0 + arc_i)^2 - lam^2 >= 0,
        s0 = sqrt((R_0 - alpha)^2 - lam^2).

    Nodes from the first one at or above the threshold onward are exempt.
    The certificate only applies when the start satisfies R_0 >= alpha + lam.
    """
    if tol is None:
        tol = 1e-6 * traj.scene.bounding_radius ** 2
    flags = []
    r0 = float(traj.R[0])
    gap0 = r0 - alpha
    if r0 <= alpha or gap0 < lam:
        return RadiusCertificate(alpha=alpha, lam=lam, s0=float("nan"),
                                 node_arc=traj.arc.copy(),
                                 residuals=np.full(len(traj.R), float("nan")),
                                 first_inside=None, valid=False,
                                 flags=("start-inside-offset" if r0 <= alpha
                                        else "start-below-certificate-radius",))
    s0 = math.sqrt(gap0 * gap0 - lam * lam)

    inside = _f_alpha(traj.R, traj.F, alpha) >= lam
    first_inside = int(np.argmax(inside)) if bool(inside.any()) else None
    n_checked = first_inside if first_inside is not None else len(traj.R)

    residuals = (traj.R - alpha) ** 2 - (s0 + traj.arc) ** 2 - lam ** 2
    checked = residuals[:n_checked]
    valid = bool((checked >= -tol).all()) if n_checked else True
    if first_inside is None:
        flags.append("never-entered-axis")
    return RadiusCertificate(alpha=alpha, lam=lam, s0=s0,
                             node_arc=traj.arc.copy(), residuals=residuals,
                             first_inside=first_inside, valid=valid,
                             flags=tuple(flags))


# --- pushing a path up the flow ------------------------------------------

def _polyline_length(points: np.ndarray) -> float:
    if len(points) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def _resample(base: np.ndarray, n: int) -> np.ndarray:
    seg = np.linalg.norm(np.diff(base, axis=0), axis=1)
    keep = np.concatenate([[True], seg > 0.0])
    base = base[keep]
    if len(base) == 1:
        return np.repeat(base, n + 1, axis=0)
    seg = np.linalg.norm(np.diff(base, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    params = np.linspace(0.0, cum[-1], n + 1)
    out = np.empty((n + 1, base.shape[1]))
    for k in range(base.shape[1]):
        out[:, k] = np.interp(params, cum, base[:, k])
    return out


@dataclass(frozen=True)
class PushedPath:
    pieces: tuple
    L_base: float
    L_pushed: float
    T: float
    alpha: float
    bound: float
    flags: tuple


def push_path(scene: SiteScene, base_path, T: float, alpha: float,
              subdiv: int = 64, max_step: float | None = None) -> PushedPath:
    """Push a path up the flow: flow the first endpoint for time T, traverse
    the time-T image of the path, then flow back down from the last endpoint.

    The concatenation connects the original endpoints through flowed
    territory; its length satisfies

        L_pushed <= 2 T + L_base * exp(T / alpha)

    because each endpoint trajectory has length at most T and the flow
    expands mutual distances by at most exp(T / alpha).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    base = np.asarray(base_path, float)
    if base.ndim != 2 or len(base) < 2:
        raise ValueError("base path needs at least two vertices")
    l_base = _polyline_length(base)
    verts = _resample(base, subdiv)

    trajs = integrate_flows(scene, verts, alpha=alpha, horizon=T,
                            stop=time_exhausted(), max_step=max_step)
    flags = {"flow-" + tr.stop_reason for tr in trajs
             if tr.stop_reason != "time-exhausted"}
    piece_up = trajs[0].points
    piece_top = np.array([tr.end for tr in trajs])
    piece_down = trajs[-1].points[::-1]
    l_pushed = (_polyline_length(piece_up) + _polyline_length(piece_top)
                + _polyline_length(piece_down))
    bound = 2.0 * T + l_base * math.exp(T / alpha)
    return PushedPath(pieces=(piece_up, piece_top, piece_down),
                      L_base=l_base, L_pushed=l_pushed, T=float(T),
                      alpha=float(alpha), bound=bound, flags=tuple(sorted(flags)))


@dataclass(frozen=True)
class ExpansionReport:
    d0: float
    dT: float
    bound: float
    ratio: float
    ok: bool
    flags: tuple


def flow_expansion_check(scene: SiteScene, x1, x2, alpha: float, T: float,
                         max_step: float | None = None) -> ExpansionReport:
    """Flow two points for time T and compare their separation against the
    exponential expansion bound d0 * exp(T / alpha)."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    t1, t2 = integrate_flows(scene, [x1, x2], alpha=alpha, horizon=T,
                             stop=time_exhausted(), max_step=max_step)
    flags = set()
    for tr in (t1, t2):
        if tr.stop_reason != "time-exhausted":
            flags.add("flow-" + tr.stop_reason)
        if float(tr.R.min()) <= alpha:
            flags.add("offset-domain-violated")
    d0 = float(np.linalg.norm(np.asarray(x1, float) - np.asarray(x2, float)))
    d_end = float(np.linalg.norm(t1.end - t2.end))
    bound = d0 * math.exp(T / alpha)
    ratio = d_end / d0 if d0 > 0.0 else float("inf")
    ok = d_end <= bound * (1.0 + 1e-9) + 1e-12
    return ExpansionReport(d0=d0, dT=d_end, bound=bound, ratio=ratio,
                           ok=ok, flags=tuple(sorted(flags)))
