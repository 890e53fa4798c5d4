"""Discrete gradient flow of the distance field.

The flow follows x' = grad(x), where grad is the distance gradient
(x - center)/R with center the midpoint of the smallest ball enclosing the
witnesses.  The witness set is widened by a band on the scale of the step,
since a discrete iterate rides a sheet only up to step-size accuracy; the
exact tie band would report a single witness almost everywhere and hide the
sheet.  Steps steer by that band-widened ball, and a step is accepted if and
only if R does not decrease; a rejected step is halved.  Between medial
sheets the witness is unique and the step is a straight radial segment, so
the distance to that witness grows by exactly the step length.

Node diagnostics (F, F_alpha, gradient norm) use the same band-widened
witnesses.  The gradient norm is sqrt(1 - (F/R)^2), clamped at zero.

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

from .field import _check_real, _f_alpha, _grad_norm
from .scene import DomainError, SiteScene, _dot, _nearest, _Nearest, _row_norms

__all__ = [
    "Trajectory",
    "integrate_flows",
    "RadiusCertificate",
    "radius_certificate",
    "PushedPath",
    "push_path",
    "ExpansionReport",
    "flow_expansion_check",
]

_NODE_CAP = 100000
_STALL_FRACTION = 1e-12
# Tolerance of the radius certificate's residuals, per squared bounding radius.
_CERT_TOL = 1e-6
# The stop reason of each stop code, in the order the stops are tested.
_REASONS = ("entered-axis", "time-exhausted", "node-cap", "stalled",
            "time-exhausted", "stalled")


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


def _accept(node: _Probe, trial: _Probe) -> np.ndarray:
    """Rows whose trial is accepted: R must not decrease (a trial outside
    the domain has R <= 0)."""
    return trial.R >= node.R


def _pairs(scene: SiteScene, probe: _Probe, rows: np.ndarray) -> np.ndarray:
    """The two wide witnesses of each of ``rows``, which have two, shaped
    (len(rows), 2, d) in label order: a site, then a later site or the
    row's wall projection."""
    cols = probe.wide[rows].nonzero()[1].reshape(-1, 2)
    return _Nearest(scene, *probe[:5]).witnesses(rows, cols)


def _steer(probe: _Probe):
    """Steering direction (x - center)/R of each row of a probe, by its
    band-widened witness ball, and its norm."""
    grad = (probe.X - probe.centers) / probe.R[:, None]
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


def integrate_flows(scene: SiteScene, X0, alpha: float | None = None,
                    horizon: float = 1.0, lam: float | None = None,
                    max_step: float | None = None) -> list[Trajectory]:
    """Integrate the distance gradient flow from each row of X0 up to the
    time horizon, all rows in lockstep.  With ``lam`` (which needs
    ``alpha``), a row also stops once its node's F_alpha reaches lam.

    Each step steers by the band-widened witness ball, with the band equal
    to ``max_step``, and is accepted if and only if R does not decrease.
    Rejected steps are halved; exhaustion of step size is reported as
    "stalled".

    Every running row makes one attempt per tick, so a tick is one kernel
    query, plus one for the rows whose trial snaps to a tie.  A row's
    trajectory does not depend on the other rows of the batch.
    """
    _check_real("horizon", horizon, positive=False)
    if alpha is not None:
        _check_real("alpha", alpha, positive=False)
    if lam is not None:
        _check_real("lam", lam)
        if alpha is None:
            raise ValueError("lam needs alpha")
    if max_step is None:
        max_step = scene.bounding_radius / 500.0
    else:
        _check_real("max_step", max_step)
    try:
        X = np.array(X0, float)
    except ValueError as err:
        raise DomainError("starts must be points of the scene's dimension") from err
    if len(X) == 0:
        return []
    if X.ndim != 2 or X.shape[1] != scene.dim:
        raise DomainError("query point has wrong dimension")
    stall_floor = _STALL_FRACTION * scene.bounding_radius

    node = _probe(scene, X, max_step)
    if not (node.R > 0.0).all():
        _nearest(scene, X).check()
    node = _with_balls(scene, node)
    grad, gnorm = _steer(node)
    n = len(X)
    live = np.arange(n)  # batch row of each running row
    t, arc, rejected = np.zeros(n), np.zeros(n), np.zeros(n, int)
    done_nodes, done_rejected, done_reason = (np.zeros(n, int) for _ in range(3))
    acc = np.ones(n, bool)  # rows that reached a new node this tick
    moved = True            # acc.all()
    log = []
    while True:
        # Every row has run since the first tick, so a row's node count is
        # the tick count less its rejected steps.  A row that did not move
        # tests its node again, which passed, so only its step can end it.
        log.append((live, acc, t, arc, node.X, node.R, node.F, node.count))
        remaining = horizon - t
        fresh = np.minimum(max_step, remaining)
        dt = fresh if moved else np.where(acc, fresh, 0.5 * dt)
        # The stops, in the order of ``_REASONS``; a row ends on the first
        # that holds.  t >= horizon implies remaining <= stall_floor, so it
        # is tested only on ticks where some row ends; remaining within the
        # floor, by rounding, is not a stall.  A step below the floor is a
        # stall, and so is a max_step below it, at the first node.
        entered = capped = False
        flat, spent, stalled = gnorm == 0.0, remaining <= stall_floor, dt < stall_floor
        ends = flat | spent | stalled
        if lam is not None:
            entered = _f_alpha(node.R, node.F, alpha) >= lam
            ends |= entered
        if len(log) >= _NODE_CAP:
            capped = len(log) - rejected >= _NODE_CAP
            ends |= capped
        if ends.any():
            code = np.where(stalled, 5, -1)
            for k, stop in ((4, spent), (3, flat), (2, capped), (1, t >= horizon),
                            (0, entered)):
                code = np.where(stop, k, code)
            done = live[ends]
            done_reason[done], done_rejected[done] = code[ends], rejected[ends]
            done_nodes[done] = len(log) - rejected[ends]
            go = ~ends
            if not go.any():
                break
            live, t, arc, dt, remaining, grad, gnorm, rejected = (
                a[go] for a in (live, t, arc, dt, remaining, grad, gnorm, rejected))
            node = _Probe(*(a[go] for a in node))

        trial = _probe(scene, node.X + dt[:, None] * grad, max_step, node.wide)
        two = (trial.count == 2).nonzero()[0]
        if two.size:
            two = two[trial.R[two] > 0.0]
            # A kept witness lies up to twice the band (the step size) out,
            # so the in-band offset can exceed the step; the cap allows both.
            moves, Y = _snap_to_tie(trial.X[two], _pairs(scene, trial, two),
                                    cap=dt[two] + 2.0 * max_step)
            rows = two[moves]
            if rows.size == len(live):
                trial = _probe(scene, Y, max_step, node.wide)
            elif rows.size:
                again = _probe(scene, Y[moves], max_step, node.wide[rows])
                for mine, theirs in zip(trial[:7], again[:7]):
                    mine[rows] = theirs
        trial = _with_balls(scene, trial)
        acc = _accept(node, trial)
        moved = acc.all()
        if moved:
            arc = arc + dt * gnorm
            t = np.where(dt == remaining, horizon, t + dt)
            node = trial
            grad, gnorm = _steer(trial)
            continue
        rejected += ~acc
        arc = np.where(acc, arc + dt * gnorm, arc)
        t = np.where(acc, np.where(dt == remaining, horizon, t + dt), t)
        pick = acc.nonzero()[0]
        if pick.size:
            grad[pick], gnorm[pick] = _steer(_Probe(*(a[pick] for a in trial)))
            node = _Probe(*(np.where(acc[:, None] if b.ndim > 1 else acc, a, b)
                            for a, b in zip(trial, node)))

    rows, acc, *cols = (np.concatenate(c) for c in zip(*log))
    order = acc.nonzero()[0][np.argsort(rows[acc], kind="stable")]
    times, arcs, points, R, F, counts = (c[order] for c in cols)
    fa = np.full(len(R), np.nan) if alpha is None else _f_alpha(R, F, alpha)
    gn = _grad_norm(F, R)
    bounds = np.cumsum(done_nodes).tolist()
    return [Trajectory(scene=scene, alpha=alpha, times=times[a:b], arc=arcs[a:b],
                       points=points[a:b], R=R[a:b], F=F[a:b], F_alpha=fa[a:b],
                       grad_norm=gn[a:b], witness_counts=counts[a:b],
                       stop_reason=_REASONS[code], max_step=max_step,
                       rejected_steps=k)
            for a, b, code, k in zip([0] + bounds[:-1], bounds,
                                     done_reason.tolist(), done_rejected.tolist())]


# --- certified radius growth ---------------------------------------------

@dataclass(frozen=True)
class RadiusCertificate:
    alpha: float
    lam: float
    s0: float
    residuals: np.ndarray
    first_inside: int | None
    valid: bool
    flags: tuple


def radius_certificate(traj: Trajectory, alpha: float, lam: float) -> RadiusCertificate:
    """Check the certified radius growth along a trajectory.

    While the trajectory stays below the axis threshold (F_alpha < lam), the
    quantity sqrt((R - alpha)^2 - lam^2) must grow at least at unit rate in
    arc length:

        (R_i - alpha)^2 - (s0 + arc_i)^2 - lam^2 >= 0,
        s0 = sqrt((R_0 - alpha)^2 - lam^2).

    Nodes from the first one at or above the threshold onward are exempt.
    The certificate only applies when the start satisfies R_0 >= alpha + lam.
    """
    _check_real("alpha", alpha, positive=False)
    _check_real("lam", lam)
    flags = []
    r0 = float(traj.R[0])
    gap0 = r0 - alpha
    if r0 <= alpha or gap0 < lam:
        return RadiusCertificate(alpha=alpha, lam=lam, s0=float("nan"),
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
    tol = _CERT_TOL * traj.scene.bounding_radius ** 2
    valid = bool((checked >= -tol).all()) if n_checked else True
    if first_inside is None:
        flags.append("never-entered-axis")
    return RadiusCertificate(alpha=alpha, lam=lam, s0=s0, residuals=residuals,
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
              subdiv: int = 64) -> PushedPath:
    """Push a path up the flow: flow the first endpoint for time T, traverse
    the time-T image of the path, then flow back down from the last endpoint.

    The concatenation connects the original endpoints through flowed
    territory; its length satisfies

        L_pushed <= 2 T + L_base * exp(T / alpha)

    because each endpoint trajectory has length at most T and the flow
    expands mutual distances by at most exp(T / alpha).
    """
    _check_real("alpha", alpha)
    base = np.asarray(base_path, float)
    if base.ndim != 2 or len(base) < 2:
        raise ValueError("base path needs at least two vertices")
    l_base = _polyline_length(base)
    verts = _resample(base, subdiv)

    trajs = integrate_flows(scene, verts, alpha=alpha, horizon=T)
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


def flow_expansion_check(scene: SiteScene, x1, x2, alpha: float,
                         T: float) -> ExpansionReport:
    """Flow two points for time T and compare their separation against the
    exponential expansion bound d0 * exp(T / alpha)."""
    _check_real("alpha", alpha)
    t1, t2 = integrate_flows(scene, [x1, x2], alpha=alpha, horizon=T)
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
