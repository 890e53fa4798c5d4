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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import DomainError, SiteScene, _seb_stack, nearest_site_info

__all__ = [
    "StopCondition",
    "time_exhausted",
    "entered_axis",
    "gradient_below",
    "Trajectory",
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


def _probe(scene: SiteScene, x: np.ndarray, band: float,
           prev_wide: frozenset = frozenset()):
    """One kernel query: exact witness data plus band-widened sheet data.

    The wide set is the band cut with the previous node's wide set as its
    hysteresis keep-set, so a witness hovering at the cut does not flicker
    in and out between nodes.  Returns (dmin, exact ids, steering
    direction, wide F, wide witness count, wide id set, wide witness
    points).
    """
    dmin, labels, pts_w, ids = nearest_site_info(scene, x, band, keep=prev_wide)
    # Steering by the band-widened ball center instead of the razor-thin
    # exact tie set lets a trajectory slide along a bisector smoothly
    # rather than chattering across it with rejected micro-steps; the
    # step-acceptance rule still enforces hard radius monotonicity.
    centers, F = _seb_stack(np.array([pts_w]))
    f_wide = float(F[0])
    grad = (x - centers[0]) / dmin
    if len(pts_w) == 2:
        # Pure slide direction: remove the component along the witness
        # pair, which only measures the (band-sized) offset from the
        # bisector and would otherwise feed back into outward drift.
        n = pts_w[1] - pts_w[0]
        nn = float(np.linalg.norm(n))
        if nn > 0.0:
            n = n / nn
            grad = grad - float(grad @ n) * n
    return dmin, ids, grad, f_wide, len(pts_w), frozenset(labels), pts_w


def _snap_to_tie(y: np.ndarray, pts_w, cap: float) -> np.ndarray:
    """One Newton step of y toward the equal-distance locus of a pair.

    Keeps a sliding trajectory centered in its band so the reported witness
    pair does not flicker at the band edge.  Displacement is capped so the
    correction can never dominate an accepted step.
    """
    d1 = float(np.linalg.norm(y - pts_w[0]))
    d2 = float(np.linalg.norm(y - pts_w[1]))
    if d1 == 0.0 or d2 == 0.0:
        return y
    g = d1 - d2
    dg = (y - pts_w[0]) / d1 - (y - pts_w[1]) / d2
    nrm2 = float(dg @ dg)
    if nrm2 <= 0.0:
        return y
    step = -(g / nrm2) * dg
    if float(np.linalg.norm(step)) > cap:
        return y
    return y + step


def integrate_flow(scene: SiteScene, x0, alpha: float | None = None,
                   horizon: float = 1.0, stop: StopCondition | None = None,
                   max_step: float | None = None,
                   flow_band: float | None = None) -> Trajectory:
    """Integrate the distance gradient flow from x0 up to the time horizon.

    Acceptance rule per step: R must not decrease, and if the witness set
    changes the band-widened F must not drop by more than a hair.  Rejected
    steps are halved; exhaustion of step size is reported as "stalled".
    """
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    if stop is not None and stop.alpha is not None:
        if alpha is None:
            alpha = stop.alpha
        elif alpha != stop.alpha:
            raise ValueError("alpha differs between flow and stop condition")
    if max_step is None:
        max_step = scene.bounding_radius / 500.0
    if flow_band is None:
        flow_band = max_step

    x = np.asarray(x0, float).copy()
    t = 0.0
    arc = 0.0
    rejected = 0
    rows_t, rows_s, rows_x = [], [], []
    rows_r, rows_f, rows_fa, rows_g, rows_w = [], [], [], [], []
    reason = None
    stall_floor = _STALL_FRACTION * scene.bounding_radius

    node = _probe(scene, x, flow_band)
    while True:
        dmin, ids, grad, f_wide, n_wide, wide, _ = node
        gn_wide = math.sqrt(max(0.0, 1.0 - (f_wide / dmin) ** 2))
        if alpha is not None and dmin > alpha:
            fa_wide = (dmin - alpha) / dmin * f_wide
        else:
            fa_wide = float("nan")
        rows_t.append(t)
        rows_s.append(arc)
        rows_x.append(x.copy())
        rows_r.append(dmin)
        rows_f.append(f_wide)
        rows_fa.append(fa_wide)
        rows_g.append(gn_wide)
        rows_w.append(n_wide)

        if stop is not None and stop.kind == "axis" and fa_wide >= stop.lam:
            reason = "entered-axis"
            break
        if stop is not None and stop.kind == "gradient" and gn_wide < stop.eta:
            reason = "gradient-below"
            break
        if t >= horizon:
            reason = "time-exhausted"
            break
        if len(rows_t) >= _NODE_CAP:
            reason = "node-cap"
            break

        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            reason = "stalled"
            break
        remaining = horizon - t
        if remaining <= stall_floor:
            # within rounding of the horizon; do not mistake it for a stall
            reason = "time-exhausted"
            break
        dt = min(max_step, remaining)
        while dt >= stall_floor:
            y = x + dt * grad
            try:
                trial = _probe(scene, y, flow_band, wide)
                pts_y = trial[-1]
                if len(pts_y) == 2:
                    # The in-band offset can slightly exceed the step size
                    # when band and step are comparable, so the cap allows
                    # for both scales.
                    y2 = _snap_to_tie(y, pts_y, cap=dt + 2.0 * flow_band)
                    if y2 is not y:
                        y = y2
                        trial = _probe(scene, y, flow_band, wide)
            except DomainError:
                trial = None
            if trial is not None:
                dmin_y, ids_y, _, f_wide_y, _, _, _ = trial
                if not (dmin_y < dmin or (ids_y != ids
                                          and f_wide_y < f_wide - _F_BACKSLIDE_TOL)):
                    break
            dt *= 0.5
            rejected += 1
        else:
            reason = "stalled"
            break
        arc += dt * gnorm
        t = horizon if dt == remaining else t + dt
        x = y
        # The accepted trial's probe is the new node's: same point, band
        # and keep-set.
        node = trial

    return Trajectory(scene=scene, alpha=alpha,
                      times=np.array(rows_t), arc=np.array(rows_s),
                      points=np.array(rows_x), R=np.array(rows_r),
                      F=np.array(rows_f), F_alpha=np.array(rows_fa),
                      grad_norm=np.array(rows_g),
                      witness_counts=np.array(rows_w, int),
                      stop_reason=reason, flow_band=flow_band,
                      max_step=max_step, rejected_steps=rejected)


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

    with np.errstate(invalid="ignore"):
        fa = np.where(traj.R > alpha, (traj.R - alpha) / traj.R * traj.F, np.nan)
    inside = fa >= lam
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

    trajs = [integrate_flow(scene, v, alpha=alpha, horizon=T,
                            stop=time_exhausted(), max_step=max_step) for v in verts]
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
    t1 = integrate_flow(scene, x1, alpha=alpha, horizon=T,
                        stop=time_exhausted(), max_step=max_step)
    t2 = integrate_flow(scene, x2, alpha=alpha, horizon=T,
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
