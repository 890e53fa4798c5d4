"""Experiment configs, report plumbing, and the command line interface."""

import dataclasses
import filecmp
import hashlib
import importlib.util
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_axis import _PIN_GRID, OFF_PLANE_SITES, PIN_SCENES, embedded, tilt

import medaxis as mx
from medaxis import axis, cli, experiments, metrics, svgout
from medaxis.axis import build_skeleton
from medaxis.cli import main as cli_main
from medaxis.experiments import (ExperimentConfig, config_from_dict,
                                 run_axis, run_critfn, run_flow, run_gh,
                                 run_perturb, run_sweep_lambda)


def two_site_scene():
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                        bounding_radius=10.0)


def write_scene(tmp_path):
    path = tmp_path / "scene.json"
    mx.save_scene(two_site_scene(), path)
    return path


class TestConfig:
    def test_inline_scene(self):
        raw = {"scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                         "bounding_radius": 10.0},
               "lambda_grid": [0.5, 0.6]}
        cfg = config_from_dict(raw)
        assert len(cfg.scene.sites) == 2
        assert cfg.lambda_grid == (0.5, 0.6)

    def test_scene_path_relative_to_config(self, tmp_path):
        write_scene(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scene": "scene.json",
                                        "alpha_grid": [0.25]}))
        cfg = mx.load_config(cfg_path)
        assert len(cfg.scene.sites) == 2

    def test_unknown_keys_rejected(self):
        raw = {"scene": {"sites": [[0.0, 1.0]], "bounding_radius": 5.0},
               "mystery": 1}
        with pytest.raises(mx.InvalidSceneError):
            config_from_dict(raw)

    def test_unsorted_grid_rejected(self):
        raw = {"scene": {"sites": [[0.0, 1.0]], "bounding_radius": 5.0},
               "lambda_grid": [0.6, 0.5]}
        with pytest.raises(mx.InvalidSceneError):
            config_from_dict(raw)

    def test_duplicate_grid_rejected(self):
        with pytest.raises(mx.InvalidSceneError):
            ExperimentConfig(scene=two_site_scene(), lambda_grid=(0.5, 0.5))

    @pytest.mark.parametrize("name", ["lambda_grid", "alpha_grid", "epsilons", "t_grid"])
    @pytest.mark.parametrize("vals", [(math.nan,), (0.5, math.nan), (math.nan, 0.5)])
    def test_nan_in_grid_rejected(self, name, vals):
        with pytest.raises(mx.InvalidSceneError, match="NaN"):
            ExperimentConfig(scene=two_site_scene(), **{name: vals})

    def test_bad_band_width_rejected(self):
        with pytest.raises(mx.InvalidSceneError):
            ExperimentConfig(scene=two_site_scene(), band_width=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"band_width": float("inf")}, {"samples_per_level": 0},
        {"samples_per_level": -5}, {"samples_per_level": 2.5},
        {"resolution": -0.5}, {"resolution": 0.0}, {"resolution": math.nan},
        {"resolution": math.inf}, {"sample_pairs": 0}, {"sample_pairs": -3},
        {"sample_pairs": 2.5}, {"sample_pairs": True}],
        ids=lambda kw: "%s=%s" % next(iter(kw.items())))
    def test_bad_sampling_rejected(self, kwargs):
        with pytest.raises(mx.InvalidSceneError):
            ExperimentConfig(scene=two_site_scene(), **kwargs)

    def test_default_resolution(self):
        cfg = ExperimentConfig(scene=two_site_scene())
        assert cfg.resolution == pytest.approx(10.0 / 1000.0)

    @pytest.mark.parametrize("spec", [
        {"sites": [[0.0, 1.0]], "bounding_radius": None},
        {"sites": [[0.0, 1.0]], "bounding_radius": "x"},
        {"sites": [[0.0, 1.0]], "bounding_radius": 5.0, "tie_tolerance": "x"},
        {"sites": [[0.0, 1.0], [2.0]], "bounding_radius": 5.0},
        {"sites": [[0.0, 1.0]]}, {"bounding_radius": 5.0}, {"sites": "x", "bounding_radius": 5.0},
        {"sites": [], "bounding_radius": 5.0}, {"sites": [[0.0, 9.0]], "bounding_radius": 5.0},
        {"sites": [[0.0, math.nan]], "bounding_radius": 5.0},
        {"sites": [[0.0, 1.0]], "bounding_radius": -1.0}, [], 5, None],
        ids=lambda spec: json.dumps(spec))
    def test_inline_scene_errors_are_scene_json_errors(self, spec):
        """A config's inline scene is read as the scene JSON of its text is:
        the same error, with the same message."""
        with pytest.raises(mx.InvalidSceneError) as inline:
            config_from_dict({"scene": spec})
        with pytest.raises(mx.InvalidSceneError) as text:
            mx.scene_from_json(json.dumps(spec))
        assert str(inline.value) == str(text.value)

    def test_inline_scene_equals_its_scene_json(self):
        scene = mx.SiteScene([[-0.0, 5e-324], [1 / 3, 0.1 + 0.2]], 2.0, tie_tolerance=0)
        spec = json.loads(mx.scene_to_json(scene))
        inline = config_from_dict({"scene": spec}).scene
        assert mx.scene_to_json(inline) == mx.scene_to_json(scene)


class TestRunAxis:
    def test_writes_axis_files(self, tmp_path):
        cfg = ExperimentConfig(scene=two_site_scene(), lambda_grid=(0.75,),
                               alpha_grid=(0.5,), out_dir=str(tmp_path))
        report = run_axis(cfg)
        assert report.passed
        assert (tmp_path / "axis_lam0.75_alp0.5.json").exists()
        assert (tmp_path / "axis_lam0.75_alp0.5.svg").exists()
        payload = json.loads((tmp_path / "axis_lam0.75_alp0.5.json").read_text())
        assert len(payload["vertices"]) == 4

    def test_axis_reports_hole_width(self, tmp_path):
        cfg = ExperimentConfig(scene=two_site_scene(), lambda_grid=(0.75,),
                               alpha_grid=(0.5,), out_dir=str(tmp_path))
        report = run_axis(cfg)
        row = report.rows[0]
        assert row["total_length"] == pytest.approx(
            2.0 * (4.95 - math.sqrt(3.0)), abs=1e-9)

    @pytest.mark.parametrize("name", sorted(PIN_SCENES) + ["single-site"])
    def test_svg_files_equal_scene_svg(self, tmp_path, name):
        """Each axis_lam*_alp*.svg holds the bytes of scene_svg of its axis:
        the layers drawn once per run join the axis layers by scene_svg's
        separator rule, also where the skeleton or the axis is empty."""
        scene = (mx.SiteScene([[0.5, -0.2]], 10.0) if name == "single-site"
                 else PIN_SCENES[name]())
        lams = sorted({lam for lam, _ in _PIN_GRID})
        alphas = sorted({alpha for _, alpha in _PIN_GRID})
        run_axis(ExperimentConfig(scene=scene, lambda_grid=lams, alpha_grid=alphas,
                                  out_dir=str(tmp_path)))
        sk = build_skeleton(scene)
        assert (len(sk.s) == 0) == (name == "single-site")
        empty = 0
        for lam in lams:
            for alpha in alphas:
                ax = mx.filter_axis(sk, lam, alpha)
                empty += ax.is_empty
                data = (tmp_path / ("axis_lam%g_alp%g.svg" % (lam, alpha))).read_bytes()
                assert data == mx.scene_svg(scene, axis=ax, skeleton=sk).encode()
                assert b"\n\n" not in data
        assert 0 < empty < len(lams) * len(alphas) or name == "single-site"

    def test_files_of_a_2000_site_scene_pinned(self, tmp_path):
        """SHA-256 over the names and bytes of every file ``run_axis`` writes
        for a 2,000-site scene, recorded before the skeleton's vertex text
        was shared across the grid."""
        scene = mx.random_scene(2000, 10.0, seed=3, min_separation=0.005)
        run_axis(ExperimentConfig(scene=scene, lambda_grid=(0.05, 0.1, 0.15),
                                  alpha_grid=(0.1, 0.3), out_dir=str(tmp_path)))
        digest = hashlib.sha256()
        for name in sorted(os.listdir(tmp_path)):
            digest.update(name.encode())
            digest.update((tmp_path / name).read_bytes())
        assert len(os.listdir(tmp_path)) == 13
        assert digest.hexdigest() == (
            "9425be91467b052fb61b3855f67131e9f46d9eba217cedd0982fa0bfc25f692e")

    @pytest.mark.parametrize("lams, alphas", [((0.75,), (0.5,)),
                                              ((0.5, 0.75, 1.5), (0.0, 0.5))])
    def test_skeleton_layer_drawn_once_per_run(self, tmp_path, monkeypatch,
                                               lams, alphas):
        drawn = []
        layer = svgout._skeleton_lines

        def counted(*args):
            drawn.append(args)
            return layer(*args)

        monkeypatch.setattr(svgout, "_skeleton_lines", counted)
        report = run_axis(ExperimentConfig(
            scene=PIN_SCENES["random-60"](), lambda_grid=lams, alpha_grid=alphas,
            out_dir=str(tmp_path)))
        assert len(report.rows) == len(lams) * len(alphas)
        assert len(drawn) == 1

    def test_rerun_leaves_only_its_own_files(self, tmp_path):
        """A run removes the axis files of an earlier run that it does not
        write, and no other file; a missing output directory is made."""
        out = tmp_path / "new" / "out"
        others = ["notes.txt", "axis_lam0.7_alp0.5.csv", "trajectory_00.csv"]
        for lam in (0.7, 0.75):
            report = run_axis(ExperimentConfig(scene=two_site_scene(), lambda_grid=(lam,),
                                               alpha_grid=(0.5,), out_dir=str(out)))
            for name in others:
                (out / name).write_text("kept\n")
        assert report.constants["files"] == ["axis_lam0.75_alp0.5.json",
                                             "axis_lam0.75_alp0.5.svg"]
        assert sorted(os.listdir(out)) == sorted(
            report.constants["files"] + ["axis_report.json"] + others)


class TestRunCritfn:
    def test_rows_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(scene=two_site_scene(),
                               t_grid=tuple(np.linspace(0.5, 4.0, 6)),
                               samples_per_level=300, seed=4,
                               out_dir=str(tmp_path))
        rep1 = run_critfn(cfg)
        text1 = (tmp_path / "critfn_report.json").read_text()
        rep2 = run_critfn(cfg)
        text2 = (tmp_path / "critfn_report.json").read_text()
        assert text1 == text2
        assert [r["chi"] for r in rep1.rows] == [r["chi"] for r in rep2.rows]

    def test_csv_written(self, tmp_path):
        cfg = ExperimentConfig(scene=two_site_scene(),
                               t_grid=(0.5, 1.5, 2.5),
                               samples_per_level=200, seed=4,
                               out_dir=str(tmp_path))
        run_critfn(cfg)
        lines = (tmp_path / "critfn.csv").read_text().strip().splitlines()
        assert lines[0] == "t,chi"
        assert len(lines) == 4


class TestPlanarProfile:
    def test_planar_profile_never_samples(self, tmp_path, monkeypatch):
        """d = 2 takes the exact chi; the sampler is for d >= 3 only."""
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran on a planar scene")

        monkeypatch.setattr(experiments, "estimate_critical_function", refuse)
        monkeypatch.setattr(mx, "estimate_critical_function", refuse)
        cfg = ExperimentConfig(scene=two_site_scene(), t_count=12, samples_per_level=300,
                               seed=5, lambda_grid=(0.7, 0.75), alpha_grid=(0.5,),
                               gh_variant=False, out_dir=str(tmp_path))
        profile = experiments._profile_for(cfg.scene, cfg)
        assert profile.band_width == 0.0 and profile.r_max == 5.05
        assert run_critfn(cfg).passed and run_sweep_lambda(cfg).passed

    def test_tilted_plane_takes_the_exact_path(self, monkeypatch):
        """Sites that span a plane through the origin of R^3 never sample."""
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran on a coplanar scene")

        monkeypatch.setattr(experiments, "estimate_critical_function", refuse)
        scene = embedded(mx.random_scene(8, 10.0, seed=3), tilt(3, seed=1))
        cfg = ExperimentConfig(scene=scene, t_count=6)
        profile = experiments._profile_for(scene, cfg)
        assert profile.band_width == 0.0 and profile.r_max == mx.scene_r_max(scene)

    @pytest.mark.parametrize("name", sorted(OFF_PLANE_SITES))
    def test_other_3d_scenes_sample(self, name, monkeypatch):
        sampled = []

        def spy(scene, *args, **kwargs):
            sampled.append(scene)
            return mx.estimate_critical_function(scene, *args, **kwargs)

        monkeypatch.setattr(experiments, "estimate_critical_function", spy)
        scene = mx.SiteScene(OFF_PLANE_SITES[name], 5.0)
        cfg = ExperimentConfig(scene=scene, t_grid=(0.3, 0.6), samples_per_level=20)
        profile = experiments._profile_for(scene, cfg)
        assert sampled == [scene] and "r-max-sampled" in profile.flags

    def test_sweep_builds_one_skeleton(self, monkeypatch):
        """The profile reads the sweep's own skeleton."""
        built = []

        def counting(scene):
            built.append(scene)
            return build_skeleton(scene)

        monkeypatch.setattr(experiments, "build_skeleton", counting)
        monkeypatch.setattr(axis, "build_skeleton", counting)
        cfg = ExperimentConfig(scene=two_site_scene(), t_count=12,
                               lambda_grid=(0.7, 0.75), alpha_grid=(0.5,), gh_variant=False)
        run_sweep_lambda(cfg)
        assert len(built) == 1


def near_wall_scene():
    # the last site is 0.01 from the wall, so a jitter of 0.05 can leave
    # the ball; at seed 0 the jitter of epsilon 0.05 does, that of 1e-3 not
    return mx.SiteScene(sites=np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 9.99]]),
                        bounding_radius=10.0)


class TestJitter:
    @pytest.mark.parametrize("run", [run_perturb, run_gh])
    def test_invalid_top_jitter_is_flagged(self, run):
        cfg = ExperimentConfig(scene=near_wall_scene(), lambda_grid=(0.5,),
                               alpha_grid=(0.4,), epsilons=(1e-3, 0.05), seed=0,
                               t_count=7, resolution=0.08, sample_pairs=100)
        report = run(cfg)
        assert "top-epsilon-scene-invalid" in report.flags
        assert report.rows[-1] == {"epsilon": 0.05, "flags": ["invalid-perturbed-scene"]}
        assert report.rows[0]["flags"] != ["invalid-perturbed-scene"]
        skipped = {"name": "%s-1" % report.kind, "passed": True, "enforced": False}
        assert skipped in report.assertions

    def test_perturb_builds_each_scene_once(self, monkeypatch):
        built = []

        def counting(scene):
            built.append(scene)
            return build_skeleton(scene)

        monkeypatch.setattr(experiments, "build_skeleton", counting)
        monkeypatch.setattr(axis, "build_skeleton", counting)
        cfg = ExperimentConfig(scene=mx.random_scene(12, 10.0, seed=3), lambda_grid=(0.5,),
                               alpha_grid=(0.4,), epsilons=(1e-4, 1e-3, 1e-2),
                               t_count=7, resolution=0.08)
        run_perturb(cfg)
        assert len(built) == 4
        assert len({mx.scene_to_json(sc) for sc in built}) == 4

    def test_sweep_measures_each_direction_once(self, monkeypatch):
        calls = []
        directed = metrics.directed_hausdorff

        def counting(axis_a, axis_b, resolution):
            calls.append((axis_a.lam, axis_b.lam))
            return directed(axis_a, axis_b, resolution)

        monkeypatch.setattr(experiments, "directed_hausdorff", counting)
        monkeypatch.setattr(metrics, "directed_hausdorff", counting)
        cfg = ExperimentConfig(scene=two_site_scene(), t_count=12, gh_variant=False,
                               lambda_grid=(0.7, 0.75, 0.8), alpha_grid=(0.5,))
        run_sweep_lambda(cfg)
        assert sorted(calls) == [(0.7, 0.75), (0.75, 0.7), (0.75, 0.8), (0.8, 0.75)]


def plain_by_isinstance(obj):
    """The report values' JSON form, by one isinstance test per kind."""
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [plain_by_isinstance(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: plain_by_isinstance(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_by_isinstance(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return "nan"
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


class TestReportValues:
    def test_plain_matches_isinstance_chain(self):
        payload = {
            "floats": [0.1, -0.0, math.nan, math.inf, -math.inf, 1e308],
            "numpy": [np.float64(0.25), np.float64(math.nan), np.float32(1.5),
                      np.int64(7), np.int32(-3), np.bool_(True), np.bool_(False)],
            "tuples": (1, (2.5, "x"), (math.inf,)),
            "array": np.array([[0.5, math.nan], [math.inf, -2.0]]),
            "bools": [True, False], "ints": [0, -1, 2 ** 70], "text": "nan",
            "nested": {"a": {"b": [{"c": (np.float64(-math.inf), None)}]}},
        }
        want = json.dumps(plain_by_isinstance(payload), sort_keys=True, indent=2)
        assert json.dumps(experiments._plain(payload), sort_keys=True, indent=2) == want

    @pytest.mark.parametrize("field, pick", [("r_max", max), ("mu_tilde", min),
                                             ("r_mu_alpha", min)])
    def test_merge_is_symmetric_with_nan(self, field, pick):
        base = mx.ReachSummary(mu=0.5, alpha=0.3, lam=0.5, r_mu_alpha=1.2, wfs=0.8,
                               r_max=4.0, mu_tilde=0.4, flags=("a",))
        other = dataclasses.replace(base, **{field: math.nan}, flags=("b",))
        for a, b in ((base, other), (other, base)):
            merged = experiments._merge_summaries(a, b)
            assert math.isnan(getattr(merged, field)) and merged.flags == ("a", "b")
        finite = dataclasses.replace(base, **{field: 0.7})
        for a, b in ((base, finite), (finite, base)):
            assert getattr(experiments._merge_summaries(a, b), field) == pick(
                getattr(base, field), 0.7)


class TestRunFlow:
    def test_requires_starts(self):
        cfg = ExperimentConfig(scene=two_site_scene())
        with pytest.raises(mx.InvalidSceneError):
            run_flow(cfg)

    def test_monotone_assertions(self, tmp_path):
        cfg = ExperimentConfig(scene=two_site_scene(),
                               lambda_grid=(0.75,), alpha_grid=(0.5,),
                               starts=((0.0, 1.5), (0.3, 0.9)),
                               horizon=20.0, out_dir=str(tmp_path))
        report = run_flow(cfg)
        assert report.passed
        names = [a["name"] for a in report.assertions]
        assert any(n.startswith("R-monotone") for n in names)
        assert sorted(os.listdir(tmp_path)) == ["flow.svg", "flow_report.json",
                                                "trajectories.csv"]

    @pytest.mark.parametrize("horizon", [0.0, 2.0])
    def test_rows_match_each_trajectory(self, horizon):
        """min_R_step and the certificate fields of each row are those of
        its own trajectory (0.0 for a one-node trajectory)."""
        starts = ((0.0, 1.5), (0.3, 0.9), (0.6, 0.0), (-2.0, -3.0), (0.0, 3.0))
        report = run_flow(ExperimentConfig(scene=two_site_scene(), lambda_grid=(0.75,),
                                           alpha_grid=(0.5,), starts=starts,
                                           horizon=horizon))
        trajs = mx.integrate_flows(two_site_scene(), starts, alpha=0.5, horizon=horizon,
                                   lam=0.75)
        for row, tr in zip(report.rows, trajs):
            steps = np.diff(tr.R)
            assert row["min_R_step"] == (float(steps.min()) if len(steps) else 0.0)
            cert = mx.radius_certificate(tr, 0.5, 0.75)
            assert (row["certificate_valid"], row["certificate_flags"]) == (
                cert.valid, list(cert.flags))

    def test_removes_legacy_trajectory_files(self, tmp_path):
        """The one-file-per-start tables go, and no other file."""
        for name in ("trajectory_00.csv", "trajectory_117.csv",
                     "trajectory_notes.csv", "axis_lam0.7_alp0.5.svg"):
            (tmp_path / name).write_text("old\n")
        run_flow(ExperimentConfig(scene=two_site_scene(), starts=((0.0, 1.5),),
                                  horizon=1.0, out_dir=str(tmp_path)))
        assert sorted(os.listdir(tmp_path)) == [
            "axis_lam0.7_alp0.5.svg", "flow.svg", "flow_report.json",
            "trajectories.csv", "trajectory_notes.csv"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_trajectories_table_round_trips(self, tmp_path, monkeypatch, dim):
        """trajectories.csv holds every node of every start, in start order,
        and each "%.17g" value reads back as the Trajectory's float."""
        if dim == 2:
            cfg = ExperimentConfig(scene=two_site_scene(), lambda_grid=(0.75,),
                                   alpha_grid=(0.5,), horizon=20.0,
                                   starts=((0.0, 1.5), (0.3, 0.9), (-2.0, -3.0)),
                                   out_dir=str(tmp_path))
        else:
            cfg = ExperimentConfig(scene=mx.random_scene(8, bounding_radius=5.0,
                                                         seed=4, dim=3),
                                   starts=((0.5, 0.2, -0.3), (-1.0, 1.0, 0.7)),
                                   horizon=0.5, out_dir=str(tmp_path))
        got = []
        flows = experiments.integrate_flows

        def recording(*args, **kwargs):
            trajs = flows(*args, **kwargs)
            got.extend(trajs)
            return trajs

        monkeypatch.setattr(experiments, "integrate_flows", recording)
        report = run_flow(cfg)
        lines = (tmp_path / "trajectories.csv").read_text().splitlines()
        assert lines[0].split(",") == (["start", "t", "s"]
                                       + ["x%d" % k for k in range(dim)]
                                       + ["R", "F", "F_alpha", "grad_norm"])
        rows = [line.split(",") for line in lines[1:]]
        start = np.array([int(row[0]) for row in rows])
        table = np.array([[float(v) for v in row[1:]] for row in rows])
        assert (np.diff(start) >= 0).all()
        assert np.bincount(start).tolist() == [row["nodes"] for row in report.rows]
        want = np.concatenate([np.column_stack([tr.times, tr.arc, tr.points, tr.R,
                                                tr.F, tr.F_alpha, tr.grad_norm])
                               for tr in got])
        assert table.shape == want.shape
        fa = dim + 4
        if dim == 3:
            assert all(row[fa + 1] == "nan" for row in rows)
            assert np.isnan(want[:, fa]).all()
            table, want = np.delete(table, fa, 1), np.delete(want, fa, 1)
        assert table.tobytes() == want.tobytes()


class TestRunSweep:
    def test_lambda_sweep_report(self, tmp_path):
        cfg = ExperimentConfig(scene=two_site_scene(),
                               lambda_grid=(0.5, 0.6), alpha_grid=(0.25,),
                               t_count=30, samples_per_level=400, seed=3,
                               gh_variant=False, out_dir=str(tmp_path))
        report = run_sweep_lambda(cfg)
        assert report.passed
        assert (tmp_path / "sweep_lambda_report.json").exists()
        row = report.rows[0]
        assert row["directed_back"] == 0.0

    @pytest.mark.parametrize("sites", [[[-1.0, 0.0], [1.0, 0.0]],
                                       [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]]])
    def test_builds_each_axis_graph_once(self, tmp_path, monkeypatch, sites):
        """Step i's upper axis is step i + 1's lower one: three axes, both
        steps measured, three graphs."""
        built = []
        build = experiments.build_geodesic_graph
        monkeypatch.setattr(experiments, "build_geodesic_graph",
                            lambda ax: (built.append(ax), build(ax))[1])
        report = run_sweep_lambda(ExperimentConfig(
            scene=mx.SiteScene(sites, 10.0), lambda_grid=(0.5, 0.55, 0.6),
            alpha_grid=(0.25,), t_count=30, samples_per_level=400, seed=3,
            sample_pairs=100, out_dir=str(tmp_path)))
        assert all("gh_distortion" in row for row in report.rows) and len(report.rows) == 2
        assert len(built) == 3 and len({id(ax) for ax in built}) == 3


def run_cli(tmp_path, command, body):
    """Exit code and report (None when none is written) of one command."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    out = tmp_path / "out"
    code = cli_main([command, "--config", str(cfg), "--out", str(out)])
    path = out / (command.replace("-", "_") + "_report.json")
    return code, json.loads(path.read_text()) if path.exists() else None


TWO_SITES = {"sites": [[-1.0, 0.0], [1.0, 0.0]], "bounding_radius": 10.0}


class TestRunGh:
    @pytest.mark.parametrize("sites, alpha, skipped", [
        ([[-0.85, -0.65], [-0.7, -3.6]], 0.5, ("gh-surjective", "gdiam-bound")),
        ([[2.0, -1.0], [-1.6, 2.5]], 1.2, ("gdiam-bound",))])
    def test_checks_without_a_bound_are_skipped(self, tmp_path, capsys, sites, alpha,
                                                skipped):
        """Where mu_tilde is undefined no bound backs a surjectivity radius;
        where the alpha/2 window's mu_tilde is undefined the diameter bound
        is NaN.  Neither check is enforced there."""
        code, report = run_cli(tmp_path, "gh", {
            "scene": {"sites": sites, "bounding_radius": 5.0}, "lambda_grid": [0.8],
            "alpha_grid": [alpha], "epsilons": [0.01, 0.1], "resolution": 0.01})
        assert code == 0 and report["passed"]
        assert "FAILED" not in capsys.readouterr().err
        checks = {a["name"]: a for a in report["assertions"]}
        for k, row in enumerate(report["rows"]):
            assert row["constants"]["gdiam_bound"] == "nan"
            assert row["hypothesis_flags"]["mu-tilde-defined"] == ("gh-surjective" not in skipped)
            for name in ("gh-surjective", "gdiam-bound"):
                assert checks["%s-%d" % (name, k)]["enforced"] == (name not in skipped)

    def test_no_distortion_without_mu_tilde(self, tmp_path, monkeypatch):
        """Without mu_tilde no check reads a distortion, so none is measured:
        each row reads NaN for it and for its radius, keeps d_H and gdiam,
        and skips both GH checks."""
        def unread(*args, **kwargs):
            raise AssertionError("gh_distortion called where mu_tilde is undefined")

        monkeypatch.setattr(experiments, "gh_distortion", unread)
        code, report = run_cli(tmp_path, "gh", {
            "scene": {"sites": [[-0.85, -0.65], [-0.7, -3.6]], "bounding_radius": 5.0},
            "lambda_grid": [0.8], "alpha_grid": [0.5], "epsilons": [0.01, 0.1],
            "resolution": 0.01})
        assert code == 0 and report["passed"]
        checks = {a["name"]: a for a in report["assertions"]}
        assert len(report["rows"]) == 2
        for k, row in enumerate(report["rows"]):
            assert not row["hypothesis_flags"]["mu-tilde-defined"]
            assert row["gh_distortion"] == row["radius"] == "nan"
            assert isinstance(row["d_H"], float) and isinstance(row["gdiam"], float)
            for name in ("gh-surjective", "gh"):
                assert checks["%s-%d" % (name, k)] == {
                    "name": "%s-%d" % (name, k), "passed": True, "enforced": False}


class TestAuditPaths:
    """Branches of the runners that no other test reaches."""

    @pytest.mark.parametrize("mu, flags, want", [(0.4, [], 0.4),
                                                 ("auto", ["mu-auto-chi-zero"], 1e-6)])
    def test_mu_from_config_and_chi_zero_fallback(self, tmp_path, capsys, mu, flags, want):
        """chi is 0 on the whole mu window of the two-site scene, so the auto
        mu falls back to 1e-6 and says so."""
        code, report = run_cli(tmp_path, "critfn", {
            "scene": TWO_SITES, "t_grid": [0.5, 1.0, 1.5], "lambda_grid": [0.5],
            "alpha_grid": [0.5], "mu": mu})
        assert code == 0
        assert report["constants"]["mu"] == want
        assert report["flags"] == flags

    def test_non_planar_scene_needs_t_grid(self, tmp_path, capsys):
        code, report = run_cli(tmp_path, "critfn", {"scene": {
            "sites": [[0.5, 0.1, 0.2], [-0.3, 0.6, -0.4], [0.1, -0.7, 0.3], [0.2, 0.2, 0.8]],
            "bounding_radius": 3.0}})
        assert code == 3 and report is None
        assert "t_grid required for non-planar scenes" in capsys.readouterr().err

    @pytest.mark.parametrize("command, grids, message", [
        ("axis", {"lambda_grid": [0.5]}, "axis experiment needs a (lambda, alpha) grid"),
        ("sweep-lambda", {"lambda_grid": [0.5], "alpha_grid": [0.3]},
         "lambda sweep needs >= 2 lambdas and an alpha"),
        ("sweep-lambda", {"lambda_grid": [0.5, 0.6]},
         "lambda sweep needs >= 2 lambdas and an alpha"),
        ("sweep-alpha", {"lambda_grid": [0.5], "alpha_grid": [0.3]},
         "alpha sweep needs >= 2 alphas and a lambda"),
        ("sweep-alpha", {"alpha_grid": [0.3, 0.4]},
         "alpha sweep needs >= 2 alphas and a lambda"),
        ("perturb", {"lambda_grid": [0.5], "alpha_grid": [0.3]},
         "perturb experiment needs epsilons, lambda, alpha"),
        ("gh", {"epsilons": [1e-4], "alpha_grid": [0.3]},
         "gh experiment needs epsilons, lambda, alpha")])
    def test_missing_grid_exits_three(self, tmp_path, capsys, command, grids, message):
        code, report = run_cli(tmp_path, command, dict(grids, scene=TWO_SITES, t_count=7))
        assert code == 3 and report is None
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_flags_discontinuity(self, tmp_path, capsys):
        """The axis at lambda = 1.53 is empty while the reach hypothesis
        holds, so d_H is infinite against a finite Lipschitz bound.  Whether
        the true filtered axis empties too, or the axis lacks its site/wall
        arcs, is open."""
        code, report = run_cli(tmp_path, "sweep-lambda", {
            "scene": {"sites": [[-1.23, -3.52], [-0.77, -0.34], [-2.86, -2.69]],
                      "bounding_radius": 5.0},
            "lambda_grid": [1.18, 1.53, 2.0], "alpha_grid": [1.16], "resolution": 0.01,
            "gh_variant": False})
        assert code == 2
        row = report["rows"][0]
        assert row["d_H"] == "inf" and math.isfinite(row["lip"])
        assert row["flags"] == ["discontinuity"]
        assert capsys.readouterr().err == "FAILED: lipschitz-lambda-0\n"

    def test_failed_checks_are_named_on_exit_two(self, tmp_path, capsys):
        code, report = run_cli(tmp_path, "critfn", {"scene": TWO_SITES,
                                                    "expect_square_side": 2.0})
        assert code == 2 and not report["passed"]
        assert capsys.readouterr().err.splitlines() == [
            "FAILED: plateau-median-near-invsqrt2", "FAILED: chi-small-at-t-crit",
            "FAILED: crossing-near-t-crit"]


class TestCli:
    def write_cfg(self, tmp_path, body):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_axis_command_exits_zero(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "lambda_grid": [0.75], "alpha_grid": [0.5],
            "out_dir": str(tmp_path / "out")})
        code = cli_main(["axis", "--config", cfg])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["kind"] == "axis"
        assert summary["passed"] is True

    def test_missing_config_exits_three(self, tmp_path):
        code = cli_main(["axis", "--config", str(tmp_path / "nope.json")])
        assert code == 3

    def test_malformed_config_exits_three(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert cli_main(["axis", "--config", str(path)]) == 3

    def test_bad_scene_exits_three(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [], "bounding_radius": 10.0},
            "lambda_grid": [0.75]})
        assert cli_main(["axis", "--config", cfg]) == 3

    def test_bad_samples_per_level_exits_three(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "t_grid": [0.5, 1.5], "samples_per_level": -5})
        assert cli_main(["critfn", "--config", cfg]) == 3
        assert "samples_per_level" in capsys.readouterr().err

    def test_delta_key_exits_three(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "lambda_grid": [0.75], "alpha_grid": [0.5], "delta": 0.1})
        assert cli_main(["axis", "--config", cfg]) == 3
        assert "unknown config keys" in capsys.readouterr().err

    def test_non_finite_flow_start_exits_three(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "starts": [[0.0, 2.0], [math.nan, 0.0]],
            "out_dir": str(tmp_path / "out")})
        assert cli_main(["flow", "--config", cfg]) == 3
        assert "query point must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("axis", "lambda_grid"), ("critfn", "t_grid")])
    def test_nan_grid_exits_three(self, tmp_path, capsys, command, key):
        body = {"scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]], "bounding_radius": 10.0},
                "lambda_grid": [0.75], "alpha_grid": [0.5], "t_grid": [0.5, 1.5]}
        body[key] = [0.5, math.nan]
        cfg = self.write_cfg(tmp_path, body)
        assert cli_main([command, "--config", cfg]) == 3
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["perturb", "gh", "sweep-lambda"])
    @pytest.mark.parametrize("key, value", [
        ("sample_pairs", 0), ("resolution", -0.5), ("resolution", 0.0),
        ("resolution", math.nan)])
    def test_bad_metric_setting_exits_three(self, tmp_path, capsys, command, key, value):
        body = {"scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]], "bounding_radius": 10.0},
                "lambda_grid": [0.7, 0.75], "alpha_grid": [0.5], "epsilons": [1e-4, 1e-3],
                "t_count": 7, key: value}
        cfg = self.write_cfg(tmp_path, body)
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("critfn", "t_count", 2.5), ("axis", "t_count", True), ("critfn", "t_count", 0),
        ("perturb", "seed", 1.5), ("gh", "seed", -1), ("perturb", "seed", True),
        ("flow", "horizon", "x"),
        ("sweep-lambda", "gh_variant", "no"), ("sweep-lambda", "gh_variant", 1),
        ("critfn", "expect_square_side", -1.0), ("critfn", "expect_square_side", math.nan),
        ("perturb", "epsilons", [-1e-3, 1e-3]), ("gh", "epsilons", [0.0, 1e-3]),
        ("perturb", "epsilons", [1e-3, math.inf]),
        ("critfn", "mu", [0.5]), ("critfn", "mu", True), ("critfn", "mu", 0),
        ("critfn", "mu", 1.5), ("critfn", "mu", "x"), ("critfn", "t_grid", ["a", "b"])])
    def test_bad_scalar_exits_three(self, tmp_path, capsys, command, key, value):
        body = {"scene": {"sites": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5], [0.5, -2.0]],
                          "bounding_radius": 10.0},
                "lambda_grid": [0.7, 0.75], "alpha_grid": [0.5], "epsilons": [1e-4, 1e-3],
                "starts": [[0.3, 2.5]], "t_count": 7, "sample_pairs": 50, key: value}
        cfg = self.write_cfg(tmp_path, body)
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [5, ["out"], True])
    def test_bad_out_dir_exits_three(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]], "bounding_radius": 10.0},
            "lambda_grid": [0.75], "alpha_grid": [0.5], "out_dir": value})
        assert cli_main(["axis", "--config", cfg]) == 3
        assert "out_dir" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_nan_horizon_exits_three(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "starts": [[0.0, 2.0]], "horizon": math.nan,
            "out_dir": str(tmp_path / "out")})
        assert cli_main(["flow", "--config", cfg]) == 3
        assert "horizon must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("lambda_grid", -0.75, "lam must be"), ("lambda_grid", 0.0, "lam must be"),
        ("alpha_grid", -0.5, "alpha must be")])
    def test_bad_flow_stop_exits_three(self, tmp_path, capsys, key, value, message):
        body = {"scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]], "bounding_radius": 10.0},
                "starts": [[0.3, 2.0]], "lambda_grid": [0.75], "alpha_grid": [0.5]}
        body[key] = [value]
        cfg = self.write_cfg(tmp_path, body)
        assert cli_main(["flow", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["critfn", "axis"])
    def test_nested_lambda_grid_exits_three(self, tmp_path, capsys, command):
        body = {"scene": {"sites": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]],
                          "bounding_radius": 10.0},
                "lambda_grid": [[0.3]], "alpha_grid": [0.5], "t_count": 7}
        cfg = self.write_cfg(tmp_path, body)
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "lam must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_without_scene_exits_three(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"lambda_grid": [0.75],
                                        "alpha_grid": [0.5]})
        assert cli_main(["axis", "--config", cfg]) == 3

    def test_program_error_in_experiment_propagates(self, tmp_path,
                                                    monkeypatch):
        def broken(config):
            raise TypeError("internal bug")

        monkeypatch.setitem(cli._COMMANDS, "axis", broken)
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "lambda_grid": [0.75], "alpha_grid": [0.5]})
        with pytest.raises(TypeError, match="internal bug"):
            cli_main(["axis", "--config", cfg])

    def test_value_error_in_experiment_propagates(self, tmp_path, monkeypatch):
        """Only a config that fails to load is bad input: a ValueError raised
        by an experiment is a program error."""
        def broken(config):
            raise ValueError("internal bug")

        monkeypatch.setitem(cli._COMMANDS, "axis", broken)
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "lambda_grid": [0.75], "alpha_grid": [0.5]})
        with pytest.raises(ValueError, match="internal bug"):
            cli_main(["axis", "--config", cfg])

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_each_command_writes_its_own_report(self, tmp_path, capsys, command):
        """The report-name contract: a command writes exactly one report,
        ``<command with "-" as "_">_report.json``, whose kind is the
        command."""
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5], [0.5, -2.0]],
                      "bounding_radius": 10.0},
            "lambda_grid": [0.7, 0.75], "alpha_grid": [0.5, 0.55], "epsilons": [1e-4, 1e-3],
            "starts": [[0.3, 2.5]], "t_count": 7, "sample_pairs": 50})
        out = tmp_path / "out"
        assert cli_main([command, "--config", cfg, "--out", str(out)]) in (0, 2)
        name = command.replace("-", "_") + "_report.json"
        assert [n for n in os.listdir(out) if n.endswith("_report.json")] == [name]
        assert json.loads((out / name).read_text())["kind"] == command

    @pytest.mark.parametrize("run", ["axis", "sweep-lambda", "critfn", "flow",
                                     "critfn-wire", "critfn-lattice", "axis-lattice",
                                     "sweep-alpha", "perturb", "gh"])
    def test_reports_match_tracked_demo_output(self, tmp_path, capsys, run):
        """Demo 07's runs: four commands on a two-site scene, critfn on a
        square wire in a tilted plane of R^3 (the exact lifted path) and on
        a 10 x 10 lattice (the exact planar path, with exact ties), that
        lattice's axis, whose vertices exact ties keep or drop, and an alpha
        sweep with enforced and skipped Lipschitz and GH checks.  Demos 05
        and 06 build their perturb and gh configs in Python; they rerun with
        their output directory moved."""
        demos = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
        if run in ("perturb", "gh"):
            name = {"perturb": "05_perturbation_bound", "gh": "06_gh_audit"}[run]
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(demos, name + ".py"))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module.OUT = str(tmp_path)
            module.main()
            tracked_dir = os.path.join(demos, "out", run)
        else:
            demo = os.path.join(demos, "out", "cli")
            for name in ("config.json", "scene.json", "flow_config.json",
                         "wire_config.json", "lattice_config.json",
                         "axis_lattice_config.json", "sweep_alpha_config.json"):
                shutil.copy(os.path.join(demo, name), tmp_path / name)
            command, config = {"flow": ("flow", "flow_config.json"),
                               "critfn-wire": ("critfn", "wire_config.json"),
                               "critfn-lattice": ("critfn", "lattice_config.json"),
                               "axis-lattice": ("axis", "axis_lattice_config.json"),
                               "sweep-alpha": ("sweep-alpha", "sweep_alpha_config.json")}.get(
                                   run, (run, "config.json"))
            assert cli_main([command, "--config", str(tmp_path / config),
                             "--out", str(tmp_path / run)]) == 0
            tracked_dir = os.path.join(demo, run)
        out = tmp_path / run
        tracked = sorted(os.listdir(tracked_dir))
        assert sorted(os.listdir(out)) == tracked
        for name in tracked:
            with open(os.path.join(tracked_dir, name), "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name

    def test_seed_override(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0]],
                      "bounding_radius": 10.0},
            "t_grid": [0.5, 1.5, 2.5], "samples_per_level": 200})
        code = cli_main(["critfn", "--config", cfg, "--seed", "9",
                         "--out", str(tmp_path / "o9")])
        assert code == 0
        report = json.loads((tmp_path / "o9" / "critfn_report.json").read_text())
        assert report["seed"] == 9

    def test_negative_seed_override_exits_three(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scene": {"sites": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]],
                      "bounding_radius": 10.0},
            "lambda_grid": [0.7], "alpha_grid": [0.5], "epsilons": [1e-4, 1e-3]})
        assert cli_main(["perturb", "--config", cfg, "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 3
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# SHA-256 over the names and bytes of every file each runner writes on one
# three-site scene, recorded before the sweeps lost their direction table.
_PINNED_RUNS = {
    "axis":
        "46f4b67781f95747d7e32401e900fb6cf6fa8b75649981cf1cc5c8a78c30653f",
    "critfn":
        "f2b5f7584e3f198053e7c6b859a1899a4c2c878b441d8fbe7dd1d3e229929cf9",
    "flow":
        "a449faa71e83507dfb3e7fb312bfe348943fabf99cde1299f8e2a35096f1e30c",
    "gh":
        "26fde20b6203eb2be4926b7a084fbb0cf4ba0638ab9651fad4dc7943e2c00582",
    "perturb":
        "b9f67e056f59751a16f786d85b7f6073eb58e94e3005bf797e62d8b9b8fa7b2e",
    "sweep-alpha":
        "ccf1709f150f24952b7b5a053615fa9d6a876647b1317f0cd39971df1e9b0754",
    "sweep-lambda":
        "d3cbf6452a1244c2a7cf8760e112024d54543a099c9476f49b46687395a2bb6a",
}


class TestReportBytesPin:
    @pytest.mark.parametrize("command", sorted(_PINNED_RUNS))
    def test_runner_files_keep_their_bytes(self, tmp_path, capsys, command):
        """Every gh row of this scene compares connected axes with a defined
        mu_tilde and a finite diameter bound, and the lambda sweep enforces
        its GH variant, so each check's enforced path is pinned."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scene": {"sites": [[-1.5, -1.0], [1.5, -1.0], [0.0, 1.6]],
                      "bounding_radius": 6.0},
            "lambda_grid": [0.5, 0.6], "alpha_grid": [0.3, 0.35],
            "epsilons": [1e-5, 1e-4, 1e-3], "starts": [[0.3, 2.5], [-2.0, -3.0]],
            "t_count": 9, "sample_pairs": 50, "resolution": 0.05}))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / (command.replace("-", "_") + "_report.json")).read_text())
        enforced = {a["name"] for a in report["assertions"] if a["enforced"]}
        if command == "gh":
            assert len(report["rows"]) == 3
            for k, row in enumerate(report["rows"]):
                assert row["hypothesis_flags"]["mu-tilde-defined"]
                assert math.isfinite(row["constants"]["gdiam_bound"])
                assert {"gh-surjective-%d" % k, "gdiam-bound-%d" % k} <= enforced
        if command == "sweep-lambda":
            assert "gh-variant-lambda-0" in enforced
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            digest.update(name.encode() + b"\0" + (out / name).read_bytes())
        assert digest.hexdigest() == _PINNED_RUNS[command]


@st.composite
def drawn_configs(draw, tilted=False):
    """A config body every command can run: a random planar scene of 6 to 12
    sites, 2 or 3 lambdas and alphas, two epsilons a decade or more apart,
    two flow starts, and small sampling settings.  ``tilted`` puts the scene
    and the starts in a random plane through the origin of R^3, where only
    the commands for d >= 3 (``critfn`` and ``flow``) run."""
    n = draw(st.integers(6, 12))
    scene = mx.random_scene(n, 10.0, seed=draw(st.integers(0, 2 ** 16)))
    plane = np.eye(2)
    if tilted:
        plane = tilt(3, seed=draw(st.integers(0, 2 ** 16)))[:, :2].T
        scene = embedded(scene, plane.T)

    def grid(lo, hi):
        return sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=3, unique=True)))

    eps = 10.0 ** draw(st.floats(-5.0, -3.0))
    ang = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=2, max_size=2))
    rad = draw(st.lists(st.floats(1.0, 8.0), min_size=2, max_size=2))
    return {"scene": json.loads(mx.scene_to_json(scene)),
            "lambda_grid": grid(0.2, 3.0), "alpha_grid": grid(0.05, 1.5),
            "epsilons": [eps, eps * 10.0 ** draw(st.floats(1.0, 2.5))],
            "starts": [(np.array([r * math.cos(a), r * math.sin(a)]) @ plane).tolist()
                       for a, r in zip(ang, rad)],
            "seed": draw(st.integers(0, 2 ** 16)), "t_count": 5, "sample_pairs": 20,
            "resolution": 0.25}


def rerun(body, commands):
    """Run each command twice on the config body; every output file must
    match byte for byte.  Returns the first run's critfn report, if any."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(body, fh)
        for command in commands:
            a, b = (os.path.join(tmp, command, tag) for tag in "ab")
            codes = [cli_main([command, "--config", cfg, "--out", out]) for out in (a, b)]
            assert codes[0] == codes[1] and codes[0] in (0, 2), (command, codes)
            names = sorted(os.listdir(a))
            assert names and names == sorted(os.listdir(b)), command
            for name in names:
                assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                                   shallow=False), (command, name)
        with open(os.path.join(tmp, "critfn", "a", "critfn_report.json")) as fh:
            return json.load(fh)


class TestDeterminism:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(body=drawn_configs())
    def test_every_command_reruns_byte_identical(self, body):
        rerun(body, sorted(cli._COMMANDS))

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(body=drawn_configs(tilted=True))
    def test_tilted_scene_reruns_byte_identical(self, body):
        """critfn on the exact lifted path (the sampler would flag
        "r-max-sampled"), and flow."""
        assert "r-max-sampled" not in rerun(body, ["critfn", "flow"])["flags"]
