"""Experiment configs, report plumbing, and the command line interface."""

import filecmp
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import medaxis as mx
from medaxis import axis, cli, experiments, metrics
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
        assert (tmp_path / "trajectory_00.csv").exists()


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
        ("perturb", "epsilons", [1e-3, math.inf])])
    def test_bad_scalar_exits_three(self, tmp_path, capsys, command, key, value):
        body = {"scene": {"sites": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5], [0.5, -2.0]],
                          "bounding_radius": 10.0},
                "lambda_grid": [0.7, 0.75], "alpha_grid": [0.5], "epsilons": [1e-4, 1e-3],
                "starts": [[0.3, 2.5]], "t_count": 7, "sample_pairs": 50, key: value}
        cfg = self.write_cfg(tmp_path, body)
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["axis", "sweep-lambda", "critfn"])
    def test_reports_match_tracked_demo_output(self, tmp_path, command):
        demo = os.path.join(os.path.dirname(__file__), os.pardir,
                            "demos", "out", "cli")
        for name in ("config.json", "scene.json"):
            shutil.copy(os.path.join(demo, name), tmp_path / name)
        out = tmp_path / command
        assert cli_main([command, "--config", str(tmp_path / "config.json"),
                         "--out", str(out)]) == 0
        tracked = sorted(os.listdir(os.path.join(demo, command)))
        assert sorted(os.listdir(out)) == tracked
        for name in tracked:
            with open(os.path.join(demo, command, name), "rb") as fh:
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


@st.composite
def drawn_configs(draw):
    """A config body every command can run: a random planar scene of 6 to 12
    sites, 2 or 3 lambdas and alphas, two epsilons a decade or more apart,
    two flow starts, and small sampling settings."""
    n = draw(st.integers(6, 12))
    scene = mx.random_scene(n, 10.0, seed=draw(st.integers(0, 2 ** 16)))

    def grid(lo, hi):
        return sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=3, unique=True)))

    eps = 10.0 ** draw(st.floats(-5.0, -3.0))
    ang = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=2, max_size=2))
    rad = draw(st.lists(st.floats(1.0, 8.0), min_size=2, max_size=2))
    return {"scene": json.loads(mx.scene_to_json(scene)),
            "lambda_grid": grid(0.2, 3.0), "alpha_grid": grid(0.05, 1.5),
            "epsilons": [eps, eps * 10.0 ** draw(st.floats(1.0, 2.5))],
            "starts": [[r * math.cos(a), r * math.sin(a)] for a, r in zip(ang, rad)],
            "seed": draw(st.integers(0, 2 ** 16)), "t_count": 5, "sample_pairs": 20,
            "resolution": 0.25}


class TestDeterminism:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(body=drawn_configs())
    def test_every_command_reruns_byte_identical(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump(body, fh)
            for command in sorted(cli._COMMANDS):
                a, b = (os.path.join(tmp, command, tag) for tag in "ab")
                codes = [cli_main([command, "--config", cfg, "--out", out]) for out in (a, b)]
                assert codes[0] == codes[1] and codes[0] in (0, 2), (command, codes)
                names = sorted(os.listdir(a))
                assert names and names == sorted(os.listdir(b)), command
                for name in names:
                    assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                                       shallow=False), (command, name)
