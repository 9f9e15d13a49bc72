import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symforge import bandit, cli
from symforge.cli import (
    ConfigError,
    VERIFY_SUITES,
    config_hash,
    load_config,
    main,
    run_bandit_sim,
    run_discover,
    run_gen_data,
    run_verify,
)
from symforge.oracle import InvarianceReport, VerificationReport
from symforge.selection import build_m2, dense_matrix, enumerate_arms
from symforge.tasks import builtin_polynomial, make_splits


def _write_config(tmp_path, **overrides):
    cfg = {
        "task": {"kind": "polynomial", "name": "S_I(4)", "sizes": [48, 16], "seed": 0},
        "arms": {"screen_repeats": 10},
        "bandit": {"T": 6},
        "training": {"epochs": 60},
        "output": {"dir": str(tmp_path / "runs")},
    }
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_load_config_merges_defaults(tmp_path):
    path = _write_config(tmp_path)
    cfg = load_config(path)
    assert cfg["task"]["name"] == "S_I(4)"
    assert cfg["bandit"]["nu"] == 0.5  # default preserved
    assert cfg["training"]["epochs"] == 60  # override applied


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"task": {"flavor": "x"}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text(yaml.safe_dump({"bandits": {}}))
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("task: [not, a, mapping]\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("{unbalanced\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_default_config_hash(tmp_path):
    # The defaults name every run directory: an empty config keeps the
    # hashes it had when the defaults were one dict per section.
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert config_hash(cfg) == "13ec7b4e5644"
    assert config_hash(cfg, tag="sgd-only") == "afa9823906eb"


def test_seed_override_changes_hash(tmp_path):
    path = _write_config(tmp_path)
    base = load_config(path)
    seeded = load_config(path, seed_override=7)
    assert seeded["task"]["seed"] == 7
    assert config_hash(base) != config_hash(seeded)
    assert config_hash(base) == config_hash(load_config(path))
    assert config_hash(base, tag="sgd-only") != config_hash(base)


def test_gen_data_writes_splits_and_manifest(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    out = run_gen_data(cfg)
    assert (out / "train.csv").exists()
    assert (out / "val.csv").exists()
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["sizes"] == {"train": 48, "val": 16}
    assert manifest["spec"] == "S_I(4)"
    assert "files" not in manifest  # the CSVs sit next to it
    # Each split's CSV reads back, through loadtxt, to exactly the inputs
    # and targets that make_splits returns.
    splits, _ = make_splits(builtin_polynomial("S_I(4)"), (48, 16), seed=0)
    for name, ds in splits.items():
        path = out / f"{name}.csv"
        assert path.read_text().splitlines()[0] == "x_1,x_2,x_3,x_4,x_5,y"
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(loaded[:, :-1], ds.inputs)
        assert np.array_equal(loaded[:, -1], ds.targets)


def test_cli_rejects_unknown_task_kind(tmp_path):
    # polynomial is the one task kind: any other, quadrangle among them,
    # exits 2 at load on every command that runs a task, naming the key.
    path = _write_config(tmp_path, task={"kind": "quadrangle"})
    with pytest.raises(ConfigError, match="task.kind"):
        load_config(path)
    for command, extra in (("gen-data", []), ("discover", []), ("discover", ["--sgd-only"])):
        result = CliRunner().invoke(main, [command, "--config", str(path), *extra])
        assert result.exit_code == 2, (command, extra, result.output)
        assert "task.kind" in result.output
        assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "runs").exists()


def test_gen_data_unknown_task_name(tmp_path):
    cfg = load_config(_write_config(tmp_path, task={"name": "Q_I(9)"}))
    with pytest.raises(ConfigError):
        run_gen_data(cfg)


def test_discover_report_and_determinism(tmp_path):
    cfg = load_config(_write_config(tmp_path))
    out1, report1 = run_discover(cfg)
    pulls1 = (out1 / "pulls.csv").read_bytes()
    ranking1 = (out1 / "ranking.csv").read_bytes()
    assert (out1 / "report.yaml").exists()
    assert (out1 / "m1.csv").exists() and (out1 / "m2.csv").exists()
    assert len(report1["top3"]) == 3
    assert report1["T"] == 6
    # The report names no file: each artifact sits next to it.
    assert report1 == yaml.safe_load((out1 / "report.yaml").read_text())
    assert not {"pull_log", "ranking_path", "m1_path", "m2_path"} & set(report1)
    assert set(report1["winner"]) == {"kind", "index_set"}
    out2, report2 = run_discover(cfg)
    assert out2 == out1  # same config hash, same directory
    assert (out2 / "pulls.csv").read_bytes() == pulls1
    assert (out2 / "ranking.csv").read_bytes() == ranking1
    assert report2["top3"] == report1["top3"]


@pytest.mark.parametrize("holdout, fits", [(0.25, 1), (0.3, 2)])
def test_discover_fits_the_reference_once_per_split(tmp_path, monkeypatch, holdout, fits):
    # Screening holds out 25% of train.  At the same reward holdout and
    # settings discovery would fit the reference on the same rows, so it
    # takes screening's fit; pulls.csv is the one its own fit gives.
    cfg = load_config(_write_config(tmp_path, bandit={"reward_holdout": holdout}))
    calls = []
    real = bandit.train_reference_mlp
    monkeypatch.setattr(bandit, "train_reference_mlp", lambda *a: calls.append(a) or real(*a))
    out, _ = run_discover(cfg)
    assert len(calls) == fits
    pulls = (out / "pulls.csv").read_bytes()
    calls.clear()
    own_fit = lambda arms, data, dcfg, references: bandit.run_discovery(arms, data, dcfg)
    monkeypatch.setattr(cli, "run_discovery", own_fit)
    out, _ = run_discover(cfg)
    assert len(calls) == 2
    assert (out / "pulls.csv").read_bytes() == pulls


def test_discover_sgd_only_mode(tmp_path):
    cfg = load_config(
        _write_config(tmp_path, training={"epochs": 15, "lr_initial": 0.05})
    )
    out, report = run_discover(cfg, sgd_only=True)
    assert report["mode"] == "sgd-only"
    assert "val_mae" in report
    assert not {"m1_path", "m2_path"} & set(report)
    # Dense learned matrices, in a directory separate from the bandit run.
    m1 = np.loadtxt(out / "m1.csv", delimiter=",")
    assert m1.shape == (5, 5)
    assert np.count_nonzero(np.abs(m1) > 1e-6) > 5
    bandit_out, _ = run_discover(cfg)
    assert bandit_out != out


def test_discover_sgd_only_artifacts_are_byte_stable(tmp_path):
    cfg = load_config(
        _write_config(tmp_path, training={"epochs": 15, "lr_initial": 0.05})
    )
    out, _ = run_discover(cfg, sgd_only=True)
    first = {name: (out / name).read_bytes() for name in ("m1.csv", "m2.csv")}
    again, _ = run_discover(cfg, sgd_only=True)
    assert again == out
    assert {name: (out / name).read_bytes() for name in first} == first
    assert len(first["m2.csv"].splitlines()) == 25


def test_discover_sgd_only_echoes_its_result(tmp_path):
    path = _write_config(tmp_path, training={"epochs": 15, "lr_initial": 0.05})
    result = CliRunner().invoke(main, ["discover", "--config", str(path), "--sgd-only"])
    assert result.exit_code == 0, result.output
    written, line = result.output.splitlines()
    assert written.startswith("report written to ")
    report = yaml.safe_load(Path(written.removeprefix("report written to ")).read_text())
    assert line == (
        f"  sgd-only train_loss={report['train_loss']:.4f} val_mae={report['val_mae']:.4f}"
    )


@pytest.mark.parametrize("task", ["S_I(4)", "Z_I(5)"])
def test_sgd_only_m2_rounds_to_no_arm(tmp_path, task):
    # The README's claim for the ablation, at CLI defaults: the learned M2
    # never recovers a selection.  Rounding it gives an arm's 0/1 M2 only if
    # every entry lies within 0.5 of that arm's, so some entry must differ
    # by 0.5 or more from every arm's M2.
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"task": {"name": task}, "output": {"dir": str(tmp_path)}}))
    out, _ = run_discover(load_config(path, seed_override=1), sgd_only=True)
    m2 = np.loadtxt(out / "m2.csv", delimiter=",")
    n = round(len(m2) ** 0.5)
    for arm in enumerate_arms(n):
        distance = np.abs(m2 - dense_matrix(build_m2(arm.descriptor), m2.shape)).max()
        assert distance >= 0.5, arm.descriptor
    # And M1 ends dense, where an arm's 0/1 M1 has nearly all of its
    # off-diagonal entries at 0.  The figures of `relaxed`'s docstring, at
    # its decimals: 92-100% of them exceed 0.01 in size, the largest
    # 0.44-0.78 (seen: 100% and 0.780 on S_I(4), 96.7% and 0.527 on
    # Z_I(5)), and M2's largest distance from the identity is 0.106 on
    # S_I(4) and 0.033 at n = 10 (seen: 0.1062 and 0.0331), and it rounds
    # to the identity.
    m1 = np.loadtxt(out / "m1.csv", delimiter=",")
    off_diagonal = m1[~np.eye(n, dtype=bool)]
    assert 0.92 <= round(np.mean(np.abs(off_diagonal) > 0.01), 2) <= 1.0
    assert 0.44 <= round(np.abs(off_diagonal).max(), 2) <= 0.78
    distance = np.abs(m2 - np.eye(n * n)).max()
    assert round(distance, 3) == {"S_I(4)": 0.106, "Z_I(5)": 0.033}[task]
    assert np.array_equal(np.round(m2), np.eye(n * n))


def test_bandit_sim_writes_rates(tmp_path):
    cfg = load_config(
        _write_config(tmp_path, sim={"horizons": [20, 40], "trials": 20})
    )
    out, rates = run_bandit_sim(cfg)
    assert sorted(rates) == [20, 40]
    lines = (out / "misid.csv").read_text().splitlines()
    assert lines[0] == "T,misid_rate"
    assert len(lines) == 3
    for rate in rates.values():
        assert 0.0 <= rate <= 1.0


def test_verify_gradients_suite():
    passed, summary = run_verify("gradients")
    assert passed
    assert summary["max_relative_error"] <= 1e-4
    with pytest.raises(ConfigError):
        run_verify("everything")


def test_cli_exit_codes(tmp_path):
    runner = CliRunner()
    # Usage error: missing config file.
    result = runner.invoke(main, ["gen-data", "--config", str(tmp_path / "no.yaml")])
    assert result.exit_code == 2
    # Usage error: unknown config key.
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"task": {"flavor": "x"}}))
    result = runner.invoke(main, ["discover", "--config", str(bad)])
    assert result.exit_code == 2
    # Unknown verify suite is rejected by the option parser.
    result = runner.invoke(main, ["verify", "--suite", "everything"])
    assert result.exit_code == 2
    assert "everything" not in VERIFY_SUITES


def test_cli_bad_seed_names_the_option(tmp_path):
    # --seed overrides task.seed, so a bad seed is the option's fault, not
    # the config file's.
    path = _write_config(tmp_path)
    for command in ("gen-data", "discover", "bandit-sim"):
        result = CliRunner().invoke(main, [command, "--config", str(path), "--seed", "-1"])
        assert result.exit_code == 2, (command, result.output)
        assert isinstance(result.exception, SystemExit), command
        assert result.output == (
            "error: invalid value from --seed: task.seed must be >= 0, not -1\n"
        ), command
    # The same value in the file still blames the file.
    path = _write_config(tmp_path, task={"seed": -1})
    result = CliRunner().invoke(main, ["gen-data", "--config", str(path)])
    assert result.exit_code == 2
    assert f"invalid value in {path}: task.seed must be >= 0" in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "section, values, key",
    [
        # key: the dotted key the error line names.
        pytest.param("training", {"epochs": 0}, "training.epochs", id="training-values0"),
        pytest.param(
            "training", {"batch_size": 0}, "training.batch_size", id="training-values1"
        ),
        pytest.param("bandit", {"T": -3}, "bandit.T", id="bandit-values2"),
        pytest.param("bandit", {"T": 0}, "bandit.T", id="bandit-values3"),
        pytest.param("task", {"sizes": [0, 10]}, "task.sizes", id="task-values4"),
        pytest.param(
            "bandit", {"reward_holdout": 1.5}, "bandit.reward_holdout", id="bandit-values5"
        ),
        # A removed key.
        pytest.param("bandit", {"cold_start": False}, "bandit.cold_start", id="bandit-values6"),
        # These crashed the command named in the id with a traceback (exit 1),
        # or ran it on a meaningless setting (the non-finite scales, and zero
        # screening repeats, which kept every coordinate on NaN importances),
        # while gen-data accepted most of them.
        pytest.param(
            "sim", {"mu_star": [1.0, 1.0]}, "sim.mu_star", id="bandit-sim:sim.mu_star-tie"
        ),
        pytest.param("sim", {"mu_star": "abc"}, "sim.mu_star", id="bandit-sim:sim.mu_star-text"),
        pytest.param(
            "sim", {"mu_star": [1.0]}, "sim.mu_star", id="bandit-sim:sim.mu_star-one-arm"
        ),
        pytest.param("sim", {"horizons": []}, "sim.horizons", id="bandit-sim:sim.horizons-empty"),
        pytest.param(
            "sim", {"horizons": [0, 10]}, "sim.horizons", id="bandit-sim:sim.horizons-zero"
        ),
        pytest.param(
            "sim", {"noise_sigma": "x"}, "sim.noise_sigma", id="bandit-sim:sim.noise_sigma"
        ),
        pytest.param("sim", {"nu": "x"}, "sim.nu", id="bandit-sim:sim.nu"),
        pytest.param("sim", {"trials": "x"}, "sim.trials", id="bandit-sim:sim.trials"),
        pytest.param("sim", {"nu": float("nan")}, "sim.nu", id="bandit-sim:sim.nu-nan"),
        pytest.param(
            "sim", {"mu_star": [1.0, float("nan")]}, "sim.mu_star", id="bandit-sim:sim.mu_star-nan"
        ),
        pytest.param(
            "sim",
            {"noise_sigma": float("inf")},
            "sim.noise_sigma",
            id="bandit-sim:sim.noise_sigma-inf",
        ),
        pytest.param("task", {"seed": "x"}, "task.seed", id="gen-data:task.seed"),
        pytest.param("task", {"seed": -1}, "task.seed", id="gen-data:task.seed-negative"),
        pytest.param("output", {"dir": 5}, "output.dir", id="gen-data:output.dir"),
        pytest.param(
            "arms",
            {"screen_threshold": "x"},
            "arms.screen_threshold",
            id="discover:arms.screen_threshold",
        ),
        pytest.param(
            "arms",
            {"screen_repeats": "x"},
            "arms.screen_repeats",
            id="discover:arms.screen_repeats",
        ),
        pytest.param(
            "arms",
            {"screen_repeats": 0},
            "arms.screen_repeats",
            id="discover:arms.screen_repeats-zero",
        ),
        pytest.param("bandit", {"nu": "x"}, "bandit.nu", id="discover:bandit.nu"),
        pytest.param("bandit", {"nu": float("inf")}, "bandit.nu", id="discover:bandit.nu-inf"),
        pytest.param(
            "bandit", {"size_bonus": "x"}, "bandit.size_bonus", id="discover:bandit.size_bonus"
        ),
        pytest.param(
            "bandit",
            {"loss_cap": 0, "reward_holdout": 0},
            "bandit.loss_cap",
            id="discover:bandit.loss_cap",
        ),
        # NaN passed the load check: discover trained an arm and then failed
        # on a NaN reward, or screening kept every coordinate.
        pytest.param(
            "bandit",
            {"size_bonus": float("nan")},
            "bandit.size_bonus",
            id="discover:bandit.size_bonus-nan",
        ),
        pytest.param(
            "arms",
            {"screen_threshold": float("nan")},
            "arms.screen_threshold",
            id="discover:arms.screen_threshold-nan",
        ),
        # int() truncated the fraction (2 epochs, 2 pulls), an infinite count
        # raised OverflowError, and bool("no") is true, so screening ran.
        pytest.param("training", {"epochs": 2.5}, "training.epochs", id="discover:training.epochs"),
        pytest.param(
            "training",
            {"epochs": float("inf")},
            "training.epochs",
            id="gen-data:training.epochs-inf",
        ),
        pytest.param("bandit", {"T": 2.7}, "bandit.T", id="discover:bandit.T"),
        # A float count of 1e308 is a whole number to int(): discover ran
        # without end, and bandit-sim died with an OverflowError traceback.
        pytest.param("bandit", {"T": 1e308}, "bandit.T", id="discover:bandit.T-1e308"),
        pytest.param("sim", {"trials": 1e308}, "sim.trials", id="bandit-sim:sim.trials-1e308"),
        pytest.param("arms", {"screen": "no"}, "arms.screen", id="discover:arms.screen"),
        # Settings that discover ran, each of which misses criterion 1's
        # bound (README): unscreened arms, no reward holdout (which fell
        # back to a reward on the training loss) and the absolute loss.
        # loss_cap, which only that fallback read, keeps its one value.
        pytest.param("arms", {"screen": False}, "arms.screen", id="discover:arms.screen-false"),
        pytest.param(
            "bandit",
            {"reward_holdout": 0},
            "bandit.reward_holdout",
            id="discover:bandit.reward_holdout-zero",
        ),
        pytest.param(
            "training", {"loss": "absolute"}, "training.loss", id="discover:training.loss-absolute"
        ),
        pytest.param(
            "bandit", {"loss_cap": 2.0}, "bandit.loss_cap", id="discover:bandit.loss_cap-2"
        ),
        pytest.param(
            "bandit", {"loss_cap": 1e-308}, "bandit.loss_cap", id="discover:bandit.loss_cap-1e-308"
        ),
        pytest.param(
            "bandit", {"loss_cap": 1e308}, "bandit.loss_cap", id="discover:bandit.loss_cap-1e308"
        ),
        # int(True) is 1, so a bool epoch count trained one epoch; a string
        # of digits was read digit by digit (train 4, val 8; horizons 1 and
        # 2); and a fourth size was dropped without a word.
        pytest.param(
            "training", {"epochs": True}, "training.epochs", id="gen-data:training.epochs-bool"
        ),
        pytest.param("task", {"sizes": "48"}, "task.sizes", id="gen-data:task.sizes-string"),
        pytest.param(
            "sim", {"horizons": "12"}, "sim.horizons", id="bandit-sim:sim.horizons-string"
        ),
        pytest.param(
            "task", {"sizes": [8, 4, 4, 4]}, "task.sizes", id="gen-data:task.sizes-four"
        ),
        # These keys had no rule of their own, so the library's message for
        # them did not name the key.  An infinite lr_initial or size_bonus
        # even passed the load check: gen-data ran, and discover failed only
        # after it had created its run directory.
        pytest.param(
            "training",
            {"lr_initial": -1},
            "training.lr_initial",
            id="discover:training.lr_initial-negative",
        ),
        pytest.param(
            "training",
            {"lr_initial": float("inf")},
            "training.lr_initial",
            id="discover:training.lr_initial-inf",
        ),
        pytest.param(
            "training", {"lr_decay": 2}, "training.lr_decay", id="discover:training.lr_decay"
        ),
        pytest.param("training", {"loss": "huber"}, "training.loss", id="discover:training.loss"),
        pytest.param(
            "bandit",
            {"size_bonus": float("inf")},
            "bandit.size_bonus",
            id="discover:bandit.size_bonus-inf",
        ),
    ],
)
def test_cli_invalid_config_values_exit_2(tmp_path, section, values, key):
    # Every section is checked at load, so each command that loads the
    # config exits 2 before it runs.
    path = _write_config(tmp_path, **{section: values})
    for command in ("gen-data", "discover", "bandit-sim"):
        result = CliRunner().invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 2, (command, result.output)
        assert "error:" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit), command
        (line,) = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert key in line, (command, line)
    assert not (tmp_path / "runs").exists()


def test_cli_refuses_non_finite_mu_star_without_a_warning(tmp_path):
    # An infinite mean used to reach LinearInstance, whose 0 * inf product
    # printed a RuntimeWarning before the tie check refused it.
    path = _write_config(tmp_path, sim={"mu_star": [float("inf"), 1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="sim.mu_star"):
            load_config(path)


def test_cli_names_the_bad_key_not_the_task(tmp_path):
    # An empty task.sizes used to surface as "unknown task name 'S_I(4)'".
    path = _write_config(tmp_path, task={"sizes": []})
    result = CliRunner().invoke(main, ["gen-data", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert "task.sizes" in result.output
    assert "unknown task name" not in result.output


def test_cli_unusable_output_dir_exits_2(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    path = _write_config(tmp_path, output={"dir": str(blocker)})
    result = CliRunner().invoke(main, ["gen-data", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "cannot create output directory" in result.output
    # A NUL byte in the path used to raise ValueError, a traceback.
    path = _write_config(tmp_path, output={"dir": "a\0b"})
    result = CliRunner().invoke(main, ["gen-data", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "cannot create output directory" in result.output


@pytest.mark.parametrize(
    "command, artifact",
    [("gen-data", "train.csv"), ("discover", "pulls.csv"), ("bandit-sim", "misid.csv")],
)
def test_cli_unwritable_artifact_exits_2(tmp_path, command, artifact):
    # An artifact that cannot be written is a fault of the output setting:
    # exit 2 with one error line naming it, not a traceback with exit 1,
    # which is the code of a failed suite.
    path = _tiny_config(tmp_path, "task", {})
    tag = "" if command == "discover" else command
    blocked = tmp_path / "runs" / config_hash(load_config(path), tag) / artifact
    blocked.mkdir(parents=True)
    proc = _child(
        "import sys; from symforge.cli import main; main(sys.argv[1:])",
        command, "--config", str(path),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    (line,) = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert str(blocked) in line


def test_each_command_writes_its_own_directory(tmp_path):
    # gen-data, discover and bandit-sim on one config write three
    # directories, so a report or manifest describes every file beside it,
    # and a byte comparison of one command's CSVs sees no other's.
    cfg = load_config(_tiny_config(tmp_path, "task", {}))
    outs = {
        "gen-data": run_gen_data(cfg),
        "discover": run_discover(cfg)[0],
        "bandit-sim": run_bandit_sim(cfg)[0],
    }
    assert sorted((tmp_path / "runs").iterdir()) == sorted(outs.values())
    assert {command: sorted(p.name for p in out.iterdir()) for command, out in outs.items()} == {
        "gen-data": ["manifest.yaml", "train.csv", "val.csv"],
        "discover": ["m1.csv", "m2.csv", "pulls.csv", "ranking.csv", "report.yaml"],
        "bandit-sim": ["misid.csv"],
    }


def test_a_discover_run_writes_its_task_subgroup_as_it_writes_the_winner(tmp_path):
    # report.yaml names the task's subgroup with the record `winner` and
    # `top3` use, 0-based like ranking.csv and screened_coordinates, so a
    # run that finds it shows the same index set; n is its own key.
    out, _ = run_discover(load_config(_tiny_config(tmp_path, "task", {"name": "Z_I(5)"})))
    report = yaml.safe_load((out / "report.yaml").read_text())
    task = report["task"]
    assert task["descriptor"] == {"kind": "cyclic", "index_set": [0, 1, 2, 5, 6]}
    assert set(task["descriptor"]) == set(report["winner"])
    assert task["n"] == 10
    # The winner's record is ranking.csv's first row, on screened coordinates.
    first = (out / "ranking.csv").read_text().splitlines()[1].split(",")
    assert report["winner"] == {"kind": first[1], "index_set": list(map(int, first[2].split()))}
    assert set(report["winner"]["index_set"]) <= set(report["screened_coordinates"])


def test_a_discover_run_replays_from_its_files(tmp_path):
    # The bandit's decisions depend on the rewards alone: lints_loop, fed
    # pulls.csv's rewards and report.yaml's seed, screened coordinates and
    # settings, with no training, gives the run's pulls.csv and
    # ranking.csv, scores as .17g strings included, byte for byte.
    out, _ = run_discover(load_config(_write_config(tmp_path, bandit={"T": 12})))
    report = yaml.safe_load((out / "report.yaml").read_text())
    rows = [row.split(",") for row in (out / "pulls.csv").read_text().splitlines()[1:]]
    n = len(rows[0][1]) - 3
    arms = bandit.filter_arms(enumerate_arms(n), report["screened_coordinates"])
    cfg = bandit.DiscoveryConfig(
        T=report["T"], nu=report["config"]["bandit"]["nu"], seed=report["seed"]
    )
    recorded = lambda t, arm, predict: (float(rows[t - 1][2]), float(rows[t - 1][3]))
    ranking, records, posterior = bandit.lints_loop(arms, cfg, recorded)
    replay = bandit.DiscoveryResult(ranking, records, posterior, None)
    files, _ = cli.discovery_artifacts(replay, [(arm, None) for arm in ranking[:3]])
    for name in ("pulls.csv", "ranking.csv"):
        assert files[name] == (out / name).read_bytes(), name


def test_discover_with_no_rows_to_hold_out(tmp_path):
    # round(0.25 * 2) = 0 held-out rows: no arm can be screened or rewarded
    # on held-out rows, so discover exits 2 naming the split.  It used to
    # keep every coordinate and reward the training loss.  A reference that
    # does not learn (lr 0) is refused too.  A run refused at run time
    # creates no run directory, not even an empty one.
    cases = {
        "0.25 of 2 train rows": {"task": {"sizes": [2, 10]}, "training": {"epochs": 2}},
        "reference fit does no better than the mean": {"training": {"lr_initial": 0}},
    }
    for i, (message, settings) in enumerate(cases.items()):
        case = tmp_path / f"case{i}"
        case.mkdir()
        path = _write_config(case, bandit={"T": 2}, **settings)
        result = CliRunner().invoke(main, ["discover", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        (line,) = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert message in line
        assert not (case / "runs").exists()


def test_discover_without_a_val_split_reports_no_val_mae(tmp_path):
    # With train rows only, every row was fit and rewarded on: an MAE
    # measured there is no validation MAE, so none is reported or printed.
    path = _write_config(
        tmp_path,
        task={"sizes": [48]},
        arms={"screen_repeats": 2},
        bandit={"T": 3},
        training={"epochs": 5},
    )
    result = CliRunner().invoke(main, ["discover", "--config", str(path)])
    assert result.exit_code == 0, result.output
    report = yaml.safe_load(next((tmp_path / "runs").rglob("report.yaml")).read_text())
    assert len(report["top3"]) == 3
    assert all(row["val_mae"] is None for row in report["top3"])
    assert "val_mae=" not in result.output


def test_discover_reports_where_its_fits_ran(tmp_path, monkeypatch):
    # report.yaml counts the fits made in this process, the children forked
    # and their fits taken.  Without children, this process fits each
    # pulled arm once, and each unpulled top-3 arm.
    monkeypatch.setattr(bandit, "_cpu_count", lambda: 1)
    out, report = run_discover(load_config(_tiny_config(tmp_path, "bandit", {})))
    pulled = {row.split(",")[1] for row in (out / "pulls.csv").read_text().splitlines()[1:]}
    fits = yaml.safe_load((out / "report.yaml").read_text())["fits"]
    assert fits == report["fits"]
    assert fits["handed"] == fits["taken"] == 0
    assert len(pulled) <= fits["in_process"] <= len(pulled) + 3


def _tiny_config(tmp_path, section, values):
    """A discover and bandit-sim config that runs in well under a second,
    with `values` set in `section`."""
    tiny = {
        "task": {"sizes": [64, 16]},
        "arms": {"screen_repeats": 2},
        "bandit": {"T": 3},
        "training": {"epochs": 30},
        "sim": {"horizons": [5], "trials": 5},
    }
    tiny[section] = {**tiny[section], **values}
    return _write_config(tmp_path, **tiny)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_discover_refuses_an_infinite_posterior_sample(tmp_path):
    # nu = 1e308 passes the load check, as it is finite, but the scaled
    # sample overflows; it used to reach the argmax and exit 1 with a
    # ValueError traceback.
    path = _tiny_config(tmp_path, "bandit", {"nu": 1e308})
    result = CliRunner().invoke(main, ["discover", "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    (line,) = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert "posterior sample must be finite" in line


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, section, values, error",
    [
        pytest.param("discover", "bandit", {"nu": 1e308}, None, id="discover-bandit.nu-1e308"),
        pytest.param(
            "bandit-sim",
            "sim",
            {"noise_sigma": 1e308},
            None,
            id="bandit-sim-sim.noise_sigma-1e308",
        ),
        # A diverging fit: the reference MLP in screening, and the relaxed
        # front in the ablation.
        pytest.param(
            "discover",
            "training",
            {"lr_initial": 1e300},
            "error: loss became non-finite",
            id="discover-training.lr_initial-1e300",
        ),
        pytest.param(
            "discover --sgd-only",
            "training",
            {"lr_initial": 1e300},
            "error: loss became non-finite",
            id="discover-sgd-only-training.lr_initial-1e300",
        ),
    ],
)
def test_cli_overflow_is_one_error_line_not_a_warning(tmp_path, command, section, values, error):
    # numpy's overflow warnings used to print before the error line; as
    # errors, they turned the run into a traceback.  `error`, when given, is
    # the whole error line.
    path = _tiny_config(tmp_path, section, values)
    result = CliRunner().invoke(main, [*command.split(), "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert error is None or errors == [error]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "section, values",
    [
        pytest.param("bandit", {"nu": 1e308}, id="bandit.nu-1e308"),
        pytest.param("bandit", {"size_bonus": 1e308}, id="bandit.size_bonus-1e308"),
        pytest.param("training", {"lr_initial": 1e308}, id="training.lr_initial-1e308"),
        pytest.param("training", {"lr_decay": 1e-308}, id="training.lr_decay-1e-308"),
        pytest.param("sim", {"nu": 1e308}, id="sim.nu-1e308"),
        pytest.param("sim", {"noise_sigma": 1e308}, id="sim.noise_sigma-1e308"),
        pytest.param("sim", {"mu_star": [1e308, 0.0]}, id="sim.mu_star-1e308"),
    ],
)
def test_cli_extreme_accepted_values_never_trace_back(tmp_path, section, values):
    # The loader accepts each of these values, so every command must either
    # run or exit 2 with an error line, never with another exception.
    path = _tiny_config(tmp_path, section, values)
    load_config(path)
    for command in ("discover", "bandit-sim"):
        result = CliRunner().invoke(main, [command, "--config", str(path)])
        assert result.exit_code in (0, 2), (command, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), command
        if result.exit_code == 2:
            assert any(line.startswith("error:") for line in result.output.splitlines())


# Wrong-typed and edge values for any config key.  Strings stay relative
# paths, as output.dir takes them, and lists stay short.
_SCALARS = [
    math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308, -1e-308, -1, -0.5, 0, 1, 2,
    True, False, None, "", "x", "1e308", "nan", "a\0b",
]
_EDGE_SCALARS = st.sampled_from(_SCALARS)
_EDGE_VALUES = st.one_of(
    _EDGE_SCALARS,
    st.lists(_EDGE_SCALARS, max_size=3),
    st.lists(st.lists(_EDGE_SCALARS, max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.sampled_from(["a", "T"]), _EDGE_SCALARS, min_size=1, max_size=2),
)
_COMMANDS = (["gen-data"], ["discover"], ["discover", "--sgd-only"], ["bandit-sim"])


def _every_scalar(test):
    """The test with each edge scalar as an explicit example, so every key
    meets every one of them, besides the drawn values."""
    for scalar in _SCALARS:
        test = example(value=scalar)(test)
    return test


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", sorted(cli._KEYS))
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@_every_scalar
@given(value=_EDGE_VALUES)
def test_cli_any_config_value_exits_0_or_2(key, value):
    # Whatever one key holds, every command runs or exits 2 with an error
    # line; no other exception escapes.  The commands run in a fresh
    # directory, where a relative output.dir lands.
    section, name = key.split(".")
    tiny = {
        "task": {"name": "S_I(4)", "sizes": [64, 16]},
        "arms": {"screen_repeats": 2},
        "bandit": {"T": 3},
        "training": {"epochs": 5},
        "sim": {"horizons": [5], "trials": 5},
        "output": {"dir": "runs"},
    }
    tiny[section][name] = value
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("config.yaml").write_text(yaml.safe_dump(tiny))
        for command in _COMMANDS:
            result = runner.invoke(main, [*command, "--config", "config.yaml"])
            assert result.exit_code in (0, 2), (command, result.output, result.exception)
            assert result.exception is None or isinstance(result.exception, SystemExit), command
            if result.exit_code == 2:
                assert any(line.startswith("error:") for line in result.output.splitlines())


def test_cli_gen_data_and_bandit_sim_commands(tmp_path):
    runner = CliRunner()
    path = _write_config(tmp_path, sim={"horizons": [20], "trials": 10})
    result = runner.invoke(main, ["gen-data", "--config", str(path)])
    assert result.exit_code == 0, result.output
    assert "wrote datasets" in result.output
    result = runner.invoke(main, ["bandit-sim", "--config", str(path), "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert "misid=" in result.output


def test_cli_verify_command():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--suite", "gradients"])
    assert result.exit_code == 0, result.output
    assert "suite gradients: pass" in result.output


# The lines `symforge verify` printed for each suite before the suites
# shared one verdict formatter.  The gradients value is checked against
# its bound instead.
VERIFY_LINES = {
    "orbits": [
        *(
            f"orbits.{kind}-k{k}: pass"
            for kind in ("cyclic", "dihedral", "symmetric")
            for k in range(2, 6)
        ),
        "orbits.dihedral-duplicate-counterexample: found",
        "suite orbits: pass",
    ],
    "product": [
        "product.cyclic3xsymmetric2: pass",
        "product.dihedral3xcyclic4: pass",
        "suite product: pass",
    ],
    "nonreal": ["nonreal.k3: pass", "nonreal.k4: pass", "nonreal.k5: pass", "suite nonreal: pass"],
    "gradients": ["gradients.max_relative_error: <= 1e-4", "suite gradients: pass"],
    "invariance": [
        "invariance.cyclic-k4: pass",
        "invariance.dihedral-k4: pass",
        "invariance.symmetric-k3: pass",
        "suite invariance: pass",
    ],
}


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_cli_verify_suite_lines(suite):
    result = CliRunner().invoke(main, ["verify", "--suite", suite])
    assert result.exit_code == 0, result.output
    lines = result.stdout.splitlines()
    if suite == "gradients":
        key, value = lines[0].split(": ")
        assert key == "gradients.max_relative_error"
        assert float(value) <= 1e-4
        lines[0] = f"{key}: <= 1e-4"
    assert lines == VERIFY_LINES[suite]


def _failing_counts(k):
    return VerificationReport(
        math.factorial(k), 50, failures=[("cyclic-orbit", 0), ("cyclic-orbit", 1)]
    )


@pytest.mark.parametrize(
    "suite, name, fake, line",
    [
        ("nonreal", "nonrealizability_counts", _failing_counts, "nonreal.k3: 2 failures"),
        (
            "orbits",
            "find_set_e_counterexample",
            lambda: None,
            "orbits.dihedral-duplicate-counterexample: missing",
        ),
        (
            "invariance",
            "check_invariance",
            lambda fn, descriptor: InvarianceReport(0.5, None, None, 1e-9),
            "invariance.cyclic-k4: violation 5.00e-01",
        ),
    ],
    ids=["nonreal", "orbits", "invariance"],
)
def test_cli_verify_failing_report_exits_1(monkeypatch, suite, name, fake, line):
    monkeypatch.setattr(cli, name, fake)
    result = CliRunner().invoke(main, ["verify", "--suite", suite])
    assert result.exit_code == 1, result.output
    assert line in result.stdout.splitlines()
    assert f"suite {suite}: FAIL" in result.stderr
    assert f"suite {suite}: pass" not in result.output


def _child(code, *args):
    """Run `code` with args in a fresh interpreter that imports this
    symforge, on one BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_cli_import_loads_no_scipy():
    code = "import sys, symforge.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = _child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # discover's children are each one os.fork with a pipe; multiprocessing or
    # concurrent.futures would add import time and memory to every command.
    code = (
        "import sys, symforge.cli; "
        "print([m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')])"
    )
    proc = _child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The child caps its address space at 128 MB above what its imports take,
# so the workload fails on allocation before it can press on the machine.
_CAPPED_MAIN = """
import resource, sys
from symforge.cli import main
with open("/proc/self/status") as fh:
    used = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
cap = used + 128 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
main(sys.argv[1:])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc and caps RLIMIT_AS")
@pytest.mark.parametrize(
    "command, section, values",
    [
        ("gen-data", "task", {"sizes": [100_000_000]}),
        ("bandit-sim", "sim", {"trials": 100_000_000}),
    ],
)
def test_cli_out_of_memory_exits_2(tmp_path, command, section, values):
    path = _write_config(tmp_path, **{section: values})
    proc = _child(_CAPPED_MAIN, command, "--config", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: out of memory: the configured workload is too large for this machine"
    ]
