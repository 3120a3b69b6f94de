"""Config loading, experiment runs, CSV determinism, CLI entry points."""

import csv
import math
import re
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedfog.cli import main
from fedfog.ddpg import DdpgHyperParams
from fedfog.dqn import DqnHyperParams
from fedfog.env import EnvConfig
from fedfog.federated import run_training
from fedfog.harness import (CSV_COLUMNS, SECTIONS, ExperimentConfig,
                            RunConfig, SweepConfig, config_from_dict,
                            load_config, rounds_to_threshold, run_experiment,
                            sweep_fap_cpu, sweep_mds, write_csv)

TINY_YAML = textwrap.dedent("""\
    scenario: tiny
    env:
      num_faps: 1
      mds_per_fap: 2
      steps_per_episode: 5
    ddpg:
      hidden: [8, 8]
      replay_capacity: 200
      batch_size: 8
    dqn:
      hidden: [8, 8]
      replay_capacity: 200
      batch_size: 8
    run:
      rounds: 2
      seeds: [1, 2]
      eval_episodes: 4
      eval_last_rounds: 1
    sweeps:
      mds: [1, 2]
      fap_cpu: [4.0e9, 8.0e9]
    """)


@pytest.fixture
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return str(path)


def tiny_cfg(tmp_path, **over):
    data = yaml.safe_load(TINY_YAML)
    data.update(over)
    return replace(config_from_dict(data), out_dir=str(tmp_path / "out"))


def sweep_cfg(tmp_path, kinds, sweeps):
    """The tiny config at one training round per grid point."""
    cfg = tiny_cfg(tmp_path)
    return replace(cfg, run=replace(cfg.run, agent_kinds=kinds,
                                    sweep_rounds=1), sweeps=sweeps)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigLoading:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.run.rounds == 200
        assert cfg.run.seeds == [1, 2, 3]
        assert cfg.env.num_faps == 2
        assert cfg.ddpg.hidden == (300, 100)

    def test_file_sections_applied(self, tiny_cfg_path):
        cfg = load_config(path=tiny_cfg_path)
        assert cfg.scenario == "tiny"
        assert cfg.env.num_faps == 1
        assert cfg.env.steps_per_episode == 5
        assert cfg.ddpg.hidden == (8, 8)
        assert cfg.dqn.batch_size == 8
        assert cfg.run.rounds == 2
        assert cfg.run.seeds == [1, 2]
        assert cfg.sweeps == SweepConfig(mds=[1, 2], fap_cpu=[4.0e9, 8.0e9])

    def test_plain_scientific_literal_coerced(self):
        # pyyaml parses bare 1e7 as a string; the loader must still accept it
        cfg = config_from_dict({"env": {"bandwidth": "1e7"}})
        assert cfg.env.bandwidth == 1e7

    def test_int_field_accepts_whole_float(self):
        cfg = config_from_dict({"run": {"rounds": 3.0}})
        assert cfg.run.rounds == 3

    def test_int_field_rejects_fraction(self):
        with pytest.raises(ValueError, match="run.rounds"):
            config_from_dict({"run": {"rounds": 2.5}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config field bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_section_key_names_section(self):
        with pytest.raises(ValueError, match="env.cell_size"):
            config_from_dict({"env": {"cell_size": 100}})
        with pytest.raises(ValueError, match="run.episodes"):
            config_from_dict({"run": {"episodes": 5}})
        with pytest.raises(ValueError, match="run.workers"):
            config_from_dict({"run": {"workers": 2}})
        with pytest.raises(ValueError, match="run.episodes_per_round"):
            config_from_dict({"run": {"episodes_per_round": 1}})
        with pytest.raises(ValueError, match="sweeps.cpus"):
            config_from_dict({"sweeps": {"cpus": [1e9]}})
        with pytest.raises(ValueError, match="ddpg.alpha"):
            config_from_dict({"ddpg": {"alpha": 0.1}})

    def test_preset_then_file_then_cli(self, tmp_path):
        over = tmp_path / "over.yaml"
        over.write_text("run:\n  rounds: 7\n")
        cfg = load_config(path=str(over), preset="paper-scale",
                          seed=9, out_dir="elsewhere")
        assert cfg.env.num_faps == 4          # from the preset
        assert cfg.run.rounds == 7            # file overrides preset
        assert cfg.run.seeds == [9]           # CLI overrides file
        assert cfg.out_dir == "elsewhere"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            load_config(preset="galaxy-scale")

    def test_validation_failures(self):
        with pytest.raises(ValueError, match="run.seeds"):
            config_from_dict({"run": {"seeds": []}})
        with pytest.raises(ValueError, match="agent_kinds"):
            config_from_dict({"run": {"agent_kinds": ["sarsa"]}})
        with pytest.raises(ValueError, match="run.rounds"):
            config_from_dict({"run": {"rounds": 0}})
        with pytest.raises(ValueError, match="sweeps.mds"):
            config_from_dict({"sweeps": {"mds": [0, 1]}})

    @pytest.mark.parametrize("key, value", [
        ("seeds", [1, 2, 1]), ("agent_kinds", ["local", "oracle", "local"])])
    def test_repeated_entries_refused(self, key, value):
        with pytest.raises(ValueError, match=re.escape(
                f"run.{key} must not repeat, got {value!r}")):
            config_from_dict({"run": {key: value}})
        with pytest.raises(ValueError, match=f"^{key} must not repeat"):
            replace(ExperimentConfig().run, **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("mds", [2, 2]), ("fap_cpu", [5e9, 2e9, 5e9]), ("mds", []),
        ("fap_cpu", [])])
    def test_sweep_grid_empty_or_repeated_refused(self, key, value):
        rule = "must not repeat" if value else "must be a non-empty list"
        message = f"{key} {rule}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(f"sweeps.{message}")):
            config_from_dict({"sweeps": {key: value}})
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            replace(ExperimentConfig().sweeps, **{key: value})

    def test_negative_seed_refused_before_any_cell_runs(self, tiny_cfg_path,
                                                        tmp_path, capsys):
        rule = "seeds must be a non-empty list of integers >= 0"
        with pytest.raises(ValueError, match=re.escape(
                f"run.{rule}, got [1, -1]")):
            config_from_dict({"run": {"seeds": [1, -1]}})
        with pytest.raises(ValueError, match=f"^{rule}"):
            replace(ExperimentConfig().run, seeds=[1, -1])
        # --seed replaces the seed list through the same check
        with pytest.raises(ValueError, match=re.escape(f"{rule}, got [-1]")):
            load_config(path=tiny_cfg_path, seed=-1)
        out = tmp_path / "refused"
        assert main(["train", "--config", tiny_cfg_path, "--seed", "-1",
                     "--out", str(out)]) == 1
        assert f"{rule}, got [-1]" in capsys.readouterr().err
        assert not out.exists()

    def test_sections_check_themselves_when_built(self):
        with pytest.raises(ValueError, match="^rounds must be >= 1"):
            RunConfig(rounds=0)
        with pytest.raises(ValueError, match="^seeds must be a non-empty"):
            replace(ExperimentConfig().run, seeds=[])
        with pytest.raises(ValueError, match="^mds entries must be >= 1"):
            SweepConfig(mds=[0])

    @pytest.mark.parametrize("field,text", [
        ("env.bandwidth", ".nan"), ("env.bandwidth", "nan"),
        ("env.fap_cpu", ".inf"), ("env.fap_cpu", "inf"),
        ("ddpg.actor_lr", ".nan"), ("ddpg.actor_lr", "nan"),
        ("dqn.lr", "-.inf"), ("env.md_cpu_range", "[1.0e9, .inf]")])
    def test_non_finite_float_refused_naming_field(self, tmp_path, field, text):
        # YAML reads .nan and .inf as floats and bare nan and inf as strings;
        # either way the loader refuses them by field path
        section, key = field.split(".")
        path = tmp_path / "bad.yaml"
        path.write_text(f"{section}:\n  {key}: {text}\n")
        with pytest.raises(ValueError, match=re.escape(field)) as exc:
            load_config(path=str(path))
        assert "must be a finite number" in str(exc.value)

    @pytest.mark.parametrize("section,key,value", [
        ("ddpg", "hidden", [16]), ("ddpg", "hidden", [0, 8]),
        ("ddpg", "batch_size", 0), ("dqn", "batch_size", 0),
        ("dqn", "lr", -1.0), ("ddpg", "noise_decay", -1.0),
        ("ddpg", "critic_lr", 0.0), ("ddpg", "noise_std", -0.1),
        ("ddpg", "noise_floor", -1.0), ("dqn", "epsilon_decay", 0.0),
        ("dqn", "epsilon_start", 1.5), ("dqn", "epsilon_floor", -0.1),
        ("env", "weight_delay", 1.5), ("env", "md_cpu_range", [1e9]),
        ("env", "md_cpu_range", [1.0, 2.0, 3.0]), ("env", "md_cpu_range", [])])
    def test_bad_hyperparameter_refused_naming_field(self, section, key,
                                                     value):
        with pytest.raises(ValueError, match=rf"^{section}\.{key} must "):
            config_from_dict({section: {key: value}})

    def test_boundary_hyperparameters_accepted(self):
        cfg = config_from_dict({
            "ddpg": {"noise_std": 0.0, "gamma": 0.0, "noise_decay": 1.0,
                     "tau": 1.0, "hidden": [1, 1], "batch_size": 1},
            "dqn": {"epsilon_start": 0.0, "epsilon_floor": 1.0,
                    "batch_size": 20000, "hidden": [8, 8]}})
        assert cfg.ddpg.hidden == (1, 1) and cfg.dqn.batch_size == 20000

    def test_readme_block_is_the_defaults_and_names_every_field(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        data = yaml.safe_load(text.split("```yaml\n", 1)[1].split("```")[0])
        assert config_from_dict(data) == ExperimentConfig()
        sections = {"env": EnvConfig, "ddpg": DdpgHyperParams,
                    "dqn": DqnHyperParams, "run": RunConfig,
                    "sweeps": SweepConfig}
        assert SECTIONS == sections
        for section, cls in sections.items():
            assert sorted(data[section]) == sorted(f.name
                                                   for f in fields(cls))

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ValueError, match="mapping"):
            load_config(path=str(path))


class TestCsvWriting:
    def test_round_trip_and_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1, 0.1 + 0.2), ("x", 1e-27)])
        rows = read_rows(path)
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "0.3"]        # 12 significant digits
        assert rows[2] == ["x", "1e-27"]

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a",), [(1,)])
        raw = path.read_bytes()
        assert b"\r" not in raw


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    cfg = tiny_cfg(tmp_path_factory.mktemp("exp"))
    return run_experiment(cfg)


class TestRunExperiment:
    def test_files_written(self, result):
        import os
        names = sorted(os.path.basename(p) for p in result.files)
        kinds = result.config.run.agent_kinds
        seeds = result.config.run.seeds
        expected = sorted([f"tiny-{k}-s{s}.csv" for k in kinds for s in seeds]
                          + ["aggregate.csv", "eval.csv",
                             "eval-aggregate.csv"])
        assert names == expected
        for p in result.files:
            assert os.path.exists(p)

    def test_column_order(self, result):
        per_run = [p for p in result.files if "-s1" in p][0]
        rows = read_rows(per_run)
        assert tuple(rows[0]) == CSV_COLUMNS

    def test_cost_identity_in_rows(self, result):
        # default weights are 0.5/0.5 so every row must satisfy
        # cost = 0.5*delay + 0.5*energy up to the 12-digit rounding
        for path in result.files:
            if "aggregate" in path or path.endswith("eval.csv"):
                continue
            for row in read_rows(path)[1:]:
                cost, delay, energy = map(float, row[4:7])
                assert cost == pytest.approx(0.5 * delay + 0.5 * energy,
                                             abs=1e-9)

    def test_aggregate_recomputable_exactly(self, result):
        run = result.config.run
        agg = {(r[0], r[1]): r[2:] for r in read_rows(
            [p for p in result.files if p.endswith("aggregate.csv")
             and "eval" not in p][0])[1:]}
        per_run = {}
        for kind in run.agent_kinds:
            for seed in run.seeds:
                path = [p for p in result.files
                        if p.endswith(f"tiny-{kind}-s{seed}.csv")][0]
                per_run[(kind, seed)] = read_rows(path)[1:]
        fmt = lambda x: format(float(format(x, ".12g")), ".12g")
        for (kind, rnd), cells in agg.items():
            j = int(rnd) - 1
            for col in range(4):
                vals = np.array([float(per_run[(kind, s)][j][3 + col])
                                 for s in run.seeds])
                assert cells[2 * col] == fmt(vals.mean())
                assert cells[2 * col + 1] == fmt(vals.std())

    def test_baseline_curves_are_flat(self, result):
        path = [p for p in result.files if p.endswith("tiny-local-s1.csv")][0]
        rows = read_rows(path)[1:]
        assert len(rows) == result.config.run.rounds
        assert len({r[4] for r in rows}) == 1

    def test_repeat_is_byte_identical(self, tmp_path):
        import os
        cfg_a = tiny_cfg(tmp_path / "a")
        cfg_b = tiny_cfg(tmp_path / "b")
        ra, rb = run_experiment(cfg_a), run_experiment(cfg_b)
        for pa, pb in zip(sorted(ra.files), sorted(rb.files)):
            assert os.path.basename(pa) == os.path.basename(pb)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), pa

    def test_workers_match_serial(self, tmp_path, monkeypatch):
        # a pool of worker_count processes writes what one process writes
        import os
        import fedfog.federated as fed
        monkeypatch.setattr(fed, "_thread_count", lambda: 1)
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(fed, "_usable_cpus", lambda: cpus)
            assert fed.worker_count(10) == cpus
            runs[cpus] = run_experiment(tiny_cfg(tmp_path / str(cpus)))
        rs, rp = runs[1], runs[2]
        assert len(rs.files) == len(rp.files)
        for ps, pp in zip(sorted(rs.files), sorted(rp.files)):
            assert os.path.basename(ps) == os.path.basename(pp)
            with open(ps, "rb") as fs, open(pp, "rb") as fp:
                assert fs.read() == fp.read(), ps

    def test_checkpoints_saved_for_trained_kinds(self, result):
        import os
        ckpt_root = os.path.join(result.config.out_dir, "checkpoints")
        dirs = sorted(os.listdir(ckpt_root))
        assert "tiny-fed-ddpg-s1" in dirs
        assert "tiny-fed-dqn-s2" in dirs
        files = os.listdir(os.path.join(ckpt_root, "tiny-fed-ddpg-s1"))
        assert files == ["ddpg-round00002.ckpt"]


class TestSweeps:
    def test_md_sweep_structure(self, tmp_path):
        path, rows = sweep_mds(sweep_cfg(tmp_path, ["local", "fap-equal"],
                                         SweepConfig(mds=[1, 2])))
        assert len(rows) == 4                 # 2 values x 2 kinds
        header = read_rows(path)[0]
        assert header[:2] == ["num_mds", "kind"]
        assert {row[1] for row in rows} == {"local", "fap-equal"}
        assert all(np.isfinite(row[2]) for row in rows)

    def test_cpu_sweep_runs(self, tmp_path):
        path, rows = sweep_fap_cpu(sweep_cfg(tmp_path, ["local", "oracle"],
                                             SweepConfig(fap_cpu=[4e9, 8e9])))
        assert len(rows) == 4
        # offloading gets cheaper with a faster FAP, staying local does not
        orc = [r for r in rows if r[1] == "oracle"]
        assert orc[1][2 + 2 * 1] <= orc[0][2 + 2 * 1]

    def test_sweep_rows_are_the_eval_aggregates(self, tmp_path):
        path, _ = sweep_mds(sweep_cfg(tmp_path, ["local", "fap-equal", "oracle"],
                                      SweepConfig(mds=[1, 2])))
        sweep = read_rows(path)
        want = []
        for m in ("1", "2"):
            agg = read_rows(tmp_path / "out" / f"num_mds-{m}"
                            / "eval-aggregate.csv")
            assert sweep[0][1:] == agg[0]
            want += [[m, *row] for row in agg[1:]]
        assert sweep[1:] == want


    def test_oracle_over_budget_refused_before_any_grid_value(self, tmp_path):
        cfg = sweep_cfg(tmp_path, ["local", "oracle"], SweepConfig(mds=[1, 13]))
        with pytest.raises(ValueError, match=re.escape(
                "sweeps.mds entry 13 exceeds ORACLE_MAX_MDS=12")):
            sweep_mds(cfg)
        assert not (tmp_path / "out").exists()
        cfg = sweep_cfg(tmp_path, ["local"], SweepConfig(mds=[1, 13]))
        _, rows = sweep_mds(cfg)
        assert [row[0] for row in rows] == [1, 13]


class TestThreshold:
    def test_first_crossing(self):
        assert rounds_to_threshold([5.0, 4.0, 3.0, 4.0], 3.5) == 3.0
        assert rounds_to_threshold([5.0, 4.0], 1.0) == math.inf
        assert rounds_to_threshold([], 1.0) == math.inf
        assert rounds_to_threshold([2.0], 2.0) == 1.0


class TestCli:
    def test_train_command(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "cli-out"
        rc = main(["train", "--config", tiny_cfg_path, "--out", str(out),
                   "--seed", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "eval cost" in captured.out
        assert (out / "eval.csv").exists()
        # the tail is the mean eval cost of the last run.eval_last_rounds
        # rounds; for an untrained kind it is its eval cost
        cfg = load_config(tiny_cfg_path)
        tail = run_training(cfg.env, "ddpg", 1, cfg.run.rounds, ddpg_hp=cfg.ddpg,
                            eval_last_rounds=1).reports[-1].eval_cost
        ddpg_line = next(line for line in captured.out.splitlines()
                         if line.startswith("fed-ddpg:"))
        assert ddpg_line.endswith(f"tail eval cost {tail:.6g}")
        local_cost = float(next(row for row in read_rows(out / "eval.csv")
                                if "-local-" in row[0])[4])
        assert f"local: eval cost {local_cost:.6g} (std 0), tail eval cost " \
            f"{local_cost:.6g}" in captured.out

    def test_sweep_commands(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "sweeps"
        data = yaml.safe_load(TINY_YAML)
        data["run"]["agent_kinds"] = ["local", "fap-equal"]
        data["run"]["sweep_rounds"] = 1
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["sweep-mds", "--config", str(path),
                     "--out", str(out / "m")]) == 0
        assert main(["sweep-cpu", "--config", str(path),
                     "--out", str(out / "f")]) == 0
        assert (out / "m" / "sweep-num_mds.csv").exists()
        assert (out / "f" / "sweep-fap_cpu.csv").exists()

    def test_eval_command_reads_checkpoint(self, tiny_cfg_path, tmp_path,
                                           capsys):
        out = tmp_path / "train-out"
        assert main(["train", "--config", tiny_cfg_path, "--out", str(out),
                     "--seed", "1"]) == 0
        ckpt = out / "checkpoints" / "tiny-fed-ddpg-s1" / "ddpg-round00002.ckpt"
        assert ckpt.exists()
        capsys.readouterr()
        rc = main(["eval", "--config", tiny_cfg_path,
                   "--checkpoint", str(ckpt)])
        assert rc == 0
        assert "round 2" in capsys.readouterr().out

    def test_oracle_over_budget_refused_before_training(self, tmp_path,
                                                        capsys):
        data = yaml.safe_load(TINY_YAML)
        data["env"]["mds_per_fap"] = 13
        data["run"].update(seeds=[1], agent_kinds=["fed-ddpg", "oracle"])
        with_oracle = tmp_path / "oracle.yaml"
        with_oracle.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main(["train", "--config", str(with_oracle),
                     "--out", str(out)]) == 1
        assert "env.mds_per_fap 13 exceeds ORACLE_MAX_MDS=12" in \
            capsys.readouterr().err
        assert not out.exists()
        # the same cell trains without the oracle, and eval still reads the
        # config that lists it, since eval never runs the oracle
        data["run"]["agent_kinds"] = ["fed-ddpg"]
        without = tmp_path / "no-oracle.yaml"
        without.write_text(yaml.safe_dump(data))
        assert main(["train", "--config", str(without),
                     "--out", str(out)]) == 0
        ckpt = out / "checkpoints" / "tiny-fed-ddpg-s1" / "ddpg-round00002.ckpt"
        assert main(["eval", "--config", str(with_oracle),
                     "--checkpoint", str(ckpt)]) == 0

    def test_invalid_config_reports_and_fails(self, tmp_path, capsys):
        for key in ("warp_drive", "rng_seed", "weight_energy"):
            bad = tmp_path / "bad.yaml"
            bad.write_text(f"env:\n  {key}: 0.5\n")
            rc = main(["train", "--config", str(bad)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "error:" in err
            assert f"unknown config field env.{key}" in err

    @pytest.mark.parametrize("field,value,message", [
        ("sweeps.mds", "[2.5, 3]", "sweeps.mds[0] must be an integer, got 2.5"),
        ("sweeps.mds", "3", "sweeps.mds must be a list, got 3"),
        ("ddpg.hidden", "300", "ddpg.hidden must be a list, got 300"),
        ("run.agent_kinds", "fed-ddpg",
         "run.agent_kinds must be a list, got 'fed-ddpg'"),
        ("run.rounds", "abc", "run.rounds must be an integer, got 'abc'"),
        ("env.num_faps", "two", "env.num_faps must be an integer, got 'two'"),
        ("run.seeds", "3", "run.seeds must be a list, got 3"),
        ("env.bandwidth", "true",
         "env.bandwidth must be a finite number, got True"),
        ("run.save_checkpoints", "1",
         "run.save_checkpoints must be true/false, got 1"),
    ])
    def test_wrong_kind_value_refused_naming_field(self, tmp_path, capsys,
                                                   field, value, message):
        # eval reads the config before the checkpoint, so a config that
        # loads fails fast on the missing checkpoint instead of training
        section, key = field.split(".")
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"{section}:\n  {key}: {value}\n")
        assert main(["eval", "--config", str(bad), "--checkpoint",
                     str(tmp_path / "none.ckpt")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_unread_flags_refused(self, tmp_path):
        ckpt = str(tmp_path / "model.ckpt")
        for argv in (["train", "--workers", "2"],
                     ["eval", "--checkpoint", ckpt, "--workers", "2"],
                     ["convergence"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_repeat_byte_identical(self, tiny_cfg_path, tmp_path):
        import filecmp
        import os
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert main(["train", "--config", tiny_cfg_path, "--out", str(a),
                     "--seed", "3"]) == 0
        assert main(["train", "--config", tiny_cfg_path, "--out", str(b),
                     "--seed", "3"]) == 0
        csvs = sorted(p for p in os.listdir(a) if p.endswith(".csv"))
        assert csvs
        for name in csvs:
            assert filecmp.cmp(a / name, b / name, shallow=False), name
