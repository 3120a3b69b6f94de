"""Weight averaging and the synchronous round protocol."""

import os
import signal
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedfog.federated as fed
import fedfog.harness as harness
from fedfog.ddpg import DdpgAgent, DdpgHyperParams
from fedfog.dqn import DqnHyperParams
from fedfog.env import EnvConfig
from fedfog.federated import (ClientProcessError, GlobalModel, RoundReport,
                              build_agent, evaluate_global, evaluate_policy,
                              federated_average, fork_map,
                              load_round_checkpoint, make_eval_envs,
                              run_round, run_training, save_round_checkpoint,
                              setup_federation)
from fedfog.harness import ExperimentConfig, RunConfig, run_experiment
from fedfog.nn import FlatWeights, flatten_mlp, init_mlp, shared_zeros


def small_env(**over):
    base = dict(num_faps=2, mds_per_fap=2, steps_per_episode=10)
    base.update(over)
    return EnvConfig(**base)


def small_ddpg(**over):
    base = dict(hidden=(8, 8), replay_capacity=200, batch_size=16)
    base.update(over)
    return DdpgHyperParams(**base)


def small_dqn(**over):
    base = dict(hidden=(8, 8), replay_capacity=200, batch_size=16)
    base.update(over)
    return DqnHyperParams(**base)


def flat_like(values):
    v = np.asarray(values, dtype=float)
    return FlatWeights(v, [(v.size,)], [0], [])


class TestFederatedAverage:
    def test_two_vector_mean(self):
        out = federated_average([flat_like([1.0, 3.0]), flat_like([3.0, 5.0])])
        np.testing.assert_array_equal(out.values, [2.0, 4.0])

    def test_single_upload_identity(self):
        src = flat_like([0.1, -2.0, 7.5])
        out = federated_average([src])
        np.testing.assert_array_equal(out.values, src.values)

    def test_consensus_idempotent(self):
        src = flat_like(np.random.default_rng(0).normal(size=50))
        out = federated_average([src, src, src])
        np.testing.assert_array_equal(out.values, src.values)

    def test_matches_numpy_mean_on_real_nets(self):
        rng = np.random.default_rng(1)
        flats = [flatten_mlp(init_mlp(rng, [4, 8, 2], "sigmoid"))
                 for _ in range(5)]
        out = federated_average(flats)
        expect = np.mean(np.stack([f.values for f in flats]), axis=0)
        assert np.max(np.abs(out.values - expect)) <= 1e-12

    def test_layout_preserved(self):
        rng = np.random.default_rng(2)
        flats = [flatten_mlp(init_mlp(rng, [3, 5, 2], "relu")) for _ in range(3)]
        out = federated_average(flats)
        assert out.layout() == flats[0].layout()

    def test_layout_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        a = flatten_mlp(init_mlp(rng, [3, 5, 2], "relu"))
        b = flatten_mlp(init_mlp(rng, [3, 6, 2], "relu"))
        with pytest.raises(ValueError):
            federated_average([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            federated_average([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
                    min_size=1, max_size=6))
    @example([[996116.0] * 4, [-996009.9999999999] * 4])
    def test_linearity_property(self, rows):
        flats = [flat_like(r) for r in rows]
        out = federated_average(flats)
        values = np.array(rows, dtype=float)
        expect = np.mean(values, axis=0)
        # Uploads that nearly cancel leave a mean far below the inputs, and
        # both means round at the inputs' scale (the example above is off by
        # half an input ulp), so the bound scales with the inputs.
        scale = max(1.0, float(np.abs(values).max()))
        atol = 4 * np.finfo(float).eps * len(rows) * scale
        np.testing.assert_allclose(out.values, expect, rtol=1e-12, atol=atol)


class TestSetup:
    def test_agents_start_from_identical_weights(self):
        cfg = small_env()
        agents, envs, eval_envs, model = setup_federation(
            cfg, "ddpg", seed=7, ddpg_hp=small_ddpg())
        assert len(agents) == len(envs) == len(eval_envs) == cfg.num_faps
        for agent in agents:
            agent.load_global(model.weights)
        w0 = agents[0].export_weights().values
        for agent in agents[1:]:
            np.testing.assert_array_equal(agent.export_weights().values, w0)

    def test_envs_draw_distinct_episodes(self):
        cfg = small_env()
        _, envs, _, _ = setup_federation(cfg, "ddpg", seed=7,
                                         ddpg_hp=small_ddpg())
        s0, s1 = envs[0].reset(), envs[1].reset()
        assert not np.array_equal(s0.task_bits, s1.task_bits)

    def test_eval_envs_reproducible_across_calls(self):
        cfg = small_env()
        a = make_eval_envs(cfg, seed=7)
        b = make_eval_envs(cfg, seed=7)
        for ea, eb in zip(a, b):
            sa, sb = ea.reset(), eb.reset()
            np.testing.assert_array_equal(sa.task_bits, sb.task_bits)
            np.testing.assert_array_equal(sa.md_positions, sb.md_positions)

    def test_eval_envs_match_federation_layout(self):
        cfg = small_env()
        _, _, eval_envs, _ = setup_federation(cfg, "ddpg", seed=9,
                                              ddpg_hp=small_ddpg())
        again = make_eval_envs(cfg, seed=9)
        for ea, eb in zip(eval_envs, again):
            np.testing.assert_array_equal(ea.reset().task_bits,
                                          eb.reset().task_bits)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_agent("sarsa", small_env(), 0)


class TestRounds:
    def test_round_count_and_indices(self):
        res = run_training(small_env(), "ddpg", seed=1, rounds=3,
                           ddpg_hp=small_ddpg())
        assert [r.round_index for r in res.reports] == [1, 2, 3]
        assert res.global_model.round_index == 3

    @pytest.mark.parametrize("checkpoint_every", [0, 2])
    @pytest.mark.parametrize("rounds", [0, -3])
    def test_no_rounds_rejected(self, rounds, checkpoint_every, tmp_path):
        # neither a checkpoint nor an untrained model comes back
        with pytest.raises(ValueError, match=f"rounds must be >= 1, "
                                             f"got {rounds}"):
            run_training(small_env(), "ddpg", seed=2, rounds=rounds,
                         ddpg_hp=small_ddpg(), checkpoint_dir=tmp_path,
                         checkpoint_every=checkpoint_every)
        assert not any(tmp_path.iterdir())

    def test_training_is_deterministic(self):
        cfg = small_env()
        runs = [run_training(cfg, "ddpg", seed=3, rounds=3,
                             ddpg_hp=small_ddpg()) for _ in range(2)]
        a, b = runs
        np.testing.assert_array_equal(a.global_model.weights.values,
                                      b.global_model.weights.values)
        assert [r.mean_cost for r in a.reports] == [r.mean_cost for r in b.reports]

    def test_single_fap_equals_solo_training(self):
        # N = 1 federation averages one upload, which must replay exactly the
        # non-federated loop given the same env/agent seeds
        cfg = small_env(num_faps=1)
        res = run_training(cfg, "ddpg", seed=4, rounds=3, ddpg_hp=small_ddpg())

        seeds = np.random.SeedSequence(4).spawn(4)
        init = DdpgAgent(cfg.mds_per_fap, small_ddpg(), seed=seeds[0])
        solo = DdpgAgent(cfg.mds_per_fap, small_ddpg(), seed=seeds[2])
        env = fed.FogCellEnv(cfg, seed=seeds[1])
        global_w = init.export_weights()
        for _ in range(3):
            solo.load_global(global_w)
            solo.train_episode(env)
            global_w = federated_average([solo.export_weights()])
        np.testing.assert_array_equal(res.global_model.weights.values,
                                      global_w.values)

    def test_round_report_metric_identity(self):
        cfg = small_env(weight_delay=0.4)
        res = run_training(cfg, "ddpg", seed=5, rounds=2, ddpg_hp=small_ddpg())
        for rep in res.reports:
            assert rep.mean_cost == pytest.approx(
                0.4 * rep.mean_delay + 0.6 * rep.mean_energy, abs=1e-9)
            assert rep.mean_reward == pytest.approx(
                -rep.mean_cost / cfg.mds_per_fap, rel=1e-9)

    def test_dqn_rounds_run(self):
        res = run_training(small_env(), "dqn", seed=6, rounds=2,
                           dqn_hp=small_dqn())
        assert len(res.reports) == 2
        assert np.all(np.isfinite(res.global_model.weights.values))

    def test_only_weight_vectors_cross_the_boundary(self, monkeypatch):
        seen = []
        real = fed.federated_average

        def spy(uploads):
            seen.append(uploads)
            return real(uploads)

        monkeypatch.setattr(fed, "federated_average", spy)
        run_training(small_env(), "ddpg", seed=7, rounds=2, ddpg_hp=small_ddpg())
        assert seen, "averaging never invoked"
        for uploads in seen:
            assert all(isinstance(u, FlatWeights) for u in uploads)

    def test_eval_tail_recorded(self):
        res = run_training(small_env(), "ddpg", seed=8, rounds=5,
                           ddpg_hp=small_ddpg(), eval_last_rounds=2)
        tail = [r.eval_cost for r in res.reports]
        assert all(np.isnan(c) for c in tail[:3])
        assert all(np.isfinite(c) for c in tail[3:])


def serial_round(agents, envs, model):
    """Reference round: the agents train one after another on this thread."""
    for agent in agents:
        agent.load_global(model.weights)
    rows = []
    for agent, env in zip(agents, envs):
        agent.train_episode(env)
        rows.append(env.episode_metrics())
    reward, cost, delay, energy = (float(np.mean(c)) for c in zip(*rows))
    averaged = federated_average([agent.export_weights() for agent in agents])
    new = GlobalModel(averaged, model.round_index + 1, model.agent_kind)
    return new, RoundReport(new.round_index,
                            reward / envs[0].config.steps_per_episode,
                            cost, delay, energy)


def three_rounds(kind, cfg, round_fn):
    agents, envs, _, model = setup_federation(
        cfg, kind, 11, ddpg_hp=small_ddpg(), dqn_hp=small_dqn())
    reports = []
    for _ in range(3):
        model, report = round_fn(agents, envs, model)
        reports.append(report)
    return model, reports, agents, envs


def snapshot(obj):
    """Comparable image of an object's full state, scratch gradients aside:
    arrays by bytes, generators by bit-generator state, objects by their
    attributes."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, np.random.Generator):
        return snapshot(obj.bit_generator.state)
    if isinstance(obj, dict):
        return {k: snapshot(v) for k, v in obj.items() if k != "grad"}
    if isinstance(obj, (list, tuple)):
        return [snapshot(v) for v in obj]
    if isinstance(obj, float):
        return obj.hex()
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, snapshot(vars(obj))
    return obj


CELLS = [("ddpg", small_env(num_faps=2, mds_per_fap=3)),
         ("dqn", small_env(num_faps=4, mds_per_fap=5))]


@pytest.fixture
def forks(monkeypatch):
    """Let rounds fork whatever the BLAS; returns the pids of the children
    this process forks."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(fed, "_blas_threads", lambda: 1)
    pids = []
    real = os.fork

    def spy():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def no_child_left(pids):
    # per pid: the suite's process pools leave other children running
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def experiment_files(root):
    """Run a small 5-kind, 2-seed experiment into `root`; its files' bytes
    by relative path."""
    cfg = ExperimentConfig(env=small_env(), ddpg=small_ddpg(), dqn=small_dqn(),
                           run=RunConfig(rounds=3, seeds=[1, 2],
                                         eval_episodes=2, eval_last_rounds=1),
                           out_dir=str(root))
    run_experiment(cfg)
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


class TestConcurrentRounds:
    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("kind,cfg", CELLS, ids=["ddpg-2x3", "dqn-4x5"])
    def test_forked_round_matches_serial_loop(self, kind, cfg, cpus, forks,
                                              monkeypatch):
        monkeypatch.setattr(fed, "_usable_cpus", lambda: cpus)
        model, reports, agents, envs = three_rounds(kind, cfg, run_round)
        assert len(forks) == 3 * min(cpus, cfg.num_faps)
        ref_model, ref_reports, ref_agents, ref_envs = three_rounds(
            kind, cfg, serial_round)
        np.testing.assert_array_equal(model.weights.values,
                                      ref_model.weights.values)
        assert model.round_index == ref_model.round_index == 3
        assert reports == ref_reports
        # the state each child sends back, and the shared arrays it wrote
        for agent, ref in zip(agents, ref_agents):
            assert agent.buffer.size == ref.buffer.size > 0
            opts = ([agent.actor_opt, agent.critic_opt] if kind == "ddpg"
                    else [agent.opt])
            assert all(opt.step_count > 0 for opt in opts)
            assert snapshot(agent) == snapshot(ref)
        for env, ref in zip(envs, ref_envs):
            assert env.t == ref.t > 0
            assert snapshot(env) == snapshot(ref)
            # the episode's trace, drawn at reset(), comes back with the env
            assert snapshot(env._trace) == snapshot(ref._trace)
            np.testing.assert_array_equal(env.state.task_bits,
                                          env._trace[0][env.t])
        no_child_left(forks)

    def test_one_cpu_gives_same_results_on_one_thread(self, forks,
                                                      monkeypatch):
        kind, cfg = CELLS[1]
        monkeypatch.setattr(fed, "_usable_cpus", lambda: cfg.num_faps)
        model, reports, agents, _ = three_rounds(kind, cfg, run_round)
        assert forks
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 1)
        forks.clear()
        one_model, one_reports, one_agents, _ = three_rounds(kind, cfg,
                                                             run_round)
        assert not forks
        np.testing.assert_array_equal(model.weights.values,
                                      one_model.weights.values)
        assert reports == one_reports
        assert snapshot(agents) == snapshot(one_agents)

    @pytest.fixture(scope="class")
    def serial_files(self, tmp_path_factory):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fed, "_usable_cpus", lambda: 1)
            return experiment_files(tmp_path_factory.mktemp("serial"))

    @pytest.mark.parametrize("threads", [2, None])
    def test_multithreaded_or_unknown_blas_trains_in_process(
            self, threads, serial_files, tmp_path, forks, monkeypatch):
        # a forked child restarts a multi-threaded BLAS's spinning threads
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(fed, "_blas_threads", lambda: threads)
        assert fed.worker_count(4) == 1
        agents, envs, _, model = setup_federation(small_env(), "dqn", 3,
                                                  dqn_hp=small_dqn())
        run_round(agents, envs, model)
        # nor does an experiment start a pool for its (kind, seed) cells
        assert experiment_files(tmp_path) == serial_files
        assert not forks

    def test_blas_thread_count_is_read(self):
        threads = fed._blas_threads()
        if threads is None:
            pytest.skip("the loaded BLAS does not report its thread count")
        if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
            pytest.skip("BLAS is not pinned to one thread")
        assert threads == 1

    @pytest.fixture
    def three_agents(self, forks, monkeypatch):
        cfg = small_env(num_faps=3)
        monkeypatch.setattr(fed, "_usable_cpus", lambda: cfg.num_faps)
        agents, envs, _, model = setup_federation(cfg, "ddpg", 12,
                                                  ddpg_hp=small_ddpg())
        run_round(agents, envs, model)
        no_child_left(forks)
        return agents, envs, model, forks

    def test_first_failing_agent_aborts_round(self, three_agents):
        agents, envs, model, forks = three_agents

        def fail_late(env):
            time.sleep(0.05)
            raise RuntimeError("agent 0 failed")

        def fail_now(env):
            raise RuntimeError("agent 2 failed")

        agents[0].train_episode = fail_late
        agents[2].train_episode = fail_now
        with pytest.raises(RuntimeError, match="agent 0 failed") as info:
            run_round(agents, envs, model)
        assert isinstance(info.value.__cause__, ClientProcessError)
        assert "agent 0 failed in its training process" in str(
            info.value.__cause__)
        assert "fail_late" in str(info.value.__cause__)   # child traceback
        no_child_left(forks)

    def test_exception_that_cannot_be_pickled(self, three_agents):
        agents, envs, model, forks = three_agents

        class LocalError(Exception):
            pass

        def fail(env):
            raise LocalError("no way back")

        agents[1].train_episode = fail
        with pytest.raises(ClientProcessError,
                           match="agent 1 failed .* could not be sent back"
                           ) as info:
            run_round(agents, envs, model)
        assert "LocalError: no way back" in str(info.value)
        no_child_left(forks)

    def test_killed_child(self, three_agents):
        agents, envs, model, forks = three_agents

        def die(env):
            os.kill(os.getpid(), signal.SIGKILL)

        agents[1].train_episode = die
        with pytest.raises(ClientProcessError,
                           match="agent 1's training process was killed by "
                                 "SIGKILL"):
            run_round(agents, envs, model)
        no_child_left(forks)

    def test_pool_workers_write_the_same_files(self, serial_files, tmp_path,
                                               forks, monkeypatch):
        # the pool's two children hold one CPU each, so their rounds train
        # in process
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 2)
        assert fed.worker_count(10) == 2
        assert experiment_files(tmp_path) == serial_files
        assert any(p.suffix == ".ckpt" for p in serial_files)
        assert len(forks) == 2
        no_child_left(forks)


class TestForkMap:
    def test_no_jobs_fork_nothing(self, forks):
        assert fork_map(lambda i: i, 0) == []
        assert not forks

    def test_results_keep_job_order(self, forks, monkeypatch):
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 2)
        results = fork_map(lambda i: (i, os.getpid()), 5)
        assert len(forks) == 2
        assert results == [(i, forks[i % 2]) for i in range(5)]
        no_child_left(forks)

    @pytest.mark.parametrize("cpus,share", [(2, 1), (4, 2)])
    def test_children_take_their_share_of_the_cpus(self, cpus, share, forks,
                                                   monkeypatch):
        monkeypatch.setattr(fed, "_usable_cpus", lambda: cpus)
        assert fork_map(lambda i: fed.worker_count(4), 2) == [share, share]
        assert fed.worker_count(4) == min(4, cpus)
        assert len(forks) == 2
        no_child_left(forks)

    def test_one_job_runs_in_process_and_its_round_forks(self, forks,
                                                         monkeypatch):
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 2)
        agents, envs, _, model = setup_federation(small_env(), "dqn", 3,
                                                  dqn_hp=small_dqn())

        def job(i):
            run_round(agents, envs, model)
            return os.getpid()

        assert fork_map(job, 1) == [os.getpid()]
        assert len(forks) == 2          # the round's two agents
        no_child_left(forks)

    def test_child_made_shared_array_comes_back_by_value(self, forks,
                                                        monkeypatch):
        # its memory is mapped in the child alone
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 2)
        grid = np.arange(12.0).reshape(3, 4)

        def job(i):
            made = shared_zeros((3, 4))
            made[:] = grid + 100 * i
            return made[1:, ::2]

        for i, view in enumerate(fork_map(job, 2)):
            np.testing.assert_array_equal(view, (grid + 100 * i)[1:, ::2])
        assert len(forks) == 2
        no_child_left(forks)

    def test_shared_array_made_before_the_fork_comes_back_by_reference(
            self, forks, monkeypatch):
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 2)
        store = shared_zeros(4)

        def job(i):
            store[i] = i + 1
            return store[i:i + 1]

        views = fork_map(job, 2)
        np.testing.assert_array_equal(store, [1, 2, 0, 0])
        assert all(np.shares_memory(view, store) for view in views)
        assert len(forks) == 2
        no_child_left(forks)

    def test_failing_cell_names_its_cell(self, forks, tmp_path, monkeypatch):
        monkeypatch.setattr(fed, "_usable_cpus", lambda: 2)
        run_cell = harness._run_cell

        def fail_one(cfg, kind, seed):
            if (kind, seed) == ("fap-equal", 2):
                raise RuntimeError("cell broke")
            return run_cell(cfg, kind, seed)

        monkeypatch.setattr(harness, "_run_cell", fail_one)
        cfg = ExperimentConfig(env=small_env(), out_dir=str(tmp_path),
                               run=RunConfig(agent_kinds=["local", "fap-equal"],
                                             rounds=2, seeds=[1, 2],
                                             eval_episodes=2))
        with pytest.raises(RuntimeError, match="cell broke") as info:
            run_experiment(cfg)
        assert isinstance(info.value.__cause__, ClientProcessError)
        assert "cell 3 failed in its training process" in str(
            info.value.__cause__)
        assert len(forks) == 2
        no_child_left(forks)


class TestEvaluation:
    def test_evaluate_policy_aggregates_per_step(self):
        cfg = small_env()
        envs = make_eval_envs(cfg, seed=10)

        from fedfog.baselines import local_policy
        reward, cost, delay, energy = evaluate_policy(
            lambda e, s: local_policy(s), envs, episodes=2)
        assert cost == pytest.approx(0.5 * delay + 0.5 * energy, abs=1e-9)
        assert reward == pytest.approx(-cost / cfg.mds_per_fap, rel=1e-9)

    def test_same_policy_same_metrics(self):
        cfg = small_env()
        from fedfog.baselines import equal_policy
        a = evaluate_policy(lambda e, s: equal_policy(s),
                            make_eval_envs(cfg, seed=11), episodes=3)
        b = evaluate_policy(lambda e, s: equal_policy(s),
                            make_eval_envs(cfg, seed=11), episodes=3)
        assert a == b


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = small_env()
        res = run_training(cfg, "ddpg", seed=12, rounds=2, ddpg_hp=small_ddpg())
        path = tmp_path / "model.ckpt"
        save_round_checkpoint(path, res.global_model)
        loaded = load_round_checkpoint(path)
        np.testing.assert_array_equal(loaded.weights.values,
                                      res.global_model.weights.values)
        assert loaded.round_index == 2
        assert loaded.agent_kind == "ddpg"

    def test_checkpoint_dir_written_during_training(self, tmp_path):
        run_training(small_env(), "ddpg", seed=13, rounds=4,
                     ddpg_hp=small_ddpg(), checkpoint_dir=tmp_path,
                     checkpoint_every=2)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ddpg-round00002.ckpt", "ddpg-round00004.ckpt"]

    def test_final_checkpoint_written_once(self, tmp_path, monkeypatch):
        paths = []
        monkeypatch.setattr(fed, "save_round_checkpoint",
                            lambda path, model: paths.append(path))
        run_training(small_env(), "ddpg", seed=13, rounds=4,
                     ddpg_hp=small_ddpg(), checkpoint_dir=tmp_path,
                     checkpoint_every=2)
        assert [os.path.basename(p) for p in paths] == [
            "ddpg-round00002.ckpt", "ddpg-round00004.ckpt"]

    def test_loaded_model_is_usable(self, tmp_path):
        cfg = small_env()
        res = run_training(cfg, "ddpg", seed=14, rounds=2,
                           ddpg_hp=small_ddpg(), checkpoint_dir=tmp_path)
        loaded = load_round_checkpoint(tmp_path / "ddpg-round00002.ckpt")
        agent = build_agent("ddpg", cfg, 0, ddpg_hp=small_ddpg())
        agent.load_global(loaded.weights)
        metrics = evaluate_policy(agent.policy(), make_eval_envs(cfg, 14))
        assert np.isfinite(metrics[1])

    def test_checkpoint_of_another_layout_refused(self, tmp_path):
        # desk DDPG holds 74,710 values at hidden (300, 100) and (120, 275)
        cfg = EnvConfig()
        agent = build_agent("ddpg", cfg, 0, DdpgHyperParams(hidden=(300, 100)))
        path = tmp_path / "model.ckpt"
        save_round_checkpoint(path, GlobalModel(agent.export_weights(), 1,
                                                "ddpg"))
        model = load_round_checkpoint(path)
        other = DdpgHyperParams(hidden=(120, 275))
        assert build_agent("ddpg", cfg, 0, other).online.size == 74710
        assert model.weights.values.size == 74710
        with pytest.raises(ValueError, match="is not the agent's layout"):
            evaluate_global(model, cfg, make_eval_envs(cfg, 1), 1, other, None)

    def test_layout_hash_guard(self, tmp_path):
        from fedfog.nn import save_checkpoint

        rng = np.random.default_rng(15)
        flat = flatten_mlp(init_mlp(rng, [3, 4, 2], "linear"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, flat, meta={"round": 1, "agent_kind": "ddpg",
                                          "layout_hash": "not-a-real-hash"})
        with pytest.raises(ValueError, match="layout hash"):
            load_round_checkpoint(path)

    def test_version_1_file_refused(self, tmp_path):
        rng = np.random.default_rng(16)
        model = GlobalModel(flatten_mlp(init_mlp(rng, [3, 4, 2], "linear")),
                            1, "ddpg")
        path = tmp_path / "model.ckpt"
        save_round_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version 1"):
            load_round_checkpoint(path)

    @pytest.mark.parametrize("missing", ["round", "agent_kind", "layout_hash"])
    def test_missing_meta_key_refused(self, tmp_path, missing):
        from fedfog.nn import save_checkpoint

        flat = flatten_mlp(init_mlp(np.random.default_rng(17), [3, 4, 2],
                                    "linear"))
        meta = {"round": 1, "agent_kind": "dqn",
                "layout_hash": flat.layout_hash()}
        del meta[missing]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, flat, meta=meta)
        with pytest.raises(ValueError, match=missing):
            load_round_checkpoint(path)

    def test_file_without_meta_refused(self, tmp_path):
        from fedfog.nn import save_checkpoint

        flat = flatten_mlp(init_mlp(np.random.default_rng(18), [3, 4, 2],
                                    "linear"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, flat)
        with pytest.raises(ValueError, match="round"):
            load_round_checkpoint(path)
