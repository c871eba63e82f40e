"""Behavioral cloning, moment matching, and the deviation-aware learners."""

import re

import numpy as np
import pytest

from regretgap import (
    CoverageError,
    DeviationClass,
    ExpertOracle,
    MediatorPolicy,
    TrainConfig,
    blades_train,
    j_bc,
    j_irl,
    malice_loss,
    malice_train,
    moment_matching_error,
    occupancy_bundle,
    oco_run,
    regret_gap,
    sample_demonstrations,
    value_gap,
    weighted_tv_loss,
)
from regretgap import learners
from regretgap.fixtures import (
    alice_lb_game,
    coverage_lb_game,
    fig1_game,
    random_deviation_class,
    random_mg,
)


class TestExpertOracle:
    def test_full_row_mode_returns_exact_rows(self):
        fx = random_mg(0, n_states=3, horizon=3)
        oracle = ExpertOracle(fx.expert)
        row1 = oracle.query(1)
        row2 = oracle.query(1)
        np.testing.assert_array_equal(row1, fx.expert.table[1])
        np.testing.assert_array_equal(row1, row2)
        assert oracle.query_count == 2

    def test_deterministic_expert_one_hot_row(self):
        fx = fig1_game(4)
        oracle = ExpertOracle(fx.expert)
        row = oracle.query(0)
        assert row[0] == 1.0 and row.sum() == 1.0

    def test_counter_monotone_and_logged(self):
        fx = random_mg(2, n_states=3, horizon=3)
        oracle = ExpertOracle(fx.expert)
        for k in range(5):
            oracle.query(k % 3, round_index=k)
        assert oracle.query_count == 5
        assert len(oracle.query_log) == 5
        assert oracle.query_log[3]["round"] == 3


class TestJBC:
    def test_exact_full_coverage_recovers_expert(self):
        fx = random_mg(3, n_states=4, horizon=4, full_coverage_expert=True)
        pol = j_bc(fx.game, expert=fx.expert, fill_rule="uniform")
        np.testing.assert_array_equal(pol.table, fx.expert.table)
        d = occupancy_bundle(fx.game, fx.expert).avg_state
        assert weighted_tv_loss(fx.expert, pol, d) == 0.0

    def test_uniform_fill_off_support(self):
        fx = fig1_game(5)
        pol = j_bc(fx.game, expert=fx.expert, fill_rule="uniform")
        A = fx.game.n_joint_actions
        np.testing.assert_allclose(pol.table[1], np.full(A, 1 / A))
        np.testing.assert_array_equal(pol.table[0], fx.expert.table[0])

    def test_adversarial_fill_realizes_worst_case(self):
        # the expert never visits the second fork; the adversarial fill there
        # must recreate the order-H regret gap
        H = 7
        fx = fig1_game(H)
        dc = DeviationClass.complete(2)
        pol = j_bc(fx.game, expert=fx.expert, fill_rule="adversarial-worst-case",
                   deviations=dc)
        gap = regret_gap(fx.game, fx.expert, pol, dc)
        assert gap == pytest.approx(H - 2, abs=1e-9)

    def test_demo_mode_convergence(self):
        fx = random_mg(4, n_states=4, horizon=4, action_counts=(2, 2),
                       full_coverage_expert=True)
        demos = sample_demonstrations(fx.game, fx.expert, 10_000, seed=5)
        pol = j_bc(fx.game, demos=demos)
        visited = demos.state_counts(fx.game) > 0
        d = occupancy_bundle(fx.game, fx.expert).avg_state * visited
        d = d / d.sum()
        assert weighted_tv_loss(fx.expert, pol, d) <= 0.05

    def test_empty_demos_rejected(self):
        fx = random_mg(5, n_states=3, horizon=3)
        with pytest.raises(ValueError):
            j_bc(fx.game)


class TestJIRL:
    def test_expert_start_terminates_immediately(self):
        fx = random_mg(6, n_states=4, horizon=4, common_payoff=True,
                       full_coverage_expert=True)
        res = j_irl(fx.game, fx.expert, rounds=50, init=fx.expert)
        assert res.rounds_run == 1
        assert res.final_error == pytest.approx(0.0, abs=1e-15)

    def test_coverage_game_value_gap_dominated_by_moment_error(self):
        fx = coverage_lb_game(10, 5, 0.1, 0.002)
        res = j_irl(fx.game, fx.expert, rounds=200)
        delta = res.final_error
        vg = value_gap(fx.game, fx.expert, res.policy)
        assert vg <= delta * fx.game.horizon + 1e-9

    def test_random_common_payoff_convergence(self):
        fx = random_mg(7, n_states=4, horizon=4, action_counts=(2, 2),
                       common_payoff=True, full_coverage_expert=True)
        res = j_irl(fx.game, fx.expert, rounds=500)
        assert res.final_error <= 0.05
        # reported error is the exact moment distance of the returned policy
        direct = moment_matching_error(fx.game, fx.expert, res.policy, normalized=True)
        assert res.final_error == pytest.approx(direct, abs=1e-12)

    def test_best_so_far_curve_monotone(self):
        fx = random_mg(8, n_states=4, horizon=3, common_payoff=True,
                       full_coverage_expert=True)
        res = j_irl(fx.game, fx.expert, rounds=100)
        best = np.minimum.accumulate(res.errors)
        assert (np.diff(best) <= 1e-15).all()


class TestMaliceTrain:
    def test_expert_start_stays_at_zero_loss(self):
        fx = random_mg(10, n_states=3, horizon=3, full_coverage_expert=True)
        phi = random_deviation_class(fx.game, per_agent=3, seed=1)
        res = malice_train(fx.game, fx.expert, phi,
                           TrainConfig(rounds=30), init=fx.expert)
        assert res.final_loss == 0.0
        assert max(row.loss for row in res.trace) == 0.0
        np.testing.assert_array_equal(res.policy.table, fx.expert.table)

    def test_zero_coverage_rejected(self):
        fx = fig1_game(5)
        phi = fx.witness_class()
        with pytest.raises(CoverageError):
            malice_train(fx.game, fx.expert, phi, TrainConfig(rounds=5))

    def test_complete_class_rejected_for_training(self):
        fx = random_mg(11, n_states=3, horizon=3, full_coverage_expert=True)
        with pytest.raises(ValueError):
            malice_train(fx.game, fx.expert, DeviationClass.complete(2))

    def test_alice_fixture_learner_certifies_tightness(self):
        # evaluating (not training) the constructed learner: loss <= eps while
        # the regret gap is eps * H * (u'-1)
        eps, H, u = 0.005, 20, 6
        fx = alice_lb_game(H, u, 0.1, eps)
        phi = fx.witness_class()
        from regretgap.evaluate import occupancy_bundle as ob
        from regretgap.games import induced_tables
        from regretgap.losses import malice_loss

        d_e = ob(fx.game, fx.expert).avg_state
        dists = [ob(fx.game, induced_tables(fx.game, fx.learner, dev)).avg_state
                 for dev in phi.explicit_for(0)]
        assert malice_loss(fx.expert, fx.learner, d_e, dists) <= eps + 1e-12
        gap = regret_gap(fx.game, fx.expert, fx.learner, DeviationClass.complete(1))
        assert gap == pytest.approx(eps * H * (u - 1), abs=1e-9)

    def test_training_reduces_loss_and_bounds_gap(self):
        fx = random_mg(12, n_states=4, horizon=4, full_coverage_expert=True)
        phi = random_deviation_class(fx.game, per_agent=3, seed=2)
        res = malice_train(fx.game, fx.expert, phi, TrainConfig(rounds=300, seed=0))
        assert res.final_loss < res.trace[0].loss
        from regretgap.evaluate import recoverability_constant

        u = recoverability_constant(fx.game, fx.expert, phi)
        gap = regret_gap(fx.game, fx.expert, res.policy, phi)
        assert gap <= 2 * res.final_loss * u * fx.game.horizon + 1e-6

    def test_trace_schema(self):
        fx = random_mg(13, n_states=3, horizon=3, full_coverage_expert=True)
        phi = random_deviation_class(fx.game, per_agent=2, seed=3)
        res = malice_train(fx.game, fx.expert, phi, TrainConfig(rounds=10))
        assert len(res.trace) == 10
        row = res.trace[0]
        assert row.round == 1 and row.step_size > 0
        assert isinstance(row.achieving_deviation, str)

    def test_training_hands_oco_run_the_callers_config(self, monkeypatch):
        # training hands the caller's config to oco_run, and the same loss
        # builder run through oco_run with that config reproduces the
        # trained run bitwise
        fx = random_mg(13, n_states=3, horizon=3, full_coverage_expert=True)
        phi = random_deviation_class(fx.game, per_agent=2, seed=3)
        cfg = TrainConfig(rounds=10)
        calls = []

        def spy(builder, shape, config, init=None):
            calls.append((builder, shape, config, init))
            return oco_run(builder, shape, config, init)

        monkeypatch.setattr(learners, "oco_run", spy)
        res = malice_train(fx.game, fx.expert, phi, cfg)
        builder, shape, config, init = calls[0]
        assert config is cfg
        ref = oco_run(builder, shape, cfg, init)
        assert len(res.trace) == 10
        assert np.array([row.loss for row in res.trace]).tobytes() == ref.losses.tobytes()
        assert [row.step_size for row in res.trace] == ref.step_sizes.tolist()
        assert res.best_round == ref.best_round + 1
        assert res.policy.table.tobytes() == ref.tables[ref.best_round].tobytes()

    def test_zero_rounds_rejected_before_any_round(self):
        # a config without rounds fails when it is built, so no round runs
        # and the expert is never queried
        fx = random_mg(13, n_states=3, horizon=3, full_coverage_expert=True)
        phi = random_deviation_class(fx.game, per_agent=2, seed=3)
        oracle = ExpertOracle(fx.expert)
        demos = sample_demonstrations(fx.game, fx.expert, 20, seed=0)
        with pytest.raises(ValueError, match="need at least one round"):
            blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=0))
        assert oracle.query_count == 0      # every round queries the expert


class TestBladesTrain:
    def test_expert_init_zero_loss_throughout(self):
        fx = random_mg(15, n_states=3, horizon=3)
        phi = random_deviation_class(fx.game, per_agent=3, seed=5)
        oracle = ExpertOracle(fx.expert)
        demos = sample_demonstrations(fx.game, fx.expert, 20, seed=0)
        res = blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=25),
                           init=fx.expert)
        assert res.final_loss == 0.0
        assert max(row.loss for row in res.trace) == 0.0

    def test_fig1_contrast_with_cloning(self):
        # the defining comparison: on the zero-coverage fork game, cloning
        # with adversarial fill is order-H away from the expert's regret,
        # while deviation-aware training drives the gap to near 0
        H = 7
        fx = fig1_game(H)
        dc = DeviationClass.complete(2)
        clone = j_bc(fx.game, expert=fx.expert, fill_rule="adversarial-worst-case",
                     deviations=dc)
        assert regret_gap(fx.game, fx.expert, clone, dc) == pytest.approx(H - 2, abs=1e-9)

        phi = fx.witness_class()
        oracle = ExpertOracle(fx.expert)
        demos = sample_demonstrations(fx.game, fx.expert, 50, seed=1)
        res = blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=500))
        gap = regret_gap(fx.game, fx.expert, res.policy, dc)
        assert res.query_count > 0
        assert gap <= 0.01

    def test_fig1_eg_loss_decreases(self):
        fx = fig1_game(5)
        phi = fx.witness_class()
        oracle = ExpertOracle(fx.expert)
        demos = sample_demonstrations(fx.game, fx.expert, 50, seed=2)
        res = blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=200))
        losses = [row.loss for row in res.trace]
        assert res.final_loss <= 0.05
        assert losses[-1] < losses[0]

    def test_query_count_matches_distinct_round_state_pairs(self):
        fx = random_mg(16, n_states=4, horizon=3)
        phi = random_deviation_class(fx.game, per_agent=2, seed=6)
        oracle = ExpertOracle(fx.expert)
        demos = sample_demonstrations(fx.game, fx.expert, 30, seed=3)
        res = blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=12))
        pairs = {(entry["round"], entry["state"]) for entry in res.query_log}
        assert res.query_count == len(res.query_log) == len(pairs)
        assert res.query_count > 0

    def test_never_reads_expert_directly(self):
        # blades only needs the oracle; a censored expert policy object is
        # never touched beyond query()
        fx = random_mg(17, n_states=3, horizon=3)
        phi = random_deviation_class(fx.game, per_agent=2, seed=7)
        oracle = ExpertOracle(fx.expert)
        demos = sample_demonstrations(fx.game, fx.expert, 30, seed=4)
        res = blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=5))
        assert oracle.query_count == res.query_count > 0

    def test_demos_required_without_init(self):
        fx = random_mg(18, n_states=3, horizon=3)
        phi = random_deviation_class(fx.game, per_agent=2, seed=8)
        with pytest.raises(ValueError):
            blades_train(fx.game, ExpertOracle(fx.expert), None, phi,
                         TrainConfig(rounds=3))

    @pytest.mark.parametrize("shape", [(8, 4), (2, 4), (4, 6)],
                             ids=["8-states", "2-states", "6-actions"])
    def test_mis_shaped_expert_is_value_error(self, shape):
        # on a 4-state, 4-joint-action game: blades_train checks its oracle's
        # table before the first query, as malice_train checks the expert,
        # and the losses check the policy (and weights) against their target
        fx = random_mg(3, n_states=4, horizon=3)
        phi = random_deviation_class(fx.game, per_agent=2, seed=3)
        demos = sample_demonstrations(fx.game, fx.expert, 20, seed=0)
        bad = MediatorPolicy(np.full(shape, 1.0 / shape[1]))
        mismatch = f"policy shape {re.escape(str(shape))} does not match"
        oracle = ExpertOracle(bad)
        with pytest.raises(ValueError, match=f"{mismatch} game"):
            blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=3))
        assert oracle.query_count == 0
        with pytest.raises(ValueError, match=f"{mismatch} game"):
            malice_train(fx.game, bad, phi, TrainConfig(rounds=3))
        d = occupancy_bundle(fx.game, fx.expert).avg_state
        with pytest.raises(ValueError, match=f"{mismatch} target"):
            weighted_tv_loss(fx.expert, bad, d)
        with pytest.raises(ValueError, match=f"{mismatch} target"):
            malice_loss(fx.expert, bad, d, [d])
        if shape[0] != 4:
            with pytest.raises(ValueError, match=f"4 weights for {shape[0]} states"):
                weighted_tv_loss(bad, bad, d)

    def test_returns_valid_policy(self):
        fx = random_mg(19, n_states=3, horizon=3)
        phi = random_deviation_class(fx.game, per_agent=2, seed=9)
        oracle = ExpertOracle(fx.expert)
        demos = sample_demonstrations(fx.game, fx.expert, 40, seed=5)
        res = blades_train(fx.game, oracle, demos, phi, TrainConfig(rounds=20))
        np.testing.assert_allclose(res.policy.table.sum(axis=1), 1.0, atol=1e-12)
        assert (res.policy.table >= 0).all()
