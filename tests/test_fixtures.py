"""Every generator's pinned closed-form values must be reproduced exactly
by the evaluator; parameter validity is enforced at generation time."""

import numpy as np
import pytest

from regretgap import (
    DeviationClass,
    coverage_constant,
    is_time_layered,
    moment_matching_error,
    occupancy_bundle,
    recoverability_constant,
    regret,
    regret_gap,
    validate_game,
    value,
    value_gap,
    weighted_tv_loss,
)
from regretgap.fixtures import (
    alice_lb_game,
    build_fixture,
    coverage_lb_game,
    fig1_game,
    multi_ce_nfg,
    random_deviation_class,
    random_mg,
)


class TestFig1:
    @pytest.mark.parametrize("H", [3, 4, 8, 16])
    def test_expected_values_reproduced(self, H):
        fx = fig1_game(H)
        dc = DeviationClass.complete(2)
        assert validate_game(fx.game).ok
        assert moment_matching_error(fx.game, fx.expert, fx.learner) <= 1e-12
        assert regret(fx.game, fx.expert, dc) == pytest.approx(
            fx.expected["regret_expert"], abs=1e-9)
        assert regret(fx.game, fx.learner, dc) == pytest.approx(
            fx.expected["regret_learner"], abs=1e-9)
        assert regret_gap(fx.game, fx.expert, fx.learner, dc) == pytest.approx(
            fx.expected["regret_gap"], abs=1e-9)
        assert value_gap(fx.game, fx.expert, fx.learner) == pytest.approx(
            fx.expected["value_gap"], abs=1e-12)

    def test_h3_gap_is_one(self):
        fx = fig1_game(3)
        assert fx.expected["regret_gap"] == 1.0

    def test_witness_achieves_the_gap(self):
        H = 9
        fx = fig1_game(H)
        from regretgap.games import induced_tables

        tabs = induced_tables(fx.game, fx.learner, fx.witness_deviations[0])
        gain = value(fx.game, tabs, 0) - value(fx.game, fx.learner, 0)
        assert gain == pytest.approx(H - 2, abs=1e-12)

    def test_occupancies_table_equal(self):
        fx = fig1_game(6)
        occ_e = occupancy_bundle(fx.game, fx.expert)
        occ_l = occupancy_bundle(fx.game, fx.learner)
        np.testing.assert_array_equal(occ_e.per_step_joint, occ_l.per_step_joint)

    def test_layered(self):
        assert is_time_layered(fig1_game(5).game)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            fig1_game(2)


def test_build_fixture_rejects_parameters_the_builder_does_not_take():
    with pytest.raises(ValueError, match="eps, u"):
        build_fixture("fig1", horizon=5, eps=0.5, u=99)
    assert build_fixture("fig1", horizon=5, eps=None).game.horizon == 5
    assert build_fixture("coverage-lb", eps=0.002).params["eps"] == 0.002


class TestCoverageLB:
    def test_expected_values_reproduced(self):
        fx = coverage_lb_game(20, 10, 0.05, 0.001)
        dc = DeviationClass.complete(2)
        d_e = occupancy_bundle(fx.game, fx.expert).avg_state
        assert weighted_tv_loss(fx.expert, fx.learner, d_e) == pytest.approx(
            fx.expected["bc_error"], abs=1e-9)
        assert regret(fx.game, fx.expert, dc) == pytest.approx(
            fx.expected["regret_expert"], abs=1e-9)
        assert regret(fx.game, fx.learner, dc) == pytest.approx(
            fx.expected["regret_learner"], abs=1e-9)
        assert regret_gap(fx.game, fx.expert, fx.learner, dc) == pytest.approx(
            fx.expected["regret_gap"], abs=1e-9)
        assert moment_matching_error(fx.game, fx.expert, fx.learner) == pytest.approx(
            fx.expected["moment_error_normalized"], abs=1e-12)
        assert value_gap(fx.game, fx.expert, fx.learner) == pytest.approx(0.0, abs=1e-12)

    def test_pinned_arithmetic(self):
        # eps*H/(2 beta) * (u'-2) at the reference parameters is 1.6
        fx = coverage_lb_game(20, 10, 0.05, 0.001)
        assert fx.expected["regret_gap"] == pytest.approx(1.6, abs=1e-12)

    def test_full_coverage_and_recoverability_flags(self):
        fx = coverage_lb_game(14, 7, 0.1, 0.002)
        beta = coverage_constant(fx.game, fx.expert)
        assert beta > 0
        assert beta == pytest.approx(fx.notes["coverage_floor_computed"], abs=0)
        # the construction quotes the mixing rate as its floor; the computed
        # minimum is smaller by 1/H and the generator records the mismatch
        assert not fx.notes["coverage_matches_analytic"]
        u = recoverability_constant(fx.game, fx.expert, DeviationClass.complete(2))
        assert u <= fx.params["u_floor"] + 1e-12

    def test_eps_zero_collapses_to_expert(self):
        fx = coverage_lb_game(10, 5, 0.1, 0.0)
        np.testing.assert_array_equal(fx.expert.table, fx.learner.table)
        assert regret_gap(fx.game, fx.expert, fx.learner,
                          DeviationClass.complete(2)) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            coverage_lb_game(4, 5, 0.05, 0.001)      # H < u
        with pytest.raises(ValueError):
            coverage_lb_game(20, 10, 0.3, 0.001)     # beta > 1/4
        with pytest.raises(ValueError):
            coverage_lb_game(20, 10, 0.05, 0.01)     # carve > 1/2


class TestAliceLB:
    def test_expected_values_reproduced(self):
        fx = alice_lb_game(20, 6, 0.1, 0.005)
        dc = DeviationClass.complete(1)
        assert regret(fx.game, fx.expert, dc) == pytest.approx(
            fx.expected["regret_expert"], abs=1e-9)
        assert regret(fx.game, fx.learner, dc) == pytest.approx(
            fx.expected["regret_learner"], abs=1e-9)
        assert regret_gap(fx.game, fx.expert, fx.learner, dc) == pytest.approx(
            fx.expected["regret_gap"], abs=1e-9)
        assert value_gap(fx.game, fx.expert, fx.learner) == pytest.approx(
            fx.expected["value_gap"], abs=1e-9)
        assert moment_matching_error(fx.game, fx.expert, fx.learner) == pytest.approx(
            fx.expected["moment_error_normalized"], abs=1e-12)

    def test_pinned_arithmetic(self):
        fx = alice_lb_game(20, 6, 0.1, 0.005)
        assert fx.expected["regret_gap"] == pytest.approx(0.5, abs=1e-12)

    def test_single_agent_gap_equality(self):
        fx = alice_lb_game(12, 4, 0.2, 0.01)
        dc = DeviationClass.complete(1)
        rg_ = regret_gap(fx.game, fx.expert, fx.learner, dc)
        vg = value_gap(fx.game, fx.expert, fx.learner)
        assert rg_ == pytest.approx(vg, abs=1e-8)

    def test_bc_error_also_eps(self):
        eps = 0.003
        fx = alice_lb_game(15, 5, 0.1, eps)
        d_e = occupancy_bundle(fx.game, fx.expert).avg_state
        assert weighted_tv_loss(fx.expert, fx.learner, d_e) == pytest.approx(eps, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            alice_lb_game(3, 5, 0.1, 0.005)       # H < u
        with pytest.raises(ValueError):
            alice_lb_game(20, 6, 0.0, 0.005)      # beta = 0
        with pytest.raises(ValueError):
            alice_lb_game(20, 6, 0.5, 0.05)       # beta + H eps > 1


class TestNFG:
    def test_expected_values_reproduced(self):
        fx_r, fx_rp = multi_ce_nfg()
        dc = DeviationClass.complete(2)
        for fx, game in ((fx_r, fx_r.game), (fx_rp, fx_rp.game)):
            assert validate_game(game).ok
            assert regret(game, fx.expert, dc) == pytest.approx(
                fx.expected["regret_expert"], abs=1e-12)
            assert regret(game, fx.learner, dc) == pytest.approx(
                fx.expected["regret_learner"], abs=1e-12)
            assert value(game, fx.expert, 0) == pytest.approx(
                fx.expected["value_expert"], abs=1e-12)
            assert value(game, fx.learner, 0) == pytest.approx(
                fx.expected["value_learner"], abs=1e-12)

    def test_mixed_equilibrium_conditionals(self):
        # the mixed policy balances each agent's conditional payoffs exactly
        fx_r, _ = multi_ce_nfg()
        table = fx_r.learner.table[0]
        r = np.asarray(fx_r.game.rewards[0][0]).reshape(2, 2)
        joint = table.reshape(2, 2)
        for rec in range(2):
            posterior = joint[rec] / joint[rec].sum()
            payoffs = [float(posterior @ r[play]) for play in range(2)]
            assert payoffs[0] == pytest.approx(payoffs[1], abs=1e-12)

    def test_reward_bound_declared(self):
        fx_r, fx_rp = multi_ce_nfg()
        assert fx_r.game.reward_bound == 2.0
        assert fx_rp.game.reward_bound == 1.0


class TestRandomMG:
    def test_determinism(self):
        a = random_mg(123, n_states=4, horizon=3)
        b = random_mg(123, n_states=4, horizon=3)
        np.testing.assert_array_equal(a.game.transition, b.game.transition)
        np.testing.assert_array_equal(a.expert.table, b.expert.table)

    def test_flags(self):
        single = random_mg(1, n_states=3, horizon=3, action_counts=(3,))
        assert single.game.num_agents == 1
        cp = random_mg(2, n_states=3, horizon=3, common_payoff=True)
        np.testing.assert_array_equal(cp.game.rewards[0], cp.game.rewards[1])
        cov = random_mg(3, n_states=4, horizon=3, full_coverage_expert=True)
        assert coverage_constant(cov.game, cov.expert) > 0

    def test_layered_flag(self):
        fx = random_mg(4, n_states=6, horizon=3, layered=True)
        assert is_time_layered(fx.game)
        assert validate_game(fx.game).ok

    def test_all_generated_games_validate(self):
        for seed in range(10):
            fx = random_mg(seed, n_states=5, horizon=4, action_counts=(2, 3))
            assert validate_game(fx.game).ok

    def test_params_record_an_int_seed_only(self):
        assert random_mg(5).params["seed"] == 5
        assert type(random_mg(np.int64(5)).params["seed"]) is int
        assert random_mg(np.random.default_rng(5)).params["seed"] is None
        assert random_mg(np.random.SeedSequence(5)).params["seed"] is None

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            random_mg(0, n_states=500, horizon=3)
        with pytest.raises(ValueError):
            random_mg(0, n_states=3, horizon=3, action_counts=(9, 9))

    def test_deviation_class_helper(self):
        fx = random_mg(5, n_states=3, horizon=3)
        dc = random_deviation_class(fx.game, per_agent=4, seed=0)
        for i in range(2):
            devs = dc.explicit_for(i)
            assert len(devs) == 4
            assert any(d.is_identity() for d in devs)
