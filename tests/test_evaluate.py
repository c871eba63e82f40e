"""Exact evaluation against independent oracles.

The oracles here recompute quantities by a different route than the
library: explicit path enumeration for occupancies, exhaustive map
enumeration for best responses, and explicit sign tensors for the
worst-case reward supremum.
"""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgap import (
    COMPLETE,
    Deviation,
    DeviationClass,
    MarkovGame,
    MediatorPolicy,
    advantage_tensor,
    best_response_deviation,
    coverage_constant,
    enumerate_stationary_best_response,
    evaluate_pair,
    induced_tables,
    is_approx_ce,
    is_time_layered,
    moment_matching_error,
    occupancy_bundle,
    recoverability_constant,
    regret,
    regret_gap,
    regret_report,
    value,
    value_gap,
    weighted_tv_loss,
    with_common_reward,
)
from regretgap.fixtures import (
    alice_lb_game,
    coverage_lb_game,
    fig1_game,
    multi_ce_nfg,
    random_deviation_class,
    random_mg,
)

from test_games import chain_game


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def enumerate_occupancy(game, policy):
    """Per-step occupancies by explicit enumeration of all (s, a) paths."""
    H, S, A = game.horizon, game.n_states, game.n_joint_actions
    table = policy.table if isinstance(policy, MediatorPolicy) else policy
    rho = np.zeros((H, S, A))

    def recurse(h, s, prob):
        if prob == 0.0 or h == H:
            return
        for a in range(A):
            p = prob * table[s, a]
            if p == 0.0:
                continue
            rho[h, s, a] += p
            for s2 in range(S):
                p2 = p * game.transition[s, a, s2]
                if p2 > 0:
                    recurse(h + 1, s2, p2)

    for s in range(S):
        recurse(0, s, float(game.initial_dist[s]))
    return rho


def enumerate_value(game, policy, agent):
    rho = enumerate_occupancy(game, policy)
    return float((rho * game.rewards[agent][None]).sum())


# ---------------------------------------------------------------------------
# Occupancies and values
# ---------------------------------------------------------------------------


class TestOccupancy:
    def test_horizon_one_is_initial_dist(self):
        fx = random_mg(0, n_states=4, horizon=1)
        occ = occupancy_bundle(fx.game, fx.expert)
        np.testing.assert_allclose(occ.per_step_state[0], fx.game.initial_dist)
        np.testing.assert_allclose(occ.avg_state, fx.game.initial_dist)

    def test_fig1_expert_never_visits_s1(self):
        for H in (4, 9):
            fx = fig1_game(H)
            occ = occupancy_bundle(fx.game, fx.expert)
            assert occ.avg_state[1] == 0.0
            assert occ.avg_state[2] == pytest.approx(1.0 / H, abs=1e-15)

    def test_matches_path_enumeration(self):
        for seed in range(5):
            fx = random_mg(seed, n_states=3, horizon=4, action_counts=(2, 2))
            occ = occupancy_bundle(fx.game, fx.expert)
            rho = enumerate_occupancy(fx.game, fx.expert)
            np.testing.assert_allclose(occ.per_step_joint, rho, atol=1e-10)

    def test_normalization_every_step(self):
        fx = random_mg(17, n_states=5, horizon=6, action_counts=(2, 3))
        occ = occupancy_bundle(fx.game, fx.learner)
        np.testing.assert_allclose(occ.per_step_state.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(occ.per_step_joint.sum(axis=(1, 2)), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            occ.per_step_joint,
            occ.per_step_state[:, :, None] * fx.learner.table[None], atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_normalization_for_time_indexed_policies(self, seed):
        rng = np.random.default_rng(seed)
        fx = random_mg(rng, n_states=3, horizon=4, action_counts=(2, 2))
        tables = rng.dirichlet(np.ones(4), size=(4, 3))
        occ = occupancy_bundle(fx.game, tables)
        np.testing.assert_allclose(occ.per_step_joint.sum(axis=(1, 2)), 1.0, atol=1e-12)
        assert (occ.per_step_joint >= 0).all()


class TestValue:
    def test_zero_rewards_zero_value(self):
        g = chain_game()
        zero = MarkovGame(g.horizon, 1, g.states, g.actions, g.transition,
                          np.zeros_like(np.asarray(g.rewards)), g.initial_dist)
        assert value(zero, MediatorPolicy.uniform(zero), 0) == 0.0

    def test_fig1_values(self):
        H = 7
        fx = fig1_game(H)
        assert value(fx.game, fx.expert, 0) == pytest.approx(0.0, abs=0)
        dev = fx.witness_deviations[0]
        tabs = induced_tables(fx.game, fx.learner, dev)
        assert value(fx.game, tabs, 0) == pytest.approx(H - 2, abs=1e-12)

    def test_occupancy_identity(self):
        # J_i equals H * <averaged occupancy, reward>
        for seed in range(10):
            fx = random_mg(seed + 100, n_states=4, horizon=5, action_counts=(2, 2))
            occ = occupancy_bundle(fx.game, fx.expert)
            for i in range(2):
                direct = value(fx.game, fx.expert, i)
                inner = fx.game.horizon * float((occ.avg_joint * fx.game.rewards[i]).sum())
                assert direct == pytest.approx(inner, abs=1e-9)

    def test_matches_enumeration(self):
        fx = random_mg(55, n_states=3, horizon=3, action_counts=(2, 2))
        for i in range(2):
            assert value(fx.game, fx.expert, i) == pytest.approx(
                enumerate_value(fx.game, fx.expert, i), abs=1e-10)


class TestAdvantage:
    def test_single_path_zero_advantage(self):
        g = chain_game(3)
        pol = MediatorPolicy.uniform(g)
        _, _, adv = advantage_tensor(g, pol, 0)
        # rewards and transitions are action-free, so no action has an edge
        np.testing.assert_allclose(adv, 0.0, atol=1e-15)

    def test_performance_difference_identity(self):
        # J_i(pi2) - J_i(pi1) == sum_h E_{d_h^pi2} E_{a~pi2} [A_h^pi1(s, a)]
        for seed in range(100):
            fx = random_mg(seed, n_states=3, horizon=4, action_counts=(2, 2))
            game, pi1, pi2 = fx.game, fx.expert, fx.learner
            occ2 = occupancy_bundle(game, pi2)
            for i in range(game.num_agents):
                _, _, adv = advantage_tensor(game, pi1, i)
                lhs = value(game, pi2, i) - value(game, pi1, i)
                rhs = sum(
                    float(occ2.per_step_state[h] @ (pi2.table * adv[h]).sum(axis=1))
                    for h in range(game.horizon)
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_alice_chain_advantage_bounded_by_u_floor(self):
        fx = alice_lb_game(10, 5, 0.1, 0.002)
        for pol in (fx.expert, fx.learner):
            _, _, adv = advantage_tensor(fx.game, pol, 0)
            assert np.abs(adv).max() <= fx.params["u_floor"] + 1e-12


class TestStructuralConstants:
    def test_zero_reward_game_zero_u(self):
        g = chain_game()
        zero = MarkovGame(g.horizon, 1, g.states, g.actions, g.transition,
                          np.zeros_like(np.asarray(g.rewards)), g.initial_dist)
        dc = DeviationClass.complete(1)
        assert recoverability_constant(zero, MediatorPolicy.uniform(zero), dc) == 0.0

    def test_coverage_fixture_u_below_floor(self):
        fx = coverage_lb_game(12, 6, 0.1, 0.001)
        dc = DeviationClass.complete(2)
        u = recoverability_constant(fx.game, fx.expert, dc)
        assert u <= fx.params["u_floor"] + 1e-12

    def test_complete_u_matches_full_enumeration(self):
        # every stationary map of a COMPLETE agent from itertools.product, every
        # listed deviation of an explicit one, each through advantage_tensor
        one = random_mg(21, n_states=2, horizon=2, action_counts=(2,))   # 2^(2*2) maps
        two = random_mg(22, n_states=3, horizon=3, action_counts=(2, 2))  # 2^(3*2) maps for agent 0
        # agent 0 earns nothing here, so agent 1's explicit deviations set u
        quiet = replace(two.game, rewards=np.array(two.game.rewards) * [[[0.0]], [[1.0]]])
        listed = random_deviation_class(two.game, 3, 5).explicit_for(1)
        timed = best_response_deviation(two.game, two.expert, 1).deviation
        assert timed.time_indexed
        cases = [(one.game, one.expert, DeviationClass.complete(1)),
                 (two.game, two.expert, DeviationClass((COMPLETE, listed + (timed,)))),
                 (quiet, two.expert, DeviationClass((COMPLETE, listed))),
                 (quiet, two.expert, DeviationClass((COMPLETE, (timed,))))]
        for game, expert, dc in cases:
            candidates = []
            for i in range(game.num_agents):
                if dc.is_complete(i):
                    n = game.action_counts[i]
                    candidates += [Deviation(i, np.asarray(digits).reshape(game.n_states, n))
                                   for digits in itertools.product(range(n), repeat=game.n_states * n)]
                else:
                    candidates += dc.explicit_for(i)
            best = 0.0
            for dev in candidates:
                _, _, adv = advantage_tensor(game, induced_tables(game, expert, dev), dev.agent)
                best = max(best, float(np.abs(adv).max()))
            assert recoverability_constant(game, expert, dc, exact_enumeration=True) == \
                pytest.approx(best, abs=1e-12)

    def test_explicit_empty_class_rejected(self):
        fx = random_mg(2, n_states=2, horizon=2)
        dc = DeviationClass((tuple(), tuple()))
        with pytest.raises(ValueError):
            recoverability_constant(fx.game, fx.expert, dc)

    @pytest.mark.parametrize("n_agents", [1, 3])
    @pytest.mark.parametrize("which", ["u", "evaluate_pair"])
    def test_class_for_another_agent_count_rejected(self, which, n_agents):
        # a 2-agent game with a class for 1 or 3 agents
        fx = random_mg(3, n_states=4, horizon=3, action_counts=(2, 2))
        dc = DeviationClass.complete(n_agents)
        call = {"u": lambda: recoverability_constant(fx.game, fx.expert, dc),
                "evaluate_pair": lambda: evaluate_pair(fx.game, fx.expert, fx.learner, dc)}[which]
        with pytest.raises(ValueError, match="does not match the game's agent count"):
            call()

    def test_single_state_coverage_is_one(self):
        fx_r, _ = multi_ce_nfg()
        assert coverage_constant(fx_r.game, fx_r.expert) == 1.0

    def test_coverage_consistent_with_occupancy(self):
        fx = random_mg(9, n_states=5, horizon=4)
        pol = MediatorPolicy.uniform(fx.game)
        occ = occupancy_bundle(fx.game, pol)
        assert coverage_constant(fx.game, pol) == pytest.approx(
            float(occ.avg_state.min()), abs=0)


class TestBestResponse:
    def test_obedient_optimum_returns_identity_and_zero(self):
        # common-payoff game where recommendations are already optimal
        g = chain_game(3)
        pol = MediatorPolicy.uniform(g)  # all actions equivalent
        br = best_response_deviation(g, pol, 0)
        assert br.gain == 0.0
        assert np.array_equal(br.deviation.table,
                              np.tile(np.arange(2), (g.horizon, g.n_states, 1)))

    def test_fig1_learner_gain_and_map(self):
        H = 8
        fx = fig1_game(H)
        br = best_response_deviation(fx.game, fx.learner, 0)
        assert br.gain == pytest.approx(H - 2, abs=1e-12)
        # the winning filter swaps a1 -> a2 at both forks at the steps they
        # are live (s0 at step 1, s1 at step 2)
        assert br.deviation.table[0, 0, 0] == 1
        assert br.deviation.table[1, 1, 0] == 1

    def test_reported_gain_matches_direct_evaluation(self):
        for seed in range(20):
            fx = random_mg(seed + 40, n_states=4, horizon=4, action_counts=(2, 2))
            for i in range(2):
                br = best_response_deviation(fx.game, fx.expert, i)
                tabs = induced_tables(fx.game, fx.expert, br.deviation)
                direct = value(fx.game, tabs, i) - value(fx.game, fx.expert, i)
                assert br.gain == pytest.approx(direct, abs=1e-10)
                assert br.gain >= 0.0

    def test_dp_equals_brute_force_on_layered(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n_layers = int(rng.integers(2, 4))
            sizes = tuple(int(rng.integers(1, 3)) for _ in range(n_layers))
            fx = random_mg(rng, n_states=sum(sizes), horizon=n_layers,
                           action_counts=(2, 2), layered=True, layer_sizes=sizes)
            assert is_time_layered(fx.game)
            for i in range(2):
                dp = best_response_deviation(fx.game, fx.expert, i)
                bf = enumerate_stationary_best_response(fx.game, fx.expert, i)
                assert dp.gain == pytest.approx(bf.gain, abs=1e-10)

    def test_dp_dominates_stationary_on_general_games(self):
        for seed in range(20):
            fx = random_mg(seed + 500, n_states=3, horizon=3, action_counts=(2, 2))
            for i in range(2):
                dp = best_response_deviation(fx.game, fx.expert, i)
                bf = enumerate_stationary_best_response(fx.game, fx.expert, i)
                assert dp.gain >= bf.gain - 1e-12

    def test_brute_force_cap(self):
        fx = random_mg(1, n_states=6, horizon=3, action_counts=(3, 3))
        with pytest.raises(ValueError):
            enumerate_stationary_best_response(fx.game, fx.expert, 0, cap=10)

    def test_dp_deviation_reused_in_explicit_class(self):
        # the returned per-step map, fed back through the explicit-class
        # machinery, reproduces the DP's regret on the nose
        fx = random_mg(77, n_states=4, horizon=4, action_counts=(2, 2))
        brs = [best_response_deviation(fx.game, fx.expert, i) for i in range(2)]
        gains = [br.gain for br in brs]
        dc = DeviationClass.explicit(fx.game, [br.deviation for br in brs])
        assert regret(fx.game, fx.expert, dc) == pytest.approx(max(gains), abs=1e-10)


class TestRegret:
    def test_identity_class_zero(self):
        fx = random_mg(8, n_states=3, horizon=3)
        dc = DeviationClass.identities(fx.game)
        assert regret(fx.game, fx.expert, dc) == 0.0

    def test_fig1_regrets(self):
        H = 6
        fx = fig1_game(H)
        dc = DeviationClass.complete(2)
        assert regret(fx.game, fx.expert, dc) == pytest.approx(0.0, abs=0)
        assert regret(fx.game, fx.learner, dc) == pytest.approx(H - 2, abs=1e-12)

    def test_nfg_equilibria(self):
        fx_r, fx_rp = multi_ce_nfg()
        dc = DeviationClass.complete(2)
        assert regret(fx_r.game, fx_r.expert, dc) == pytest.approx(0.0, abs=1e-12)
        assert regret(fx_r.game, fx_r.learner, dc) == pytest.approx(0.0, abs=1e-12)
        assert regret(fx_rp.game, fx_rp.expert, dc) == pytest.approx(0.0, abs=1e-12)
        # uniform play is an equilibrium under the symmetric payoff only
        assert regret(fx_rp.game, fx_rp.learner, dc) == pytest.approx(0.0, abs=1e-12)
        uniform = fx_rp.learner
        assert regret(fx_r.game, uniform, dc) == pytest.approx(0.25, abs=1e-12)

    def test_nonnegative_with_identities(self):
        for seed in range(20):
            fx = random_mg(seed + 300, n_states=3, horizon=3)
            dc = random_deviation_class(fx.game, per_agent=3, seed=seed)
            assert regret(fx.game, fx.learner, dc) >= 0.0

    def test_monotone_in_class_size(self):
        rng = np.random.default_rng(3)
        fx = random_mg(rng, n_states=3, horizon=3, action_counts=(2, 2))
        small = random_deviation_class(fx.game, per_agent=2, seed=rng)
        extra = random_deviation_class(fx.game, per_agent=4, seed=rng)
        big = DeviationClass.explicit(fx.game, [
            d for dc in (small, extra) for i in range(2) for d in dc.explicit_for(i)
        ])
        assert regret(fx.game, fx.learner, big) >= regret(fx.game, fx.learner, small) - 1e-15

    def test_exactness_flag(self):
        fx_layered = fig1_game(4)
        assert regret_report(fx_layered.game, fx_layered.expert,
                             DeviationClass.complete(2)).exact
        fx_loopy = random_mg(5, n_states=3, horizon=3)
        assert not regret_report(fx_loopy.game, fx_loopy.expert,
                                 DeviationClass.complete(2)).exact
        assert regret_report(fx_loopy.game, fx_loopy.expert,
                             DeviationClass.identities(fx_loopy.game)).exact

    def test_stationary_enumeration_mode(self):
        # on layered games both COMPLETE resolutions agree; on loopy ones the
        # brute force is exact for stationary maps and the DP dominates it
        dc = DeviationClass.complete(2)
        layered = random_mg(6, n_states=4, horizon=2, action_counts=(2, 2),
                            layered=True, layer_sizes=(2, 2))
        dp = regret(layered.game, layered.learner, dc)
        bf = regret(layered.game, layered.learner, dc, complete_mode="enumerate")
        assert dp == pytest.approx(bf, abs=1e-10)
        loopy = random_mg(7, n_states=3, horizon=3, action_counts=(2, 2))
        rep_bf = regret_report(loopy.game, loopy.learner, dc, complete_mode="enumerate")
        assert rep_bf.exact
        assert regret(loopy.game, loopy.learner, dc) >= rep_bf.regret - 1e-12
        with pytest.raises(ValueError):
            regret(loopy.game, loopy.learner, dc, complete_mode="newton")
        # the mode refuses instances whose map space exceeds the cap
        big = fig1_game(4)
        with pytest.raises(ValueError):
            regret(big.game, big.learner, dc, complete_mode="enumerate")


class TestGaps:
    def test_self_gaps_zero(self):
        fx = random_mg(4, n_states=4, horizon=3)
        dc = DeviationClass.complete(2)
        assert value_gap(fx.game, fx.expert, fx.expert) == 0.0
        assert regret_gap(fx.game, fx.expert, fx.expert, dc) == 0.0

    @pytest.mark.parametrize("which", ["evaluate_pair", "regret_gap", "value_gap", "moment_matching_error"])
    def test_learner_of_another_shape_rejected(self, which):
        fx = random_mg(3, n_states=4, horizon=3, action_counts=(2, 2))
        game = fx.game
        learner = MediatorPolicy(np.full((game.n_states - 1, game.n_joint_actions), 0.25))
        dc = DeviationClass.complete(2)
        call = {"evaluate_pair": lambda: evaluate_pair(game, fx.expert, learner, dc),
                "regret_gap": lambda: regret_gap(game, fx.expert, learner, dc),
                "value_gap": lambda: value_gap(game, fx.expert, learner),
                "moment_matching_error": lambda: moment_matching_error(game, fx.expert, learner)}[which]
        with pytest.raises(ValueError, match=r"policy shape \(3, 4\) does not match game"):
            call()

    @pytest.mark.parametrize("shape", [(2, 4), (8, 4), (4, 6)], ids=["2-states", "8-states", "6-actions"])
    @pytest.mark.parametrize("which", ["regret", "regret_report", "best_response_deviation",
                                       "is_approx_ce", "recoverability_constant",
                                       "enumerate_stationary_best_response"])
    def test_policy_of_another_shape_rejected(self, which, shape):
        # a 4-state, 4-joint-action game with a policy of too few or too many states or actions
        fx = random_mg(3, n_states=4, horizon=3, action_counts=(2, 2))
        game = fx.game
        sigma = MediatorPolicy(np.full(shape, 1.0 / shape[1]))
        dc = DeviationClass.complete(2)
        call = {"regret": lambda: regret(game, sigma, dc),
                "regret_report": lambda: regret_report(game, sigma, dc),
                "best_response_deviation": lambda: best_response_deviation(game, sigma, 0),
                "is_approx_ce": lambda: is_approx_ce(game, sigma, dc, 0.1),
                "recoverability_constant": lambda: recoverability_constant(game, sigma, dc),
                "enumerate_stationary_best_response":
                    lambda: enumerate_stationary_best_response(game, sigma, 0)}[which]
        with pytest.raises(ValueError, match=re.escape(f"policy shape {shape} does not match game")):
            call()

    def test_nfg_value_gaps(self):
        fx_r, _ = multi_ce_nfg()
        all_a2 = MediatorPolicy(np.array([[0.0, 0.0, 0.0, 1.0]]))
        assert value_gap(fx_r.game, fx_r.expert, all_a2) == pytest.approx(-1.0, abs=1e-12)
        assert value_gap(fx_r.game, fx_r.expert, fx_r.learner) == pytest.approx(1 / 3, abs=1e-12)
        assert regret_gap(fx_r.game, fx_r.expert, fx_r.learner,
                          DeviationClass.complete(2)) == pytest.approx(0.0, abs=1e-12)

    def test_fig1_value_gap_zero_despite_regret_gap(self):
        fx = fig1_game(10)
        dc = DeviationClass.complete(2)
        assert value_gap(fx.game, fx.expert, fx.learner) == 0.0
        assert regret_gap(fx.game, fx.expert, fx.learner, dc) == pytest.approx(8.0, abs=1e-9)

    def test_coverage_fixture_regret_gap(self):
        fx = coverage_lb_game(20, 10, 0.05, 0.001)
        gap = regret_gap(fx.game, fx.expert, fx.learner, DeviationClass.complete(2))
        assert gap == pytest.approx(1.6, abs=1e-9)

    def test_alice_fixture_regret_gap(self):
        fx = alice_lb_game(20, 6, 0.1, 0.005)
        gap = regret_gap(fx.game, fx.expert, fx.learner, DeviationClass.complete(1))
        assert gap == pytest.approx(0.5, abs=1e-9)

    def test_single_agent_equivalence(self):
        for seed in range(30):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=2024, spawn_key=(seed,)))
            fx = random_mg(rng, n_states=int(rng.integers(2, 9)),
                           horizon=int(rng.integers(2, 7)),
                           action_counts=(int(rng.integers(2, 5)),))
            dc = DeviationClass.complete(1)
            rg_ = regret_gap(fx.game, fx.expert, fx.learner, dc)
            vg = value_gap(fx.game, fx.expert, fx.learner)
            assert rg_ == pytest.approx(vg, abs=1e-8)


class TestApproxCE:
    def test_identity_class_always_ce(self):
        fx = random_mg(12, n_states=3, horizon=3)
        dc = DeviationClass.identities(fx.game)
        assert is_approx_ce(fx.game, fx.learner, dc, 0.0)

    def test_fig1_expert_is_ce_learner_is_not(self):
        H = 8
        fx = fig1_game(H)
        dc = DeviationClass.complete(2)
        assert is_approx_ce(fx.game, fx.expert, dc, 0.0)
        assert not is_approx_ce(fx.game, fx.learner, dc, float(H - 3))

    def test_negative_epsilon_rejected(self):
        fx = fig1_game(4)
        with pytest.raises(ValueError):
            is_approx_ce(fx.game, fx.expert, DeviationClass.complete(2), -0.1)

    def test_composition_bound(self):
        # expert regret delta1 plus regret gap delta2 certifies the learner
        for seed in range(100):
            fx = random_mg(seed + 900, n_states=3, horizon=3, action_counts=(2, 2))
            dc = random_deviation_class(fx.game, per_agent=3, seed=seed)
            d1 = regret(fx.game, fx.expert, dc)
            d2 = regret_gap(fx.game, fx.expert, fx.learner, dc)
            assert is_approx_ce(fx.game, fx.learner, dc, max(d1 + d2, 0.0) + 1e-9)


class TestMomentError:
    def test_zero_at_self(self):
        fx = random_mg(6, n_states=3, horizon=3)
        assert moment_matching_error(fx.game, fx.expert, fx.expert) == 0.0

    def test_coverage_fixture_bound(self):
        eps = 0.0015
        fx = coverage_lb_game(16, 8, 0.05, eps)
        err = moment_matching_error(fx.game, fx.expert, fx.learner, normalized=True)
        assert err <= 2 * eps + 1e-9
        assert err == pytest.approx(2 * eps, abs=1e-12)

    def test_sign_vector_oracle(self):
        # the supremum over reward tensors in [-1, 1] is attained at the sign
        # of the occupancy difference; random sign tensors never beat it
        rng = np.random.default_rng(14)
        fx = random_mg(rng, n_states=3, horizon=3, action_counts=(2, 2))
        game = fx.game
        rho_e = occupancy_bundle(game, fx.expert).avg_joint
        rho_l = occupancy_bundle(game, fx.learner).avg_joint
        f_star = np.sign(rho_e - rho_l)
        g_star = with_common_reward(game, f_star)
        attained = value(g_star, fx.expert, 0) - value(g_star, fx.learner, 0)
        err = moment_matching_error(game, fx.expert, fx.learner, normalized=False)
        assert err == pytest.approx(attained, abs=1e-10)
        for _ in range(25):
            f = rng.choice([-1.0, 1.0], size=f_star.shape)
            g = with_common_reward(game, f)
            diff = value(g, fx.expert, 0) - value(g, fx.learner, 0)
            assert diff <= err + 1e-10

    def test_unnormalized_is_h_times(self):
        fx = random_mg(7, n_states=3, horizon=5)
        a = moment_matching_error(fx.game, fx.expert, fx.learner, normalized=True)
        b = moment_matching_error(fx.game, fx.expert, fx.learner, normalized=False)
        assert b == pytest.approx(fx.game.horizon * a, abs=1e-12)


class TestWeightedTV:
    def test_zero_at_target(self):
        fx = random_mg(2, n_states=3, horizon=3)
        w = np.full(3, 1 / 3)
        assert weighted_tv_loss(fx.expert, fx.expert, w) == 0.0

    def test_coverage_fixture_equals_eps(self):
        eps = 0.001
        fx = coverage_lb_game(20, 10, 0.05, eps)
        d_e = occupancy_bundle(fx.game, fx.expert).avg_state
        assert weighted_tv_loss(fx.expert, fx.learner, d_e) == pytest.approx(eps, abs=1e-9)

    def test_disjoint_support_is_one(self):
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        p = np.array([[0.0, 1.0], [0.0, 1.0]])
        w = np.array([1.0, 0.0])
        assert weighted_tv_loss(t, p, w) == 1.0

    def test_bad_weights_rejected(self):
        fx = random_mg(2, n_states=3, horizon=3)
        with pytest.raises(ValueError):
            weighted_tv_loss(fx.expert, fx.learner, np.array([0.5, 0.2, 0.2]))


class TestOnPolicyErrorBound:
    def test_provable_factor_two_bound(self):
        # |J_i(pi1) - J_i(pi2)| <= 2 * u * H * E_{d^pi2}[TV] holds always;
        # the factor-one variant is checked (and documented as failing on
        # rare adversarial draws) in the acceptance suite
        for k in range(200):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(k,)))
            fx = random_mg(rng, n_states=int(rng.integers(2, 6)),
                           horizon=int(rng.integers(2, 6)),
                           action_counts=(int(rng.integers(2, 4)), int(rng.integers(2, 4))))
            game, pi1, pi2 = fx.game, fx.expert, fx.learner
            d2 = occupancy_bundle(game, pi2).avg_state
            eps = weighted_tv_loss(pi1, pi2, d2)
            for i in range(game.num_agents):
                _, _, adv = advantage_tensor(game, pi1, i)
                u = float(np.abs(adv).max())
                dj = abs(value(game, pi1, i) - value(game, pi2, i))
                assert dj <= 2 * eps * u * game.horizon + 1e-9


class TestEvalReport:
    def test_json_contract_fields(self):
        fx = fig1_game(5)
        rep = evaluate_pair(fx.game, fx.expert, fx.learner, DeviationClass.complete(2))
        data = rep.to_json_dict()
        for key in ("values", "regret", "value_gap", "regret_gap", "beta", "u",
                    "per_deviation_gains"):
            assert key in data
        assert data["regret"]["learner"] == pytest.approx(3.0, abs=1e-12)
        assert len(data["per_deviation_gains"]) == 4  # 2 agents x 2 policies
