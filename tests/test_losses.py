"""Convex loss surfaces and the online optimization loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgap import (
    CompositeMaxLoss,
    CoverageError,
    DeviationClass,
    ExpertOracle,
    MediatorPolicy,
    TrainConfig,
    blades_loss,
    induced_tables,
    malice_loss,
    occupancy_bundle,
    oco_run,
    weighted_tv_loss,
)
from regretgap.fixtures import alice_lb_game, coverage_lb_game, random_mg
from regretgap.games import induced_tables
from regretgap.losses import malice_components, tv_rows


def rand_simplex(rng, shape):
    return rng.dirichlet(np.ones(shape[1]), size=shape[0])


class TestBCLoss:
    def test_zero_at_expert(self):
        fx = random_mg(0, n_states=3, horizon=3)
        d = occupancy_bundle(fx.game, fx.expert).avg_state
        assert weighted_tv_loss(fx.expert, fx.expert, d) == 0.0

    def test_coverage_fixture_is_eps(self):
        eps = 0.002
        fx = coverage_lb_game(15, 7, 0.1, eps)
        d = occupancy_bundle(fx.game, fx.expert).avg_state
        assert weighted_tv_loss(fx.expert, fx.learner, d) == pytest.approx(eps, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(5)
        fx = random_mg(rng, n_states=4, horizon=3)
        d = occupancy_bundle(fx.game, fx.expert).avg_state
        for _ in range(20):
            other = MediatorPolicy(rand_simplex(rng, fx.expert.table.shape))
            assert 0.0 <= weighted_tv_loss(fx.expert, other, d) <= 1.0


class TestMaliceLoss:
    def _setup(self, seed=0):
        fx = random_mg(seed, n_states=3, horizon=3, full_coverage_expert=True)
        game = fx.game
        dc = DeviationClass.complete(2)
        d_e = occupancy_bundle(game, fx.expert).avg_state
        from regretgap.fixtures import random_deviation_class

        phi = random_deviation_class(game, per_agent=3, seed=seed + 1)
        dists = []
        for i in range(2):
            for dev in phi.explicit_for(i):
                tabs = induced_tables(game, fx.learner, dev)
                dists.append(occupancy_bundle(game, tabs).avg_state)
        return fx, d_e, dists

    def test_zero_at_expert(self):
        fx, d_e, dists = self._setup()
        assert malice_loss(fx.expert, fx.expert, d_e, dists) == 0.0

    def test_alice_fixture_at_most_eps(self):
        eps = 0.004
        fx = alice_lb_game(18, 5, 0.1, eps)
        phi = fx.witness_class()
        d_e = occupancy_bundle(fx.game, fx.expert).avg_state
        dists = [occupancy_bundle(fx.game, induced_tables(fx.game, fx.learner, dev)).avg_state
                 for dev in phi.explicit_for(0)]
        loss = malice_loss(fx.expert, fx.learner, d_e, dists)
        assert loss <= eps + 1e-12
        assert loss == pytest.approx(eps, abs=1e-12)

    def test_equals_bc_under_deviated_distribution(self):
        # with a single deviation the max collapses to a plain reweighted
        # expectation, identical to weighted_tv_loss under the deviated density
        fx, d_e, dists = self._setup(seed=4)
        one = [dists[0]]
        direct = weighted_tv_loss(fx.expert, fx.learner, dists[0] / dists[0].sum())
        assert malice_loss(fx.expert, fx.learner, d_e, one) == pytest.approx(direct, abs=1e-12)

    def test_support_violation_raises(self):
        fx, d_e, dists = self._setup(seed=6)
        d_hole = d_e.copy()
        d_hole[0] = 0.0
        d_hole /= d_hole.sum()
        bad = np.zeros_like(d_e)
        bad[0] = 1.0
        with pytest.raises(CoverageError):
            malice_loss(fx.expert, fx.learner, d_hole, [bad])

    def test_support_violation_names_first_offending_label(self):
        d_e = np.array([0.5, 0.0, 0.5, 0.0])
        ok = np.array([0.5, 0.0, 0.5, 0.0])
        first = np.array([0.25, 0.25, 0.25, 0.25])
        second = np.array([0.0, 1.0, 0.0, 0.0])
        expert = MediatorPolicy(np.full((4, 2), 0.5))
        with pytest.raises(CoverageError, match=r"'dev1' puts mass .* \(states \[1, 3\]\)"):
            malice_components(expert, d_e, [ok, first, second])

    def test_value_in_unit_interval(self):
        fx, d_e, dists = self._setup(seed=8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            pol = MediatorPolicy(rand_simplex(rng, fx.expert.table.shape))
            assert 0.0 <= malice_loss(fx.expert, pol, d_e, dists) <= 1.0

    def test_dominates_deviated_play_divergence(self):
        # filtering recommendations through the same map cannot increase the
        # row-wise TV, so the loss upper-bounds the deviated-play divergence
        # under the maximizing deviation
        fx = random_mg(23, n_states=3, horizon=3, full_coverage_expert=True)
        from regretgap.fixtures import random_deviation_class
        from regretgap.losses import tv_rows

        phi = random_deviation_class(fx.game, per_agent=3, seed=24)
        d_e = occupancy_bundle(fx.game, fx.expert).avg_state
        devs = [d for i in range(2) for d in phi.explicit_for(i)]
        dists = [occupancy_bundle(fx.game, induced_tables(fx.game, fx.learner, d)).avg_state
                 for d in devs]
        loss = malice_loss(fx.expert, fx.learner, d_e, dists)
        for dev, dist in zip(devs, dists):
            exp_dev = induced_tables(fx.game, fx.expert, dev)[0]
            lrn_dev = induced_tables(fx.game, fx.learner, dev)[0]
            assert float(dist @ tv_rows(exp_dev, lrn_dev)) <= loss + 1e-12


class TestBladesLoss:
    def test_matches_malice_under_full_support(self):
        fx = random_mg(10, n_states=3, horizon=3, full_coverage_expert=True)
        from regretgap.fixtures import random_deviation_class

        phi = random_deviation_class(fx.game, per_agent=3, seed=11)
        d_e = occupancy_bundle(fx.game, fx.expert).avg_state
        dists = []
        for i in range(2):
            for dev in phi.explicit_for(i):
                tabs = induced_tables(fx.game, fx.learner, dev)
                dists.append(occupancy_bundle(fx.game, tabs).avg_state)
        oracle = ExpertOracle(fx.expert)
        lhs = blades_loss(oracle, fx.learner, dists)
        rhs = malice_loss(fx.expert, fx.learner, d_e, dists)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert oracle.query_count == fx.game.n_states  # one query per state

    def test_queries_only_supported_states(self):
        fx = random_mg(12, n_states=4, horizon=3)
        oracle = ExpertOracle(fx.expert)
        dist = np.zeros(4)
        dist[2] = 1.0
        blades_loss(oracle, fx.learner, [dist])
        assert oracle.query_count == 1
        assert oracle.query_log[0]["state"] == 2


class TestSubgradient:
    def test_zero_at_target(self):
        rng = np.random.default_rng(1)
        target = rand_simplex(rng, (3, 4))
        loss = CompositeMaxLoss(np.full((1, 3), 1 / 3), target)
        np.testing.assert_array_equal(loss.subgradient(target), np.zeros((3, 4)))

    def test_convexity_inequality_at_probes(self):
        # L(y) >= L(x) + <g, y - x> at 20 random probe pairs
        rng = np.random.default_rng(2)
        target = rand_simplex(rng, (1, 2))
        loss = CompositeMaxLoss(np.ones((1, 1)), target)
        for _ in range(20):
            x = rand_simplex(rng, (1, 2))
            y = rand_simplex(rng, (1, 2))
            g = loss.subgradient(x)
            assert loss.value(y) >= loss.value(x) + float((g * (y - x)).sum()) - 1e-6

    def test_positive_homogeneity_in_weights(self):
        rng = np.random.default_rng(3)
        target = rand_simplex(rng, (3, 4))
        x = rand_simplex(rng, (3, 4))
        w = rng.dirichlet(np.ones(3))
        g_full = CompositeMaxLoss(w[None], target).subgradient(x)
        g_half = CompositeMaxLoss(0.5 * w[None], target).subgradient(x)
        np.testing.assert_allclose(g_half, 0.5 * g_full, atol=1e-15)

    def test_achieving_component_tie_break_lowest(self):
        target = np.array([[1.0, 0.0]])
        comp = CompositeMaxLoss(np.ones((2, 1)), target)
        x = np.array([[0.25, 0.75]])
        assert comp.achieving(x) == 0

    @pytest.mark.parametrize("S", [3, 8, 64, 200])
    @pytest.mark.parametrize("K", [1, 8, 64])
    def test_component_values_are_per_row_dots(self, K, S):
        # the components share one TV row, and each value must equal its own
        # single-distribution loss bitwise: einsum or a matrix-vector product
        # in place of the per-row dot differs in the last bit on most draws
        rng = np.random.default_rng(1000 * K + S)
        target, x = rand_simplex(rng, (S, 3)), rand_simplex(rng, (S, 3))
        W = rng.dirichlet(np.ones(S), size=K)
        vals = CompositeMaxLoss(W, target).component_values(x)
        assert vals.tolist() == [weighted_tv_loss(target, x, w) for w in W]

    @pytest.mark.parametrize("weights", [(), np.ones(3), np.ones((0, 3)), np.ones((1, 1, 3))])
    def test_empty_or_non_matrix_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="at least one component"):
            CompositeMaxLoss(weights, np.full((3, 2), 0.5))


class TestConvexityProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_midpoint_convexity(self, seed):
        rng = np.random.default_rng(seed)
        target = rand_simplex(rng, (2, 3))
        weights = rng.dirichlet(np.ones(2))
        loss = CompositeMaxLoss(np.stack([weights, weights[::-1]]), target)
        x = rand_simplex(rng, (2, 3))
        y = rand_simplex(rng, (2, 3))
        mid = 0.5 * (x + y)
        assert loss.value(mid) <= 0.5 * (loss.value(x) + loss.value(y)) + 1e-12


class TestOCORun:
    def test_constant_zero_loss_keeps_iterates(self):
        target = np.full((2, 3), 1 / 3)

        def builder(n, sigma):
            return CompositeMaxLoss(np.full((1, 2), 0.5), sigma.copy())

        run = oco_run(builder, (2, 3), TrainConfig(rounds=50))
        np.testing.assert_allclose(run.tables[0], target)
        np.testing.assert_allclose(run.tables[-1], target, atol=1e-12)
        assert run.losses.max() == 0.0

    def test_single_fixed_loss_converges(self):
        rng = np.random.default_rng(9)
        target = rand_simplex(rng, (3, 4))
        w = np.full(3, 1 / 3)
        loss = CompositeMaxLoss(w[None], target)

        run = oco_run(lambda n, s: loss, (3, 4), TrainConfig(rounds=2000))
        assert run.losses.mean() <= 0.05
        assert run.losses[-1] <= 0.02

    def test_iterates_stay_on_simplex(self):
        rng = np.random.default_rng(10)
        targets = [rand_simplex(rng, (2, 4)) for _ in range(3)]

        def builder(n, sigma):
            return CompositeMaxLoss(np.array([[0.7, 0.3]]), targets[n % 3])

        run = oco_run(builder, (2, 4), TrainConfig(rounds=200))
        np.testing.assert_allclose(run.tables.sum(axis=2), 1.0, atol=1e-12)
        assert (run.tables >= 0).all()

    def test_adversarial_no_regret_certificate(self):
        # alternating one-hot targets over one state, 4 joint actions
        N, A = 4096, 4
        targets = [np.zeros((1, A)), np.zeros((1, A))]
        targets[0][0, 0] = 1.0
        targets[1][0, 1] = 1.0

        def builder(n, sigma):
            return CompositeMaxLoss(np.ones((1, 1)), targets[(n - 1) % 2])

        run = oco_run(builder, (1, A), TrainConfig(rounds=N))
        # best fixed policy puts all mass on the two target actions: loss 1/2
        best_fixed = 0.5
        avg_regret = float(run.losses.mean()) - best_fixed
        assert avg_regret <= 2 * np.sqrt(np.log(A) / N)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="need at least one round"):
            TrainConfig(rounds=0)
