"""Game model, induced behavior, sampling, and file formats."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgap import (
    Deviation,
    DeviationClass,
    MarkovGame,
    MediatorPolicy,
    induced_joint_policy,
    io,
    sample_demonstrations,
    validate_game,
    validate_policy,
)
from regretgap.evaluate import occupancy_bundle
from regretgap.fixtures import coverage_lb_game, fig1_game, multi_ce_nfg, random_mg
from regretgap.games import _push, _shift


def tiny_game(horizon=2):
    """Two states, two agents with two actions each, deterministic-ish."""
    T = np.zeros((2, 4, 2))
    T[0, :, 1] = 1.0
    T[1, :, 0] = 1.0
    r = np.zeros((2, 2, 4))
    r[:, 1, :] = 1.0
    return MarkovGame(horizon, 2, ("s0", "s1"), (("a1", "a2"), ("a1", "a2")),
                      T, r, np.array([1.0, 0.0]))


def chain_game(horizon=3):
    """Single-agent deterministic chain s0 -> s1 -> s2 -> s2."""
    T = np.zeros((3, 2, 3))
    T[0, :, 1] = 1.0
    T[1, :, 2] = 1.0
    T[2, :, 2] = 1.0
    r = np.zeros((1, 3, 2))
    r[0, 1, :] = 1.0
    return MarkovGame(horizon, 1, ("s0", "s1", "s2"), (("a1", "a2"),),
                      T, r, np.array([1.0, 0.0, 0.0]))


class TestValidation:
    def test_well_formed_game_passes(self):
        rep = validate_game(tiny_game())
        assert rep.ok and rep.violations == ()

    def test_bad_row_sum_flagged(self):
        g = tiny_game()
        T = np.array(g.transition)
        T[0, 2, 1] = 0.9  # row sums to 0.9
        bad = MarkovGame(g.horizon, g.num_agents, g.states, g.actions, T,
                         g.rewards, g.initial_dist)
        rep = validate_game(bad)
        assert not rep.ok
        assert any("row sum" in v for v in rep.violations)

    def test_reward_out_of_bound_flagged(self):
        g = tiny_game()
        r = np.array(g.rewards)
        r[0, 0, 0] = 1.5
        bad = MarkovGame(g.horizon, g.num_agents, g.states, g.actions,
                         g.transition, r, g.initial_dist)
        assert not validate_game(bad).ok
        ok = MarkovGame(g.horizon, g.num_agents, g.states, g.actions,
                        g.transition, r, g.initial_dist, reward_bound=2.0)
        assert validate_game(ok).ok

    def test_fig1_generator_output_valid(self):
        fx = fig1_game(4)
        assert validate_game(fx.game).ok
        assert validate_policy(fx.game, fx.expert).ok
        assert validate_policy(fx.game, fx.learner).ok

    def test_bad_initial_dist(self):
        g = tiny_game()
        bad = MarkovGame(g.horizon, g.num_agents, g.states, g.actions,
                         g.transition, g.rewards, np.array([0.7, 0.0]))
        assert any("initial_dist" in v for v in validate_game(bad).violations)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["initial_dist", "transition", "rewards", "table"])
    def test_non_finite_entry_flagged(self, field, value):
        g = tiny_game()
        if field == "table":
            table = np.full((2, 4), 0.25)
            table[0, 0] = value
            assert not validate_policy(g, MediatorPolicy(table)).ok
        else:
            arr = np.array(getattr(g, field))
            arr.flat[0] = value
            assert not validate_game(dataclasses.replace(g, **{field: arr})).ok

    def test_shape_errors_raise(self):
        g = tiny_game()
        with pytest.raises(ValueError):
            MarkovGame(g.horizon, g.num_agents, g.states, g.actions,
                       g.transition[:, :3, :], g.rewards, g.initial_dist)
        with pytest.raises(ValueError):
            MarkovGame(0, g.num_agents, g.states, g.actions, g.transition,
                       g.rewards, g.initial_dist)


class TestJointIndexing:
    def test_row_major_flattening(self):
        fx = fig1_game(3)
        g = fx.game
        # agent 0's action is the slow axis: (a2, a1) -> 1*3 + 0 = 3
        assert g.joint_index((1, 0)) == 3
        assert g.joint_tuple(3) == (1, 0)
        assert g.joint_index((2, 2)) == 8

    def test_component_arrays(self):
        g = tiny_game()
        np.testing.assert_array_equal(g.agent_component(0), [0, 0, 1, 1])
        np.testing.assert_array_equal(g.agent_component(1), [0, 1, 0, 1])
        assert g.component_stride(0) == 2
        assert g.component_stride(1) == 1


class TestInducedPolicy:
    def test_identity_is_noop(self):
        fx = fig1_game(4)
        ident = Deviation.identity(fx.game, 0)
        out = induced_joint_policy(fx.game, fx.expert, ident)
        np.testing.assert_array_equal(out.table, fx.expert.table)

    def test_identity_idempotent(self):
        fx = fig1_game(4)
        ident = Deviation.identity(fx.game, 1)
        once = induced_joint_policy(fx.game, fx.expert, ident)
        twice = induced_joint_policy(fx.game, once, ident)
        np.testing.assert_array_equal(once.table, twice.table)

    def test_fig1_swap_moves_mass_to_gate(self):
        # expert recommends (a1, a1) at s0; agent 0 swapping a1 -> a2 must
        # concentrate the induced play on (a2, a1)
        fx = fig1_game(4)
        dev = Deviation.from_entries(fx.game, 0, [("s0", "a1", "a2")])
        out = induced_joint_policy(fx.game, fx.expert, dev)
        gate = fx.game.joint_index((1, 0))
        assert out.table[0, gate] == pytest.approx(1.0, abs=0)

    def test_monte_carlo_oracle(self):
        # empirical deviated play on a random 2x2 recommendation row must
        # match the pushforward within 3 standard errors of 10^6 draws
        rng = np.random.default_rng(7)
        g = tiny_game()
        sigma = MediatorPolicy(rng.dirichlet(np.ones(4), size=2))
        dev = Deviation(0, rng.integers(0, 2, size=(2, 2)))
        out = induced_joint_policy(g, sigma, dev)
        n = 1_000_000
        recs = rng.choice(4, size=n, p=sigma.table[0])
        own = g.agent_component(0)[recs]
        played_own = dev.table[0, own]
        played = recs + (played_own - own) * g.component_stride(0)
        freq = np.bincount(played, minlength=4) / n
        se = np.sqrt(np.maximum(out.table[0] * (1 - out.table[0]), 1e-12) / n)
        assert np.all(np.abs(freq - out.table[0]) <= 3 * se + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 1))
    def test_rows_stay_distributions_and_marginal_pushforward(self, seed, agent):
        rng = np.random.default_rng(seed)
        fx = random_mg(rng, n_states=3, horizon=3, action_counts=(2, 3))
        g = fx.game
        n = g.action_counts[agent]
        dev = Deviation(agent, rng.integers(0, n, size=(g.n_states, n)))
        out = induced_joint_policy(g, fx.expert, dev)
        np.testing.assert_allclose(out.table.sum(axis=1), 1.0, atol=1e-12)
        assert (out.table >= 0).all()
        # the deviating agent's induced marginal is the pushforward of its
        # recommended marginal through the map, state by state
        comp = g.agent_component(agent)
        for s in range(g.n_states):
            rec_marg = np.bincount(comp, weights=fx.expert.table[s], minlength=n)
            pushed = np.bincount(dev.table[s], weights=rec_marg, minlength=n)
            ind_marg = np.bincount(comp, weights=out.table[s], minlength=n)
            np.testing.assert_allclose(ind_marg, pushed, atol=1e-12)

    @pytest.mark.parametrize("agent", [0, 1, 2])
    def test_stacked_pushforward_equals_single_maps(self, agent):
        rng = np.random.default_rng(40 + agent)
        fx = random_mg(rng, n_states=5, horizon=3, action_counts=(2, 3, 2))
        g = fx.game
        n = g.action_counts[agent]
        maps = rng.integers(0, n, size=(6, g.n_states, n))
        maps[2] = np.arange(n)  # the identity map leaves the table unchanged
        stacked = _push(_shift(g, agent, maps), fx.expert.table)
        assert stacked.shape == (6, g.n_states, g.n_joint_actions)
        for k in range(6):
            single = _push(_shift(g, agent, maps[k]), fx.expert.table)
            np.testing.assert_array_equal(stacked[k], single)
        np.testing.assert_array_equal(stacked[2], fx.expert.table)

    def test_shape_mismatch_rejected(self):
        fx = fig1_game(4)
        g2 = tiny_game()
        dev = Deviation.identity(g2, 0)
        with pytest.raises(ValueError):
            induced_joint_policy(fx.game, fx.expert, dev)


class TestDeviationClass:
    def test_explicit_requires_or_inserts_identity(self):
        g = tiny_game()
        swap = Deviation(0, np.array([[1, 0], [1, 0]]))
        dc = DeviationClass.explicit(g, [swap])
        assert any(d.is_identity() for d in dc.explicit_for(0))
        assert any(d.is_identity() for d in dc.explicit_for(1))

    def test_complete_marker(self):
        dc = DeviationClass.complete(2)
        assert dc.is_complete(0) and dc.is_complete(1)
        with pytest.raises(ValueError):
            dc.explicit_for(0)

    def test_wrong_agent_rejected(self):
        g = tiny_game()
        for agent in (2, -1):     # past the last agent, and a negative index that would wrap
            dev = Deviation(agent, np.array([[0, 1], [0, 1]]))
            with pytest.raises(ValueError, match=f"agent {agent}: the game has agents 0..1"):
                DeviationClass.explicit(g, [Deviation.identity(g, 1), dev])

    def test_flat_list_grouped_by_agent_in_order(self):
        g = tiny_game()
        swap0 = Deviation(0, np.array([[1, 0], [1, 0]]), label="swap0")
        swap1 = Deviation(1, np.array([[1, 0], [1, 0]]), label="swap1")
        stay0 = Deviation(0, np.array([[0, 0], [0, 0]]), label="stay0")
        dc = DeviationClass.explicit(g, [swap1, swap0, stay0])
        assert [d.label for d in dc.explicit_for(0)][1:] == ["swap0", "stay0"]
        assert [d.label for d in dc.explicit_for(1)][1:] == ["swap1"]
        assert dc.num_agents == g.num_agents


class TestSampling:
    def test_deterministic_chain_unique_trajectory(self):
        g = chain_game(3)
        pol = MediatorPolicy.deterministic(g, [0, 0, 0])
        for seed in (0, 1, 99):
            demos = sample_demonstrations(g, pol, 1, seed)
            np.testing.assert_array_equal(demos.states[0], [0, 1, 2])
            np.testing.assert_array_equal(demos.actions[0], [0, 0, 0])

    def test_seed_reproducibility(self):
        fx = random_mg(3, n_states=4, horizon=5)
        t1 = sample_demonstrations(fx.game, fx.expert, 1, 42)
        t2 = sample_demonstrations(fx.game, fx.expert, 1, 42)
        np.testing.assert_array_equal(t1.states[0], t2.states[0])
        np.testing.assert_array_equal(t1.actions[0], t2.actions[0])

    def test_fig1_expert_stays_on_lower_path(self):
        fx = fig1_game(6)
        lower = {0} | {2 * k for k in range(1, 6)}
        for seed in range(20):
            demos = sample_demonstrations(fx.game, fx.expert, 1, seed)
            assert set(demos.states[0].tolist()) <= lower

    def test_empirical_frequencies_match_exact(self):
        fx = random_mg(11, n_states=3, horizon=4, action_counts=(2, 2))
        demos = sample_demonstrations(fx.game, fx.expert, 100_000, seed=5)
        occ = occupancy_bundle(fx.game, fx.expert)
        for h in range(fx.game.horizon):
            freq = np.bincount(demos.states[:, h], minlength=3) / len(demos)
            d = occ.per_step_state[h]
            se = np.sqrt(np.maximum(d * (1 - d), 1e-12) / len(demos))
            assert np.all(np.abs(freq - d) <= 3 * se + 1e-9)

    def test_average_histogram_converges(self):
        fx = random_mg(13, n_states=3, horizon=4, action_counts=(2, 2))
        demos = sample_demonstrations(fx.game, fx.expert, 100_000, seed=8)
        avg = demos.state_counts(fx.game) / demos.states.size
        d = occupancy_bundle(fx.game, fx.expert).avg_state
        assert np.abs(avg - d).max() < 0.01

    def test_zero_demos_rejected(self):
        g = chain_game()
        with pytest.raises(ValueError):
            sample_demonstrations(g, MediatorPolicy.uniform(g), 0, seed=0)

    def test_singleton_demo_forced(self):
        g = chain_game(3)
        pol = MediatorPolicy.deterministic(g, [1, 1, 1])
        demos = sample_demonstrations(g, pol, 1, seed=3)
        assert len(demos) == 1
        np.testing.assert_array_equal(demos.states[0], [0, 1, 2])
        np.testing.assert_array_equal(demos.actions[0], [1, 1, 1])


class TestImmutability:
    def test_arrays_frozen(self):
        fx = fig1_game(4)
        with pytest.raises(ValueError):
            fx.game.transition[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            fx.expert.table[0, 0] = 0.5


def assert_bitwise(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


GAME_ARRAYS = ("transition", "rewards", "initial_dist")


def quoted_names_game():
    """A game whose state and action names need escaping in JSON."""
    g = tiny_game()
    return dataclasses.replace(g, states=('say "hi"', "back\\slash"),
                               actions=(("été", "a2"), ("雨", 'q"\\')))


BYTE_IDENTITY_GAMES = {
    "fig1": lambda: fig1_game(6).game,
    "multi-ce-nfg-0": lambda: multi_ce_nfg()[0].game,
    "multi-ce-nfg-1": lambda: multi_ce_nfg()[1].game,
    "coverage-lb": lambda: coverage_lb_game().game,
    "reward-bound": lambda: dataclasses.replace(fig1_game(4).game,
                                                reward_bound=float(np.nextafter(2.5, 3))),
    "quoted-names": quoted_names_game,
}


class TestFileFormats:
    @pytest.mark.parametrize("name", BYTE_IDENTITY_GAMES)
    def test_writer_gives_the_json_dumps_bytes(self, tmp_path, name):
        # the writer passes each base64 payload through as bytes; the file must
        # still be exactly the text json.dumps gives for the same dict
        game = BYTE_IDENTITY_GAMES[name]()
        path = io.save_game(game, tmp_path / "game.json")
        assert path.read_bytes() == json.dumps(io.game_to_dict(game)).encode("ascii")
        g2 = io.load_game(path)
        for field in GAME_ARRAYS:
            assert_bitwise(getattr(g2, field), getattr(game, field))
        assert (g2.horizon, g2.num_agents, g2.states, g2.actions, g2.reward_bound) == \
            (game.horizon, game.num_agents, game.states, game.actions, game.reward_bound)
        table = np.random.default_rng(0).dirichlet(np.ones(game.n_joint_actions), game.n_states)
        path = io.save_policy(MediatorPolicy(table), tmp_path / "pol.json")
        assert path.read_bytes() == json.dumps({"table": io._pack(table)}).encode("ascii")
        assert_bitwise(io.load_policy(path).table, table)

    def test_writer_encodes_a_large_payload_piece_by_piece(self, tmp_path):
        """A transition tensor of 3.3 base64 pieces: the file is still the
        json.dumps text, and writing it never holds the payload whole (one
        b64encode of the tensor allocates twice its 640 kB)."""
        import tracemalloc

        game = random_mg(2, n_states=100, horizon=3, action_counts=(2, 2, 2)).game
        assert game.transition.nbytes > 3 * io._PIECE
        tracemalloc.start()
        try:
            path = io.save_game(game, tmp_path / "game.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == json.dumps(io.game_to_dict(game)).encode("ascii")
        assert_bitwise(io.load_game(path).transition, game.transition)
        assert peak < game.transition.nbytes

    def test_packed_round_trip_is_bitwise(self, tmp_path):
        special = [-0.0, 5e-324, 2.2250738585072e-308, np.nextafter(1.0, 0.0), 1 / 3]
        g = tiny_game()
        T, r = np.array(g.transition), np.array(g.rewards)
        T.flat[:5] = r.flat[:5] = special
        game = dataclasses.replace(g, transition=T, rewards=r, initial_dist=np.array([-0.0, 5e-324]))
        path = io.save_game(game, tmp_path / "game.json")
        assert io.load_json(path)["transitions"]["dtype"] == "<f8"
        g2 = io.load_game(path)
        for name in GAME_ARRAYS:
            assert_bitwise(getattr(g2, name), getattr(game, name))
        table = np.full((2, 4), 0.25)
        table.flat[:5] = special
        p2 = io.load_policy(io.save_policy(MediatorPolicy(table), tmp_path / "pol.json"))
        assert_bitwise(p2.table, table)

    def test_desk_cap_round_trip_is_bitwise(self, tmp_path):
        fx = random_mg(0, n_states=200, horizon=10, action_counts=(2,) * 4,
                       full_coverage_expert=True)
        g2 = io.load_game(io.save_game(fx.game, tmp_path / "game.json"))
        for name in GAME_ARRAYS:
            assert_bitwise(getattr(g2, name), getattr(fx.game, name))
        for pol in (fx.expert, fx.learner):
            assert_bitwise(io.load_policy(io.save_policy(pol, tmp_path / "pol.json")).table,
                           pol.table)

    def test_nested_lists_load_like_the_packed_form(self, tmp_path):
        # nested lists are the hand-written form, and the form of older files
        fx = random_mg(2, n_states=5, horizon=4)
        packed = io.load_game(io.save_game(fx.game, tmp_path / "packed.json"))
        nested = {**io.game_to_dict(fx.game), "transitions": fx.game.transition.tolist(),
                  "rewards": fx.game.rewards.tolist(),
                  "initial_dist": fx.game.initial_dist.tolist()}
        (tmp_path / "nested.json").write_text(json.dumps(nested))
        g2 = io.load_game(tmp_path / "nested.json")
        for name in GAME_ARRAYS:
            assert_bitwise(getattr(g2, name), getattr(packed, name))
        (tmp_path / "pol.json").write_text(json.dumps({"table": fx.expert.table.tolist()}))
        assert_bitwise(io.load_policy(tmp_path / "pol.json").table,
                       io.load_policy(io.save_policy(fx.expert, tmp_path / "packed_pol.json")).table)

    def test_game_round_trip(self, tmp_path):
        fx = fig1_game(5)
        path = io.save_game(fx.game, tmp_path / "game.json")
        g2 = io.load_game(path)
        assert g2.states == fx.game.states
        assert g2.actions == fx.game.actions
        np.testing.assert_array_equal(g2.transition, fx.game.transition)
        np.testing.assert_array_equal(g2.rewards, fx.game.rewards)
        np.testing.assert_array_equal(g2.initial_dist, fx.game.initial_dist)
        assert g2.horizon == fx.game.horizon

    def test_policy_round_trip(self, tmp_path):
        fx = random_mg(1, n_states=3, horizon=3)
        path = io.save_policy(fx.expert, tmp_path / "pol.json")
        p2 = io.load_policy(path)
        np.testing.assert_array_equal(p2.table, fx.expert.table)

    def test_deviation_round_trip_sparse_identity_default(self, tmp_path):
        fx = fig1_game(4)
        dev = Deviation.from_entries(fx.game, 0, [("s0", "a1", "a2"), ("s1", "a1", "a2")])
        path = io.save_deviation(dev, fx.game, tmp_path / "dev.json")
        d2 = io.load_deviation(path, fx.game)
        np.testing.assert_array_equal(d2.table, dev.table)
        assert d2.agent == 0
        data = io.load_json(path)
        assert len(data["entries"]) == 2  # identity pairs omitted

    def test_deviation_integer_entries_accepted(self, tmp_path):
        fx = fig1_game(4)
        (tmp_path / "dev.json").write_text('{"agent": 1, "entries": [[0, 0, 1]]}')
        dev = io.load_deviation(tmp_path / "dev.json", fx.game)
        assert dev.table[0, 0] == 1

    def test_reward_bound_round_trip(self, tmp_path):
        from regretgap.fixtures import multi_ce_nfg

        fx_r, _ = multi_ce_nfg()
        path = io.save_game(fx_r.game, tmp_path / "nfg.json")
        g2 = io.load_game(path)
        assert g2.reward_bound == 2.0
        assert validate_game(g2).ok
