"""The batched DP core against the per-deviation path it replaced.

The reference below evaluates one deviation at a time: per-step push of
the policy through the map, then a forward or backward DP with einsum
contractions, exactly as the library did before every evaluator and
learner called one batched forward and one batched backward DP.  Numbers
must agree to 1e-12; labels, ties and exact zeros must agree exactly.
The best response keeps its own reference, the two-matvec DP it ran before
it became two rows of the batched backward DP; its maps must agree exactly.

The stationary enumeration keeps its reference too: every map built by
itertools.product and pushed as one stack, as the enumeration did before
it pushed state by state; results and ``_distinct`` must agree bitwise.

The learner rounds have references of their own: one TV row per loss
component, the MALICE/BLADES round that rebuilt its push and its loss
every round, and the j_irl loop that rebuilt the expert occupancy and two
occupancy bundles every round.  Those must agree bitwise.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretgap import (
    COMPLETE,
    CompositeMaxLoss,
    CoverageError,
    Deviation,
    DeviationClass,
    ExpertOracle,
    MediatorPolicy,
    OCOConfig,
    TrainConfig,
    TrainResult,
    best_response_deviation,
    blades_train,
    evaluate_pair,
    j_bc,
    j_irl,
    malice_train,
    moment_matching_error,
    occupancy_bundle,
    oco_run,
    recoverability_constant,
    regret_gap,
    regret_report,
    sample_demonstrations,
    value,
    value_gap,
    values,
)
from regretgap import evaluate, games, learners
from regretgap.fixtures import coverage_lb_game, random_deviation_class, random_mg
from regretgap.games import _push_index, _shift, policy_tables
from regretgap.harness import property_suite_games
from regretgap.evaluate import state_density
from regretgap.learners import TraceRow
from regretgap.losses import SUPPORT_TOL, _table, tv_rows

TOL = 1e-12


# ---------------------------------------------------------------------------
# Reference: one deviation at a time
# ---------------------------------------------------------------------------


def ref_push(shift, table):
    """The push that built its flat targets and broadcast its weights on
    every call."""
    flat = (shift + np.arange(shift.size).reshape(shift.shape)).ravel()
    weights = np.broadcast_to(table, shift.shape).ravel()
    return np.bincount(flat, weights=weights, minlength=shift.size).reshape(shift.shape)


def ref_induced(game, policy, dev):
    tables = policy_tables(game, policy)
    out = np.empty_like(tables)
    for h in range(game.horizon):
        out[h] = ref_push(_shift(game, dev.agent, dev.table[h] if dev.time_indexed else dev.table),
                       tables[h])
    return out


def ref_states(game, policy):
    tables = policy_tables(game, policy)
    d = np.empty((game.horizon, game.n_states))
    d[0] = game.initial_dist
    for h in range(game.horizon - 1):
        d[h + 1] = np.einsum("sa,sax->x", d[h][:, None] * tables[h], game.transition)
    return d


def ref_value_functions(game, policy, agent):
    tables = policy_tables(game, policy)
    Q = np.empty(tables.shape)
    V = np.empty(tables.shape[:2])
    v_next = np.zeros(game.n_states)
    for h in reversed(range(game.horizon)):
        Q[h] = game.rewards[agent] + np.einsum("sax,x->sa", game.transition, v_next)
        V[h] = (tables[h] * Q[h]).sum(axis=1)
        v_next = V[h]
    return Q, V


def ref_value(game, policy, agent):
    return float(game.initial_dist @ ref_value_functions(game, policy, agent)[1][0])


def ref_best_response(game, sigma, agent):
    """The best-response DP with two matvecs per step: (maps, gain,
    deviated value, obedient value)."""
    H, S, A = game.horizon, game.n_states, game.n_joint_actions
    n = game.action_counts[agent]

    def own_axis(arr_sa):   # (S, A) -> (S, n_i, A_rest), own action on axis 1
        moved = np.moveaxis(arr_sa.reshape(S, *game.action_counts), 1 + agent, 1)
        return np.ascontiguousarray(moved).reshape(S, n, -1)

    sig_r = own_axis(sigma.table)
    r = game.rewards[agent]
    own = np.arange(n)
    T2 = game.transition.reshape(S * A, S)
    W, V = np.zeros(S), np.zeros(S)
    maps = np.empty((H, S, n), dtype=np.int64)
    for h in reversed(range(H)):
        G_dev = r + (T2 @ W).reshape(S, A)
        G_obey = r + (T2 @ V).reshape(S, A)
        U_dev = np.einsum("sjx,sbx->sjb", sig_r, own_axis(G_dev))
        U_obey = np.einsum("sjx,sbx->sjb", sig_r, own_axis(G_obey))
        best = U_dev.max(axis=2)
        first_argmax = np.argmax(U_dev == best[:, :, None], axis=2)
        maps[h] = np.where(U_dev[:, own, own] == best, own[None, :], first_argmax)
        W = best.sum(axis=1)
        V = U_obey[:, own, own].sum(axis=1)
    deviated, obedient = float(game.initial_dist @ W), float(game.initial_dist @ V)
    return maps, deviated - obedient, deviated, obedient


def ref_gains(game, sigma, deviations):
    """(agent, label, gain) per column and the best one, the loop the library ran."""
    base = [ref_value(game, sigma, i) for i in range(game.num_agents)]
    gains = []
    for i in range(game.num_agents):
        if deviations.is_complete(i):
            gains.append((i, f"br(agent={i})", ref_best_response(game, sigma, i)[1]))
        else:
            for k, dev in enumerate(deviations.explicit_for(i)):
                gain = ref_value(game, ref_induced(game, sigma, dev), i) - base[i]
                gains.append((i, dev.label or f"dev{k}", gain))
    best = gains[0]
    for g in gains[1:]:
        if g[2] > best[2]:
            best = g
    return gains, best


def ref_candidates(game, expert, deviations):
    out = []
    for i in range(game.num_agents):
        if deviations.is_complete(i):
            out += [Deviation.identity(game, i), Deviation(i, ref_best_response(game, expert, i)[0])]
        else:
            out += list(deviations.explicit_for(i))
    return out


def ref_u(game, expert, deviations):
    u = 0.0
    for dev in ref_candidates(game, expert, deviations):
        Q, V = ref_value_functions(game, ref_induced(game, expert, dev), dev.agent)
        u = max(u, float(np.abs(Q - V[:, :, None]).max()))
    return u


def ref_forward(game, tables):
    """Drop-in for evaluate._forward: one per-step DP per column."""
    return np.stack([ref_states(game, t) for t in tables])


# ---------------------------------------------------------------------------
# Reference: the learner rounds as they ran before the rework
# ---------------------------------------------------------------------------


def ref_component_values(self, policy):
    """Drop-in for CompositeMaxLoss.component_values: one TV row per component."""
    return np.array([float(w @ tv_rows(self.target, _table(policy))) for w in self.weights])


def ref_stationarize(per_step_joint, fallback_row):
    """The stationary candidate of one round, from its (H, S, A) flows."""
    mass = per_step_joint.sum(axis=0)
    totals = mass.sum(axis=1)
    table = np.tile(fallback_row, (mass.shape[0], 1))
    pos = totals > SUPPORT_TOL
    table[pos] = mass[pos] / totals[pos, None]
    return table


def ref_greedy_tables(game, reward_sa):
    """The greedy per-step optimizer of a shared reward as one-hot (H, S, A)
    tables, one einsum and one argmax per step."""
    H, S, A = game.horizon, game.n_states, game.n_joint_actions
    tables = np.zeros((H, S, A))
    v, states = np.zeros(S), np.arange(S)
    for h in reversed(range(H)):
        q = reward_sa + np.einsum("sax,x->sa", game.transition, v)
        best = q.argmax(axis=1)
        tables[h, states, best] = 1.0
        v = q[states, best]
    return tables


def ref_j_irl(game, expert, rounds, init=None, tol=1e-9):
    """The j_irl loop that rebuilt the expert occupancy and two occupancy
    bundles every round and played one-hot tables; returns (errors,
    best_round, rounds_run, table)."""
    rho_expert = occupancy_bundle(game, expert).avg_joint
    current = init if init is not None else MediatorPolicy.uniform(game)
    mix_sum = occupancy_bundle(game, current).per_step_joint.copy()
    uniform_row = np.full(game.n_joint_actions, 1.0 / game.n_joint_actions)
    errors = []
    best_err, best_table, best_round = np.inf, None, 0
    for n in range(1, rounds + 1):
        candidate = ref_stationarize(mix_sum / n, uniform_row)
        err = moment_matching_error(game, expert, MediatorPolicy(candidate), normalized=True)
        errors.append(err)
        if err < best_err:
            best_err, best_table, best_round = err, candidate, n
        if best_err <= tol:
            break
        residual = rho_expert - (mix_sum / n).mean(axis=0)
        new_tables = ref_greedy_tables(game, np.sign(residual))
        mix_sum += occupancy_bundle(game, new_tables).per_step_joint
    return tuple(errors), best_round, len(errors), best_table


def ref_malice_components(expert, d_expert, dists, labels):
    """malice_components as every round built it, coverage mask included."""
    bad = (dists > SUPPORT_TOL) & (d_expert <= SUPPORT_TOL)
    if bad.any():
        k = int(bad.any(axis=1).argmax())
        raise CoverageError(
            f"deviated distribution {labels[k]!r} puts mass on states the expert never "
            f"visits (states {np.nonzero(bad[k])[0].tolist()}); importance weights undefined"
        )
    return CompositeMaxLoss(dists, expert.table)


def ref_blades_components(oracle, dists, round_index):
    """blades_components as every round built it."""
    support = (dists > SUPPORT_TOL).any(axis=0)
    A = oracle.n_joint_actions
    target = np.full((support.shape[0], A), 1.0 / A)
    for s in np.nonzero(support)[0]:
        target[s] = oracle.query(int(s), round_index=round_index)
    return CompositeMaxLoss(dists, target)


def ref_train(algo, game, expert, deviations, config, demos):
    """malice_train or blades_train with the round before the rework: the
    push built its targets every call, each density was a .mean(axis=1),
    and the loss was built from scratch every round.  Returns (OCORun,
    TrainResult)."""
    pairs = [(i, dev.label or f"a{i}/dev{k}", dev) for i in range(deviations.num_agents)
             for k, dev in enumerate(deviations.explicit_for(i))]
    labels = [lab for _, lab, _ in pairs]
    steps = any(dev.time_indexed for _, _, dev in pairs)
    S, A = game.n_states, game.n_joint_actions
    shift = np.empty((len(pairs),) + (game.horizon,) * steps + (S, A), dtype=np.int64)
    for k, (_, _, dev) in enumerate(pairs):
        shift[k] = _shift(game, dev.agent, dev.table)
    oracle, init = None, None
    if algo == "malice":
        d_expert = state_density(game, expert)

        def build_loss(dists, n):
            return ref_malice_components(expert, d_expert, dists, labels)
    else:
        oracle = ExpertOracle(expert)
        init = j_bc(game, demos=demos).table

        def build_loss(dists, n):
            return ref_blades_components(oracle, dists, n)

    def densities(sigma):
        return evaluate._forward(game, ref_push(shift, sigma)).mean(axis=1)

    run = oco_run(lambda n, sigma: build_loss(densities(sigma), n), (S, A),
                  OCOConfig(config.rounds, config.rule), init=init)
    best, final = run.best_round, float(run.losses[run.best_round])
    log_a = np.log(max(A, 2))
    trace = tuple(
        TraceRow(n + 1, float(run.losses[n]), pairs[run.achieving[n]][0],
                 pairs[run.achieving[n]][1], float(np.sqrt(log_a / (n + 1))))
        for n in range(config.rounds)
    )
    queries = (0, ()) if oracle is None else (oracle.query_count, tuple(oracle.query_log))
    return run, TrainResult(MediatorPolicy(run.tables[best]), trace, final, best + 1, *queries)


# ---------------------------------------------------------------------------
# Random instances: m <= 3, time-indexed, duplicate and identity maps
# ---------------------------------------------------------------------------


def random_instance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    counts = tuple(int(rng.integers(2, 4)) for _ in range(m)) if m < 3 else (2, 2, 2)
    H = int(rng.integers(1, 5))
    layered = bool(rng.integers(0, 2)) and H > 1
    fx = random_mg(rng, n_states=int(rng.integers(H if layered else 2, 6)), horizon=H,
                   action_counts=counts, layered=layered)
    game = fx.game
    S, A = game.n_states, game.n_joint_actions
    sigma = fx.learner
    if rng.integers(0, 2):   # one-hot rows: maps that differ off-support push equal tables
        sigma = MediatorPolicy.deterministic(game, rng.integers(0, A, size=S))
    per_agent = []
    for i in range(m):
        n = game.action_counts[i]
        if rng.integers(0, 4) == 0:
            per_agent.append(COMPLETE)
            continue
        devs = [Deviation.identity(game, i, label=f"a{i}/id")]
        for k in range(int(rng.integers(1, 4))):
            shape = (H, S, n) if rng.integers(0, 2) else (S, n)
            devs.append(Deviation(i, rng.integers(0, n, size=shape), label=f"a{i}/d{k}"))
        devs.append(Deviation(i, devs[-1].table, label=f"a{i}/dup"))
        devs.append(Deviation(i, np.broadcast_to(np.arange(n), (H, S, n)), label=f"a{i}/id-steps"))
        per_agent.append(tuple(devs))
    return game, fx.expert, sigma, DeviationClass(tuple(per_agent))


def assert_report_matches(game, sigma, deviations):
    rep = regret_report(game, sigma, deviations)
    gains, best = ref_gains(game, sigma, deviations)
    assert [(g.agent, g.label) for g in rep.gains] == [g[:2] for g in gains]
    np.testing.assert_allclose([g.gain for g in rep.gains], [g[2] for g in gains], rtol=0, atol=TOL)
    assert (rep.best.agent, rep.best.label) == best[:2]
    for g in rep.gains:
        if "id" in g.label:
            assert g.gain == 0.0
    for i in range(game.num_agents):
        if not deviations.is_complete(i):
            dups = [g.gain for g in rep.gains if g.label in (f"a{i}/dup",)]
            last = [g.gain for g in rep.gains if g.agent == i][-3]
            assert dups == [last]       # a duplicate ties its original bitwise


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_batched_core_matches_per_deviation_reference(seed):
    game, expert, sigma, deviations = random_instance(seed)
    assert_report_matches(game, sigma, deviations)
    assert recoverability_constant(game, expert, deviations) == pytest.approx(
        ref_u(game, expert, deviations), rel=0, abs=TOL)
    for i in range(game.num_agents):
        assert value(game, sigma, i) == pytest.approx(ref_value(game, sigma, i), abs=TOL)
    np.testing.assert_allclose(values(game, sigma),
                               [ref_value(game, sigma, i) for i in range(game.num_agents)],
                               rtol=0, atol=TOL)
    for policy in (expert, sigma):
        for i in range(game.num_agents):
            br = best_response_deviation(game, policy, i)
            maps, gain, deviated, obedient = ref_best_response(game, policy, i)
            np.testing.assert_array_equal(br.deviation.table, maps)
            np.testing.assert_allclose([br.gain, br.deviated_value, br.obedient_value],
                                       [gain, deviated, obedient], rtol=0, atol=TOL)
            assert br.gain >= 0.0
            if gain == 0.0:
                assert br.gain == 0.0
    report = evaluate_pair(game, expert, sigma, deviations)
    np.testing.assert_allclose(report.values_expert, values(game, expert), rtol=0, atol=TOL)
    assert report.u == pytest.approx(ref_u(game, expert, deviations), abs=TOL)
    assert report.regret_learner.best == regret_report(game, sigma, deviations).best
    d_e, d_l = ref_states(game, expert), ref_states(game, sigma)
    rho_e = (d_e[:, :, None] * expert.table).mean(axis=0)
    rho_l = (d_l[:, :, None] * sigma.table).mean(axis=0)
    assert report.beta == pytest.approx(d_e.mean(axis=0).min(), abs=TOL)
    assert report.moment_error == pytest.approx(np.abs(rho_e - rho_l).sum(), abs=TOL)
    # the deviated densities of every explicit column at once
    devs = [d for i in range(game.num_agents) if not deviations.is_complete(i)
            for d in deviations.explicit_for(i)]
    if devs:
        tables = _push_index(game, devs)(sigma.table)
        dists = evaluate._forward(game, tables)
        for k, dev in enumerate(devs):
            np.testing.assert_array_equal(policy_tables(game, tables[k]),
                                          ref_induced(game, sigma, dev))
            np.testing.assert_allclose(dists[k], ref_states(game, ref_induced(game, sigma, dev)),
                                       rtol=0, atol=TOL)


def count_dp_calls(monkeypatch):
    """Count the calls of evaluate._backward and evaluate._forward; the
    separate best-response DP and occupancy bundle must not be called."""
    calls = {"_backward": 0, "_forward": 0}

    def counted(name):
        inner = getattr(evaluate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("the batched core must not call this")

    for name in calls:
        monkeypatch.setattr(evaluate, name, counted(name))
    monkeypatch.setattr(evaluate, "best_response_deviation", forbidden)
    monkeypatch.setattr(evaluate, "occupancy_bundle", forbidden)
    return calls


def test_evaluate_pair_runs_one_backward_sweep_per_policy(monkeypatch):
    """One backward sweep of both policies (expert and learner) and one
    forward DP of both; no separate best-response DP or occupancy bundle."""
    fx = random_mg(7, n_states=5, horizon=3, action_counts=(2, 3))
    phi = DeviationClass((COMPLETE, random_deviation_class(fx.game, per_agent=3, seed=1).per_agent[1]))
    calls = count_dp_calls(monkeypatch)
    evaluate_pair(fx.game, fx.expert, fx.learner, phi)
    assert calls == {"_backward": 1, "_forward": 1}


def test_regret_gap_and_moment_error_run_one_dp_each(monkeypatch):
    fx = random_mg(7, n_states=5, horizon=3, action_counts=(2, 3))
    phi = DeviationClass((COMPLETE, random_deviation_class(fx.game, per_agent=3, seed=1).per_agent[1]))
    calls = count_dp_calls(monkeypatch)
    regret_gap(fx.game, fx.expert, fx.learner, phi)
    assert calls == {"_backward": 1, "_forward": 0}
    moment_matching_error(fx.game, fx.expert, fx.learner)
    assert calls == {"_backward": 1, "_forward": 1}


def test_evaluate_pair_computes_time_layering_once_per_game(monkeypatch):
    """A COMPLETE agent needs to know whether the game is time-layered; the
    answer is computed once per game and every later report reuses it."""
    calls = []
    inner = games.reachable_steps
    monkeypatch.setattr(games, "reachable_steps", lambda game: calls.append(game) or inner(game))
    fx = random_mg(7, n_states=5, horizon=3, action_counts=(2, 3))
    phi = DeviationClass((COMPLETE, random_deviation_class(fx.game, per_agent=3, seed=1).per_agent[1]))
    first = evaluate_pair(fx.game, fx.expert, fx.learner, phi)
    second = evaluate_pair(fx.game, fx.expert, fx.learner, phi)
    regret_report(fx.game, fx.learner, phi)
    assert len(calls) == 1
    assert first == second
    np.testing.assert_array_equal(evaluate.reachable_steps(fx.game), inner(fx.game))


# shapes where one BLAS matmul rounds equal rows apart: (n_states, action counts, game seed)
ROUNDING_SHAPES = [(37, (1, 2), 371), (17, (3,), 1703), (33, (3,), 3303), (26, (2, 3), 2606)]


@pytest.mark.parametrize("n_states,counts,seed", ROUNDING_SHAPES)
@pytest.mark.parametrize("kind", ["complete", "mixed"])
def test_gaps_of_a_policy_against_its_copy_are_exactly_zero(n_states, counts, seed, kind):
    fx = random_mg(seed, n_states=n_states, horizon=3, action_counts=counts)
    game = fx.game
    rnd = [Deviation(i, np.random.default_rng(i).integers(0, n, size=(n_states, n)))
           for i, n in enumerate(counts)]
    explicit = [(Deviation.identity(game, i), rnd[i], Deviation(i, rnd[i].table, label="dup"))
                for i in range(len(counts))]
    per_agent = [COMPLETE] * len(counts) if kind == "complete" else \
        [COMPLETE if i == len(counts) - 1 else explicit[i] for i in range(len(counts))]
    if kind == "mixed" and len(counts) == 1:
        per_agent = explicit          # one agent: explicit deviations and duplicates
    phi = DeviationClass(tuple(per_agent))
    for sigma in (fx.expert, fx.learner):
        copy = MediatorPolicy(sigma.table.copy())
        report = evaluate_pair(game, sigma, copy, phi)
        assert (report.value_gap, report.regret_gap, report.moment_error) == (0.0, 0.0, 0.0)
        assert report.values_expert == report.values_learner
        assert report.regret_expert == report.regret_learner
        assert regret_gap(game, sigma, copy, phi) == 0.0
        assert value_gap(game, sigma, copy) == 0.0
        assert moment_matching_error(game, sigma, copy) == 0.0


@pytest.mark.parametrize("n_states,counts,seed", ROUNDING_SHAPES + [(5, (2, 3), 7)])
def test_forward_matches_reference_on_stationary_and_time_indexed_stacks(n_states, counts, seed):
    fx = random_mg(seed, n_states=n_states, horizon=4, action_counts=counts)
    game = fx.game
    rng = np.random.default_rng(seed)
    A = game.n_joint_actions
    for shape in ((5, n_states, A), (5, game.horizon, n_states, A)):
        tables = rng.dirichlet(np.ones(A), size=shape[:-1])
        tables[3] = tables[1]                            # a duplicate column
        d = evaluate._forward(game, tables)
        np.testing.assert_allclose(d, ref_forward(game, tables), rtol=0, atol=TOL)
        np.testing.assert_array_equal(d[3], d[1])
        # a column's result does not depend on the stack around it when stationary
        if len(shape) == 3:
            for k in range(len(tables)):
                np.testing.assert_array_equal(evaluate._forward(game, tables[k:k + 1])[0], d[k])


@pytest.mark.parametrize("algo", ["malice", "blades"])
def test_training_trajectories_match_reference(algo, monkeypatch):
    """On the first 10 property-suite games: bitwise the same trace, final
    loss and query count as with one TV row per loss component, and the
    same achieving deviation every round and best round as with the
    per-deviation forward DP."""

    def train(k, fx, phi):
        cfg = TrainConfig(rounds=200, seed=k)
        if algo == "malice":
            return malice_train(fx.game, fx.expert, phi, cfg)
        demos = sample_demonstrations(fx.game, fx.expert, 200, seed=10_000 + k)
        return blades_train(fx.game, ExpertOracle(fx.expert), demos, phi, cfg)

    games = property_suite_games(10)
    batched = [train(k, fx, phi) for k, fx, phi in games]
    monkeypatch.setattr(CompositeMaxLoss, "component_values", ref_component_values)
    for (k, fx, phi), new in zip(games, batched):
        ref = train(k, fx, phi)
        assert new.trace == ref.trace
        assert new.final_loss == ref.final_loss
        assert new.best_round == ref.best_round
        assert new.query_count == ref.query_count
        np.testing.assert_array_equal(new.policy.table, ref.policy.table)
    monkeypatch.setattr(learners, "_forward", ref_forward)
    for (k, fx, phi), new in zip(games, batched):
        ref = train(k, fx, phi)
        assert [r.achieving_deviation for r in new.trace] == \
            [r.achieving_deviation for r in ref.trace]
        assert new.best_round == ref.best_round
        assert new.query_count == ref.query_count
        assert new.final_loss == pytest.approx(ref.final_loss, abs=TOL)


TRAIN_VARIANTS = {
    "eg": TrainConfig(rounds=100),
    "ftl": TrainConfig(rounds=50, rule="ftl"),
}


def train_new(algo, game, expert, deviations, config, demos):
    if algo == "malice":
        return malice_train(game, expert, deviations, config)
    return blades_train(game, ExpertOracle(expert), demos, deviations, config)


@pytest.mark.parametrize("variant", TRAIN_VARIANTS)
@pytest.mark.parametrize("algo", ["malice", "blades"])
def test_training_rounds_match_the_round_before_the_rework(algo, variant, monkeypatch):
    """On the first 10 property-suite games, bitwise against ref_train: every
    iterate, the trace, final loss, best round, query count and query log."""
    runs = []

    def spy(*args, **kwargs):
        runs.append(oco_run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(learners, "oco_run", spy)
    completed = 0
    for k, fx, phi in property_suite_games(10):
        cfg = replace(TRAIN_VARIANTS[variant], seed=k)
        demos = sample_demonstrations(fx.game, fx.expert, 200, seed=10_000 + k)
        ref_run, ref = ref_train(algo, fx.game, fx.expert, phi, cfg, demos)
        new = train_new(algo, fx.game, fx.expert, phi, cfg, demos)
        assert runs[-1].tables.tobytes() == ref_run.tables.tobytes()
        assert new.trace == ref.trace
        assert np.array([r.loss for r in new.trace]).tobytes() == ref_run.losses.tobytes()
        assert new.policy.table.tobytes() == ref.policy.table.tobytes()
        assert (new.final_loss, new.best_round) == (ref.final_loss, ref.best_round)
        assert (new.query_count, new.query_log) == (ref.query_count, ref.query_log)
        completed += 1
    assert completed >= 5


def test_training_builds_its_push_once_and_runs_one_forward_dp_per_round(monkeypatch):
    """Count the builds of the push targets and the learner's forward DPs:
    one build per run, one DP per round."""
    calls = {"_pusher": 0, "_forward": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(games, "_pusher")
    counted(learners, "_forward")
    _, fx, phi = property_suite_games(1)[0]
    demos = sample_demonstrations(fx.game, fx.expert, 200, seed=1)
    for algo in ("malice", "blades"):
        calls.update(_pusher=0, _forward=0)
        train_new(algo, fx.game, fx.expert, phi, TrainConfig(rounds=30), demos)
        assert calls == {"_pusher": 1, "_forward": 30}


@pytest.mark.parametrize("variant", ["exact-br", "init", "init-expert"])
def test_j_irl_matches_reference_loop(variant):
    """j_irl against the loop that rebuilt every occupancy each round,
    bitwise, on the first 10 property-suite games and coverage_lb_game."""
    cases = [(fx.game, fx.expert) for _, fx, _ in property_suite_games(10)]
    cov = coverage_lb_game()
    cases.append((cov.game, cov.expert))
    for c, (game, expert) in enumerate(cases):
        init = None
        if variant == "init":
            rng = np.random.default_rng(c)
            init = MediatorPolicy(rng.dirichlet(np.ones(game.n_joint_actions), size=game.n_states))
        elif variant == "init-expert":
            init = expert
        res = j_irl(game, expert, rounds=100, init=init)
        errors, best_round, rounds_run, table = ref_j_irl(game, expert, 100, init=init)
        assert res.errors == errors
        assert (res.best_round, res.rounds_run) == (best_round, rounds_run)
        np.testing.assert_array_equal(res.policy.table, table)
        if variant == "init-expert":
            assert rounds_run == 1      # the early stop ran


def test_j_irl_block_edges_match_reference_loop():
    """j_irl scores candidates in blocks of 1, 2, 4, ... 64 rounds; every
    block edge and an early stop inside a block (rounds 6 and 70 or 71 on
    this game) match the reference loop bitwise."""
    _, fx, _ = property_suite_games(5)[4]
    full = ref_j_irl(fx.game, fx.expert, 200)[0]
    cases = [(r, 1e-9) for r in (1, 2, 3, 4, 63, 64, 65, 128, 129, 200)]
    cases += [(200, full[5]), (200, full[70])]
    for rounds, tol in cases:
        res = j_irl(fx.game, fx.expert, rounds=rounds, tol=tol)
        errors, best_round, rounds_run, table = ref_j_irl(fx.game, fx.expert, rounds, tol=tol)
        assert res.errors == errors
        assert (res.best_round, res.rounds_run) == (best_round, rounds_run)
        np.testing.assert_array_equal(res.policy.table, table)
        if tol > 1e-9:      # the stop is not the last round of a block (1, 3, 7, ... 127)
            assert rounds_run < 200 and (rounds_run + 1) & rounds_run


@pytest.mark.parametrize("with_init", [False, True])
def test_j_irl_matches_reference_loop_at_the_desk_cap(with_init):
    """200 states, 6x6 joint actions, H 10: the play's forward DP through
    the gathered rows T[s, a_h(s), :] rounds as the one-hot kernel DP did,
    so a few rounds match the reference loop bitwise."""
    fx = random_mg(13, n_states=200, horizon=10, action_counts=(6, 6))
    init = None
    if with_init:
        rng = np.random.default_rng(13)
        init = MediatorPolicy(rng.dirichlet(np.ones(fx.game.n_joint_actions), size=fx.game.n_states))
    res = j_irl(fx.game, fx.expert, rounds=6, init=init)
    errors, best_round, rounds_run, table = ref_j_irl(fx.game, fx.expert, 6, init=init)
    assert res.errors == errors
    assert (res.best_round, res.rounds_run) == (best_round, rounds_run)
    assert rounds_run == 6
    np.testing.assert_array_equal(res.policy.table, table)


def test_j_irl_memory_stays_bounded_at_the_desk_cap():
    """200 states, 6x6 joint actions, H 10: a block's scratch is capped, so
    70 rounds peak under 8 MB of numpy allocations (the game's transition
    tensor alone is 11.5 MB and is built before tracing starts)."""
    import tracemalloc

    fx = random_mg(11, n_states=200, horizon=10, action_counts=(6, 6))
    tracemalloc.start()
    try:
        res = j_irl(fx.game, fx.expert, rounds=70)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.rounds_run == 70
    assert peak < 8e6


@pytest.mark.parametrize("n_states,counts,copies", [(17, (3,), 6), (33, (3,), 13), (26, (2, 3), 6)])
def test_equal_columns_share_one_dp_column(n_states, counts, copies):
    # shapes where one BLAS matmul rounds equal rows differently; identity
    # copies must still gain exactly 0.0 and equal deviations tie exactly
    fx = random_mg(n_states * 100 + int(np.prod(counts)), n_states=n_states, horizon=3,
                   action_counts=counts)
    game = fx.game
    rnd = Deviation(0, np.random.default_rng(1).integers(0, counts[0], size=(n_states, counts[0])))
    per_agent = [tuple(Deviation.identity(game, 0, label=f"id{k}") for k in range(copies))
                 + tuple(Deviation(0, rnd.table, label=f"rnd{k}") for k in range(copies))]
    per_agent += [(Deviation.identity(game, i),) for i in range(1, len(counts))]
    rep = regret_report(game, fx.learner, DeviationClass(tuple(per_agent)))
    gains = [g.gain for g in rep.gains if g.agent == 0]
    assert gains[:copies] == [0.0] * copies
    assert len(set(gains[copies:])) == 1
    assert rep.best.label == ("id0" if gains[-1] <= 0.0 else "rnd0")


def test_obeying_best_response_shares_one_dp_row():
    # a shape where one BLAS matmul rounds equal W and V rows apart; an agent
    # with one action can only obey, so its gain must be exactly 0.0
    fx = random_mg(371, n_states=37, horizon=3, action_counts=(1, 2))
    rnd = Deviation(1, np.random.default_rng(1).integers(0, 2, size=(37, 2)))
    phi = DeviationClass((COMPLETE, (Deviation.identity(fx.game, 1), rnd)))
    assert regret_report(fx.game, fx.learner, phi).gains[0].gain == 0.0


def ref_enumerate(game, sigma, agent):
    """Every stationary map from itertools.product in lexicographic order,
    pushed as one (n^(S n), S, A) stack: (winning map, gain, J_best, J_id)."""
    S, n = game.n_states, game.action_counts[agent]
    maps = np.array(list(itertools.product(range(n), repeat=S * n))).reshape(-1, S, n)
    J = evaluate._values(game, games._push(_shift(game, agent, maps), sigma.table),
                         np.full(len(maps), agent))
    k_id = next(k for k, phi in enumerate(maps) if (phi == np.arange(n)).all())
    k_best = int(np.argmax(J))
    return maps[k_best], J[k_best] - J[k_id], J[k_best], J[k_id]


def _one_hot(fx, seed):
    """A deterministic sigma, so pushed tables repeat across maps."""
    rng = np.random.default_rng(seed)
    table = np.zeros((fx.game.n_states, fx.game.n_joint_actions))
    table[np.arange(fx.game.n_states), rng.integers(0, fx.game.n_joint_actions, fx.game.n_states)] = 1
    return MediatorPolicy(table)


@pytest.mark.parametrize("n_states,horizon,counts,layered", [
    (6, 2, (2, 2), True), (4, 3, (2, 2), False), (2, 2, (3,), True), (3, 3, (3,), False),
    (3, 2, (2, 1, 2), False), (4, 2, (1, 2, 2), True), (2, 3, (3, 2), False),
])
@pytest.mark.parametrize("deterministic", [False, True])
def test_stationary_enumeration_matches_whole_stack_reference(n_states, horizon, counts, layered,
                                                              deterministic):
    fx = random_mg(n_states * 100 + horizon * 10 + len(counts), n_states=n_states, horizon=horizon,
                   action_counts=counts, layered=layered)
    sigma = _one_hot(fx, n_states) if deterministic else fx.expert
    for i in range(len(counts)):
        br = evaluate.enumerate_stationary_best_response(fx.game, sigma, i)
        table, gain, best, obey = ref_enumerate(fx.game, sigma, i)
        np.testing.assert_array_equal(br.deviation.table, table)
        assert br.deviation.label == f"bf(agent={i})"
        assert [repr(x) for x in (br.gain, br.deviated_value, br.obedient_value)] == \
            [repr(float(x)) for x in (gain, best, obey)]


def test_stationary_enumeration_of_a_zero_reward_game_picks_the_first_map():
    fx = random_mg(7, n_states=3, horizon=2, action_counts=(2, 2))
    game = games.with_common_reward(fx.game, np.zeros((3, 4)))
    for i in range(2):
        br = evaluate.enumerate_stationary_best_response(game, fx.expert, i)
        table, gain, _, _ = ref_enumerate(game, fx.expert, i)
        np.testing.assert_array_equal(br.deviation.table, np.zeros((3, 2), dtype=int))
        np.testing.assert_array_equal(br.deviation.table, table)
        assert br.gain == gain == 0.0


def test_stationary_enumeration_of_a_one_action_agent_on_many_states():
    # one map, the identity, however many states: no array with one axis per state
    fx = random_mg(1, n_states=70, horizon=2, action_counts=(1, 2))
    br = evaluate.enumerate_stationary_best_response(fx.game, fx.expert, 0)
    table, gain, best, obey = ref_enumerate(fx.game, fx.expert, 0)
    np.testing.assert_array_equal(br.deviation.table, table)
    assert (br.gain, br.deviated_value, br.obedient_value) == (gain, best, obey)
    assert br.gain == 0.0


def test_stationary_enumeration_cap_error_is_unchanged():
    fx = random_mg(5, n_states=3, horizon=2, action_counts=(2, 3))
    with pytest.raises(ValueError, match=r"^64 stationary deviations exceeds cap 63$"):
        evaluate.enumerate_stationary_best_response(fx.game, fx.expert, 0, cap=63)
    big = random_mg(5, n_states=4, horizon=2, action_counts=(3, 3))
    with pytest.raises(ValueError, match=r"^531441 stationary deviations exceeds cap 65536$"):
        evaluate.enumerate_stationary_best_response(big.game, big.expert, 1)
    assert evaluate.enumerate_stationary_best_response(fx.game, fx.expert, 0, cap=64).gain >= 0.0


def ref_distinct(*stacks):
    """_distinct as a dict loop over every column."""
    K = len(stacks[0])
    if K <= 1:
        return slice(None), slice(None)
    rows = np.ascontiguousarray(np.column_stack([np.reshape(x, (K, -1)) for x in stacks]))
    seen: dict = {}
    first, inverse = [], []
    for k, key in enumerate(rows.view(np.dtype((np.void, rows[0].nbytes))).ravel().tolist()):
        inverse.append(seen.setdefault(key, len(seen)))
        if len(seen) > len(first):
            first.append(k)
    if len(first) == K:
        return slice(None), slice(None)
    return np.array(first), np.array(inverse)


@pytest.mark.parametrize("K,distinct", [(1, 1), (2, 1), (2, 2), (22, 22), (22, 7), (300, 300),
                                        (300, 40), (300, 299), (4096, 512)])
@pytest.mark.parametrize("steps", [False, True])
def test_distinct_matches_dict_loop_reference(K, distinct, steps):
    rng = np.random.default_rng(K * 1000 + distinct)
    pool = rng.integers(-1, 2, size=(distinct, *(3,) * steps, 4, 3)).astype(float)
    pool[0].flat[0] = -0.0           # bitwise distinct from 0.0
    agents_pool = rng.integers(0, 2, size=distinct)
    pick = np.concatenate([np.arange(distinct), rng.integers(0, distinct, K - distinct)])
    rng.shuffle(pick)
    tables, agents = pool[pick], agents_pool[pick]
    for stacks in ((tables,), (tables, agents)):
        got, want = evaluate._distinct(*stacks), ref_distinct(*stacks)
        for g, w in zip(got, want):
            assert type(g) is type(w)
            if isinstance(w, np.ndarray):
                np.testing.assert_array_equal(g, w)
                assert g.dtype == w.dtype


def test_stationary_enumeration_memory_stays_bounded_at_the_cap():
    """S = 8, n = 2, H = 3, 2^16 maps: the stack is copied from the
    per-state pushed rows, so the peak stays under 64 MB of allocations
    (59 MB measured; pushing the whole stack peaked at 75.5 MB)."""
    import tracemalloc

    fx = random_mg(3, n_states=8, horizon=3, action_counts=(2, 2))
    tracemalloc.start()
    try:
        br = evaluate.enumerate_stationary_best_response(fx.game, fx.expert, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert br.gain >= 0.0
    assert peak < 64e6


def test_exact_u_memory_stays_bounded_at_the_cap():
    """S = 8, n = 2, H = 3, both agents COMPLETE, 2^16 maps each: each
    agent's u comes from the stack its enumeration sweeps anyway, one agent
    after the other, so the peak stays under 90 MB of allocations (72 MB
    measured; one Deviation per map and one sweep of all 2^17 peaked at
    260 MB)."""
    import tracemalloc

    fx = random_mg(3, n_states=8, horizon=3, action_counts=(2, 2))
    tracemalloc.start()
    try:
        u = recoverability_constant(fx.game, fx.expert, DeviationClass.complete(2), exact_enumeration=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u > 0.0
    assert peak < 90e6
