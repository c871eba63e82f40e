"""The four learners: j_bc, j_irl, malice_train, blades_train.

j_bc and j_irl treat the mediator as a single agent over the joint action
space and drive the value gap down.  malice_train and blades_train instead
minimize deviation-aware losses so that the learned mediator also matches
the expert's robustness to strategic agents: malice_train reweights the
imitation loss by exactly computed deviated state densities (it requires
the expert to cover every state), while blades_train rolls the current
learner out under each deviation and queries the expert for fresh
recommendations on the states it lands in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .evaluate import (
    _forward,
    occupancy_bundle,
    regret,
)
from .games import (
    CoverageError,
    DemonstrationSet,
    DeviationClass,
    MarkovGame,
    MediatorPolicy,
    _policy_array,
    _push_index,
)
from .losses import (
    SUPPORT_TOL,
    TrainConfig,
    _malice_builder,
    blades_components,
    oco_run,
)


class ExpertOracle:
    """Queryable wrapper around the expert policy.

    Learners that hold an oracle never see the underlying table; every
    access goes through query(), which increments a counter, appends to
    the query log and returns the exact recommendation distribution.
    """

    def __init__(self, expert: MediatorPolicy):
        self._table = expert.table
        self.query_count = 0
        self.query_log: list[dict] = []

    @property
    def n_joint_actions(self) -> int:
        return self._table.shape[1]

    def query(self, state: int, round_index: int | None = None) -> np.ndarray:
        self.query_count += 1
        self.query_log.append({"round": round_index, "state": int(state), "mode": "full-row"})
        return self._table[state].copy()


@dataclass(frozen=True)
class TraceRow:
    round: int
    loss: float
    achieving_agent: int
    achieving_deviation: str
    step_size: float


@dataclass(frozen=True)
class TrainResult:
    policy: MediatorPolicy
    trace: tuple[TraceRow, ...]
    final_loss: float          # self-consistent loss of the returned iterate
    best_round: int
    query_count: int = 0
    query_log: tuple = ()


# ---------------------------------------------------------------------------
# Joint behavioral cloning
# ---------------------------------------------------------------------------


def j_bc(game: MarkovGame, demos: DemonstrationSet | None = None,
         expert: MediatorPolicy | None = None, fill_rule: str = "uniform",
         deviations: DeviationClass | None = None) -> MediatorPolicy:
    """Fit the conditional joint-action distribution on the expert's states.

    With ``expert`` given, rows are copied exactly wherever the expert's
    average state density is positive (the infinite-sample limit); with
    ``demos``, rows are empirical conditionals on visited states.  States
    without data are filled per ``fill_rule``:

    * 'uniform' - uniform over joint actions (default)
    * 'copy-expert' - diagnostic: copy the expert row (needs ``expert``)
    * 'adversarial-worst-case' - greedy over one-hot rows, one unvisited
      state at a time, each keeping the regret-maximizing row given those
      before it; not the worst learner consistent with the data, since an
      exhaustive one-hot search can find more and the worst need not be one-hot
    """
    S, A = game.n_states, game.n_joint_actions
    if expert is not None:
        d = occupancy_bundle(game, expert).avg_state
        covered = d > SUPPORT_TOL
        fitted = expert.table.copy()
    elif demos is not None:
        if len(demos) == 0:
            raise ValueError("demonstration set is empty")
        counts = demos.state_action_counts(game)
        totals = counts.sum(axis=1)
        covered = totals > 0
        fitted = np.full((S, A), 1.0 / A)
        fitted[covered] = counts[covered] / totals[covered, None]
    else:
        raise ValueError("need demonstrations or an expert policy")

    table = np.full((S, A), 1.0 / A)
    table[covered] = fitted[covered]
    missing = np.nonzero(~covered)[0]
    if fill_rule == "uniform" or missing.size == 0:
        pass
    elif fill_rule == "copy-expert":
        if expert is None:
            raise ValueError("copy-expert fill needs the expert policy")
        table[missing] = expert.table[missing]
    elif fill_rule == "adversarial-worst-case":
        devs = deviations if deviations is not None else DeviationClass.complete(game.num_agents)
        for s in missing:
            best_row, best_reg = None, -np.inf
            for a in range(A):
                table[s] = 0.0
                table[s, a] = 1.0
                reg = regret(game, MediatorPolicy(table), devs)
                if reg > best_reg:
                    best_reg, best_row = reg, a
            table[s] = 0.0
            table[s, best_row] = 1.0
    else:
        raise ValueError(f"unknown fill rule {fill_rule!r}")
    return MediatorPolicy(table)


# ---------------------------------------------------------------------------
# Joint inverse reinforcement learning
# ---------------------------------------------------------------------------


def _best_response(game: MarkovGame, reward_sa: np.ndarray) -> np.ndarray:
    """Per-step greedy optimizer of a shared reward on the joint MDP: the
    (H, S) argmax actions.  v_H = 0, so the last step's Q is the reward."""
    H, S = game.horizon, game.n_states
    best = np.empty((H, S), dtype=np.int64)
    q, states = reward_sa, np.arange(S)
    for h in reversed(range(H)):
        if h < H - 1:   # ties follow the einsum's rounding of T v; a gemv rounds otherwise
            q = reward_sa + np.einsum("sax,x->sa", game.transition, v)
        best[h] = q.argmax(axis=1)
        v = q[states, best[h]]
    return best


def _stationarize(mass: np.ndarray, fallback_row: np.ndarray) -> np.ndarray:
    """Stationary policies (K, S, A) whose rows follow the (K, S, A) flows
    summed over steps."""
    totals = mass.sum(axis=2)
    table = np.broadcast_to(fallback_row, mass.shape).copy()
    pos = totals > SUPPORT_TOL
    table[pos] = mass[pos] / totals[pos, None]
    return table


# A block of K candidates is scored at once; its scratch, K S^2 kernel floats,
# K H S state probabilities and a few (K, S, A) tables, stays within 2 MiB.
_BLOCK_FLOATS = 1 << 18
_MAX_BLOCK = 64


@dataclass(frozen=True)
class JIRLResult:
    policy: MediatorPolicy
    errors: tuple[float, ...]      # exact normalized moment error per round
    best_round: int
    final_error: float
    rounds_run: int


def j_irl(game: MarkovGame, expert: MediatorPolicy, rounds: int,
          init: MediatorPolicy | None = None, tol: float = 1e-9) -> JIRLResult:
    """Adversarial moment matching between expert and learner occupancies.

    Round n: the reward player picks the worst-case reward for the uniform
    mixture of iterates so far, f = sign(rho_expert - rho_mixture); the
    policy player best-responds exactly on the joint-action MDP with a
    deterministic per-step policy, kept as its (H, S) argmax actions, so
    the play's forward DP multiplies d_h by the chosen rows T[s, a_h(s), :]
    and its flows go into the mixture by one scatter-add.  The mixture's
    per-step flows are distilled into a stationary candidate each round,
    scored by its exact occupancy distance to the expert, and the first
    best candidate wins; the run stops once it is within ``tol``.

    The recurrence never reads a candidate, so candidates are scored in
    blocks of 1, 2, 4, ... up to 64 rounds (fewer on large games) with one
    forward DP per block; rounds a block ran past the stop are dropped.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    H, S, A = game.horizon, game.n_states, game.n_joint_actions
    rho_expert = occupancy_bundle(game, expert).avg_joint
    current = (init if init is not None else MediatorPolicy.uniform(game))
    mix_sum = occupancy_bundle(game, current).per_step_joint.copy()
    T2 = game.transition.reshape(S * A, S)         # row s A + a is T[s, a, :]
    first = np.arange(S) * A
    flows = mix_sum.reshape(-1)                     # a view, (h, s, a) at h S A + s A + a
    step_at = np.arange(H)[:, None] * (S * A)
    uniform_row = np.full(A, 1.0 / A)
    cap = max(1, min(_MAX_BLOCK, _BLOCK_FLOATS // (S * S + H * S + 4 * S * A)))
    masses = np.empty((cap, S, A))     # each round's mixture flows summed over steps
    play = np.empty((H, 1, S))         # the new play's d_h, each step one (1, S) @ (S, S)
    play[0, 0] = game.initial_dist
    errors: list[float] = []
    best_err, best_table, best_round = np.inf, None, 0
    n, size = 0, 1
    while n < rounds and best_err > tol:
        block = min(size, cap, rounds - n)
        for k in range(block):
            n += 1
            masses[k] = (mix_sum / n).sum(axis=0)
            residual = rho_expert - masses[k] / H       # the mixture's mean over steps
            best = _best_response(game, np.sign(residual))
            rows = first + best                         # T2's rows T[s, a_h(s), :]
            for h in range(H - 1):
                play[h + 1] = play[h] @ T2.take(rows[h], axis=0)
            flows[step_at + rows] += play[:, 0]
        cands = _stationarize(masses[:block], uniform_row)
        d = _forward(game, cands)[..., None]
        rho = d[:, 0] * cands           # summed over steps in order, as mean(axis=1) sums
        for h in range(1, H):
            rho += d[:, h] * cands
        errs = np.abs(rho_expert - rho / H).sum(axis=(1, 2))
        for cand, err in zip(cands, errs.tolist()):
            errors.append(err)
            if err < best_err:
                best_err, best_table, best_round = err, cand, len(errors)
            if best_err <= tol:
                break
        size *= 2
    return JIRLResult(policy=MediatorPolicy(best_table), errors=tuple(errors),
                      best_round=best_round, final_error=best_err, rounds_run=len(errors))


# ---------------------------------------------------------------------------
# Deviation-aware learners
# ---------------------------------------------------------------------------


def _train(game: MarkovGame, deviations: DeviationClass, config: TrainConfig,
           init: MediatorPolicy | None, loss_for) -> TrainResult:
    """The no-regret reduction shared by malice_train and blades_train.

    The push through every listed deviation and ``build = loss_for(labels)``
    are made once per run.  Each round computes the state density of the
    current iterate under every deviation (exactly: one push and one forward
    DP for all of them) and takes one OCO step on ``build(dists,
    round_index)``.
    """
    if not deviations.all_explicit():
        raise ValueError("training needs an explicit, finite deviation class")
    pairs = [(i, dev.label or f"a{i}/dev{k}", dev) for i in range(deviations.num_agents)
             for k, dev in enumerate(deviations.explicit_for(i))]
    build = loss_for([lab for _, lab, _ in pairs])
    push = _push_index(game, [dev for _, _, dev in pairs])

    def densities(sigma: np.ndarray) -> np.ndarray:
        # mean(axis=1), bit for bit, without its wrapper
        return np.add.reduce(_forward(game, push(sigma)), axis=1) / game.horizon

    run = oco_run(lambda n, sigma: build(densities(sigma), n),
                  (game.n_states, game.n_joint_actions), config,
                  init=None if init is None else init.table)
    best, final = run.best_round, float(run.losses[run.best_round])
    trace = tuple(
        TraceRow(n + 1, loss, pairs[k][0], pairs[k][1], step) for n, (loss, k, step) in
        enumerate(zip(run.losses.tolist(), run.achieving.tolist(), run.step_sizes.tolist()))
    )
    return TrainResult(policy=MediatorPolicy(run.tables[best]), trace=trace,
                       final_loss=final, best_round=best + 1)


def malice_train(game: MarkovGame, expert: MediatorPolicy, deviations: DeviationClass,
                 config: TrainConfig = TrainConfig(),
                 init: MediatorPolicy | None = None) -> TrainResult:
    """Minimize the importance-weighted max-over-deviations imitation loss.

    Needs positive expert coverage of every state (the importance weights
    d_deviated / d_expert are undefined otherwise).  Each round recomputes
    the deviated state densities of the current iterate, takes one OCO step
    on the resulting convex loss, and the iterate with the smallest
    self-consistent loss (its own round's loss at itself) is returned.
    """
    d_expert = occupancy_bundle(game, expert).avg_state
    beta = d_expert.min()         # coverage_constant without a second forward DP
    if beta <= 0.0:
        raise CoverageError(
            "expert leaves some state unvisited (coverage constant is 0); "
            "importance weights are undefined"
        )
    return _train(game, deviations, config, init,
                  lambda labels: _malice_builder(expert, d_expert, labels))


def blades_train(game: MarkovGame, oracle: ExpertOracle, demos: DemonstrationSet,
                 deviations: DeviationClass, config: TrainConfig = TrainConfig(),
                 init: MediatorPolicy | None = None) -> TrainResult:
    """Minimize the on-deviated-distribution imitation loss with a queryable
    expert; no coverage assumption is needed.

    Starts from the behavioral clone of the demonstrations (or an explicit
    ``init``).  Each round computes the state density of the current
    iterate under every listed deviation, queries the oracle once per
    (round, state) with positive mass, and takes one OCO step.  Never reads
    the expert policy directly, but checks its shape before the first query.
    """
    _policy_array(game, oracle._table)
    if init is None:
        if demos is None or len(demos) == 0:
            raise ValueError("demonstrations are required for initialization")
        init = j_bc(game, demos=demos, fill_rule="uniform")
    res = _train(game, deviations, config, init,
                 lambda labels: lambda dists, n: blades_components(oracle, dists, round_index=n))
    return replace(res, query_count=oracle.query_count, query_log=tuple(oracle.query_log))
