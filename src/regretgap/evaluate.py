"""Exact dynamic-programming evaluation of mediator policies.

Computes, in closed form on tabular games: per-step state distributions
d_h and occupancy measures rho_h, agent values J_i, Q/V/advantage tensors,
the best single-agent response to a mediator's recommendations, deviation
regret, value and regret gaps, equilibrium certification, and the two
structural constants used by the imitation-learning bounds (coverage beta
and recoverability u).

Conventions
-----------
* A trajectory has exactly H reward-bearing steps; step 1 starts at
  s ~ initial_dist.
* J_i(pi) = E[sum_{h=1..H} r_i(s_h, a_h)], which equals
  H * <rho_avg, r_i> for the averaged occupancy measure.
* Deviated play by agent i against mediator sigma means: i observes the
  state and its own recommended action, everyone else obeys.
* Maxima over agents/deviations break ties toward the lowest index, and
  the argmax of a best response prefers obedience at exact ties, so all
  results are deterministic and independent of evaluation order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .games import (
    Deviation,
    DeviationClass,
    MarkovGame,
    MediatorPolicy,
    _pushforward,
    induced_tables,
    policy_tables,
)


# ---------------------------------------------------------------------------
# Occupancies and values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OccupancyBundle:
    """Per-step and averaged state / state-joint-action distributions.

    per_step_state[h] is d_{h+1} (0-based step h), per_step_joint[h] is
    rho_{h+1}; avg_state and avg_joint are their means over the horizon.
    rho_h(s, a) = d_h(s) * pi_h(a|s) entrywise.
    """

    per_step_state: np.ndarray
    per_step_joint: np.ndarray
    avg_state: np.ndarray
    avg_joint: np.ndarray


def occupancy_bundle(game: MarkovGame, policy) -> OccupancyBundle:
    """Forward DP: d_1 = rho0, d_{h+1}(s') = sum_{s,a} d_h(s) pi_h(a|s) T(s'|s,a)."""
    tables = policy_tables(game, policy)
    H, S, A = tables.shape
    d = np.empty((H, S))
    rho = np.empty((H, S, A))
    d[0] = game.initial_dist
    for h in range(H):
        rho[h] = d[h][:, None] * tables[h]
        if h + 1 < H:
            d[h + 1] = np.einsum("sa,sax->x", rho[h], game.transition)
    return OccupancyBundle(
        per_step_state=d,
        per_step_joint=rho,
        avg_state=d.mean(axis=0),
        avg_joint=rho.mean(axis=0),
    )


def state_density(game: MarkovGame, policy, mode: str = "exact",
                  n_samples: int = 10_000, rng=None) -> np.ndarray:
    """Average state distribution d of a policy, exact or Monte-Carlo.

    The Monte-Carlo mode exists to study sampling effects; the exact mode is
    the default everywhere.
    """
    if mode == "exact":
        return occupancy_bundle(game, policy).avg_state
    if mode == "mc":
        from .games import _sample_batch

        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        states, _ = _sample_batch(game, policy_tables(game, policy), n_samples, rng)
        counts = np.bincount(states.ravel(), minlength=game.n_states)
        return counts / counts.sum()
    raise ValueError(f"unknown density mode {mode!r}")


def value_functions(game: MarkovGame, policy, agent: int):
    """Backward DP for one agent: returns (Q, V) with shapes (H,S,A), (H,S).

    Q_h(s,a) = r_i(s,a) + sum_{s'} T(s'|s,a) V_{h+1}(s'); terminal V is zero.
    """
    tables = policy_tables(game, policy)
    H, S, A = tables.shape
    r = game.rewards[agent]
    Q = np.empty((H, S, A))
    V = np.empty((H, S))
    v_next = np.zeros(S)
    for h in reversed(range(H)):
        Q[h] = r + np.einsum("sax,x->sa", game.transition, v_next)
        V[h] = (tables[h] * Q[h]).sum(axis=1)
        v_next = V[h]
    return Q, V

def advantage_tensor(game: MarkovGame, policy, agent: int):
    """(Q, V, A) tensors with A_h(s,a) = Q_h(s,a) - V_h(s)."""
    Q, V = value_functions(game, policy, agent)
    return Q, V, Q - V[:, :, None]


def value(game: MarkovGame, policy, agent: int) -> float:
    """J_i(pi): expected cumulative reward of one agent."""
    _, V = value_functions(game, policy, agent)
    return float(game.initial_dist @ V[0])


def values(game: MarkovGame, policy) -> np.ndarray:
    """J_i(pi) for every agent, as an (m,) array."""
    return np.array([value(game, policy, i) for i in range(game.num_agents)])


# ---------------------------------------------------------------------------
# Best response to recommendations
# ---------------------------------------------------------------------------


def _agent_axis_view(game: MarkovGame, arr_sa: np.ndarray, agent: int) -> np.ndarray:
    """Reshape (S, A) so the agent's own action is axis 1: (S, n_i, A_rest)."""
    S = arr_sa.shape[0]
    shaped = arr_sa.reshape(S, *game.action_counts)
    moved = np.moveaxis(shaped, 1 + agent, 1)
    n = game.action_counts[agent]
    return np.ascontiguousarray(moved).reshape(S, n, -1)


@dataclass(frozen=True)
class BestResponse:
    deviation: Deviation           # time-indexed argmax map per (h, s, recommended)
    gain: float                    # J_i(deviated) - J_i(obedient), never negative
    deviated_value: float
    obedient_value: float


def best_response_deviation(game: MarkovGame, sigma: MediatorPolicy, agent: int) -> BestResponse:
    """Optimal recommendation filter for one agent, by backward induction.

    At step h in state s the agent sees its recommended action j, holds the
    conditional belief over the others' recommendations given j, and plays
    the b maximizing expected reward-to-go.  The recursion tracks the
    obedient value alongside the deviated one with identical arithmetic, so
    the reported gain is exactly 0.0 when obeying is optimal and never
    negative in floating point.
    """
    H, S, A = game.horizon, game.n_states, game.n_joint_actions
    n = game.action_counts[agent]
    sig_r = _agent_axis_view(game, sigma.table, agent)    # (S, n, R)
    r = game.rewards[agent]
    own = np.arange(n)
    W = np.zeros(S)   # value under optimal filtering from h on
    V = np.zeros(S)   # obedient value, same recursion shape
    maps = np.empty((H, S, n), dtype=np.int64)
    for h in reversed(range(H)):
        G_dev = r + np.einsum("sax,x->sa", game.transition, W)
        G_obey = r + np.einsum("sax,x->sa", game.transition, V)
        # U[s, j, b]: mass of recommendation j times expected payoff of playing b
        U_dev = np.einsum("sjx,sbx->sjb", sig_r, _agent_axis_view(game, G_dev, agent))
        U_obey = np.einsum("sjx,sbx->sjb", sig_r, _agent_axis_view(game, G_obey, agent))
        best = U_dev.max(axis=2)                          # (S, n)
        diag = U_dev[:, own, own]
        first_argmax = np.argmax(U_dev == best[:, :, None], axis=2)
        maps[h] = np.where(diag == best, own[None, :], first_argmax)
        W = best.sum(axis=1)
        V = U_obey[:, own, own].sum(axis=1)
    deviated = float(game.initial_dist @ W)
    obedient = float(game.initial_dist @ V)
    dev = Deviation(agent, maps, label=f"br(agent={agent})")
    return BestResponse(deviation=dev, gain=deviated - obedient,
                        deviated_value=deviated, obedient_value=obedient)


def _stationary_maps(game: MarkovGame, agent: int, cap: int) -> np.ndarray:
    """Every stationary map (state, rec) -> action of one agent, as a
    (n^(S*n), S, n) stack in lexicographic order; refuses above ``cap``."""
    S, n = game.n_states, game.action_counts[agent]
    total = n ** (S * n)
    if total > cap:
        raise ValueError(f"{total} stationary deviations exceeds cap {cap}")
    digits = np.array(list(itertools.product(range(n), repeat=S * n)), dtype=np.int64)
    return digits.reshape(total, S, n)


def enumerate_stationary_best_response(game: MarkovGame, sigma: MediatorPolicy, agent: int,
                                       cap: int = 1 << 16) -> BestResponse:
    """Brute-force max over all stationary maps (state, rec) -> action.

    Enumerates all n^(S*n) stationary deviations with a batched forward
    evaluation; refuses above ``cap`` candidates.  On games where every
    state is reachable at exactly one step this matches the DP; elsewhere
    it can only be lower.
    """
    H, S = game.horizon, game.n_states
    n = game.action_counts[agent]
    tables = _stationary_maps(game, agent, cap)           # candidate maps
    total = tables.shape[0]
    dev_tables = _pushforward(game, sigma.table, agent, tables)
    # batched forward value under the common reward r_agent
    r = game.rewards[agent]
    d = np.broadcast_to(game.initial_dist, (total, S)).copy()
    J = np.zeros(total)
    for h in range(H):
        rho = d[:, :, None] * dev_tables
        J += np.einsum("ksa,sa->k", rho, r)
        if h + 1 < H:
            d = np.einsum("ksa,sax->kx", rho, game.transition)
    identity_code = np.arange(n)
    k_id = int(np.nonzero((tables == identity_code[None, None, :]).all(axis=(1, 2)))[0][0])
    k_best = int(np.argmax(J))
    best_dev = Deviation(agent, tables[k_best], label=f"bf(agent={agent})")
    return BestResponse(deviation=best_dev, gain=float(J[k_best] - J[k_id]),
                        deviated_value=float(J[k_best]), obedient_value=float(J[k_id]))


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def reachable_steps(game: MarkovGame) -> np.ndarray:
    """(H, S) bool: can state s be reached at step h under some play."""
    H, S = game.horizon, game.n_states
    reach = np.zeros((H, S), dtype=bool)
    reach[0] = game.initial_dist > 0
    step = (game.transition > 0).any(axis=1)   # (S, S') edge exists under some action
    for h in range(1, H):
        reach[h] = reach[h - 1] @ step
    return reach


def is_time_layered(game: MarkovGame) -> bool:
    """True when every state is reachable at no more than one step.

    On such games a stationary deviation loses nothing against a per-step
    one, so the best-response DP is exact over stationary classes too.
    """
    return bool((reachable_steps(game).sum(axis=0) <= 1).all())


# ---------------------------------------------------------------------------
# Regret and gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationGain:
    agent: int
    label: str
    gain: float


@dataclass(frozen=True)
class RegretReport:
    """Max deviation gain plus the full per-deviation table.

    ``exact`` is False only when a COMPLETE class was resolved by the
    per-step best-response DP on a game that is not time-layered; the
    reported regret is then an upper bound on the stationary-class value.
    """

    regret: float
    gains: tuple[DeviationGain, ...]
    best: DeviationGain
    exact: bool


def regret_report(game: MarkovGame, sigma: MediatorPolicy, deviations: DeviationClass,
                  complete_mode: str = "dp") -> RegretReport:
    """Deviation gains for every (agent, deviation) and their maximum.

    COMPLETE classes are resolved per ``complete_mode``: 'dp' (default) runs
    the per-step best-response recursion, which is exact on time-layered
    games and an upper bound on the stationary-class value elsewhere;
    'enumerate' brute-forces every stationary map (tiny games only) and is
    exact for the stationary semantics everywhere.
    """
    if deviations.num_agents != game.num_agents:
        raise ValueError("deviation class does not match the game's agent count")
    if complete_mode not in ("dp", "enumerate"):
        raise ValueError(f"unknown complete_mode {complete_mode!r}")
    gains: list[DeviationGain] = []
    needs_dp = False
    base = values(game, sigma)
    for i in range(game.num_agents):
        if deviations.is_complete(i):
            if complete_mode == "dp":
                br = best_response_deviation(game, sigma, i)
                needs_dp = True
            else:
                br = enumerate_stationary_best_response(game, sigma, i)
            gains.append(DeviationGain(i, br.deviation.label, br.gain))
        else:
            for k, dev in enumerate(deviations.explicit_for(i)):
                tabs = induced_tables(game, sigma, dev)
                gain = value(game, tabs, i) - base[i]
                gains.append(DeviationGain(i, dev.label or f"dev{k}", gain))
    best = gains[0]
    for g in gains[1:]:
        if g.gain > best.gain:
            best = g
    exact = (not needs_dp) or is_time_layered(game)
    return RegretReport(regret=best.gain, gains=tuple(gains), best=best, exact=exact)


def regret(game: MarkovGame, sigma: MediatorPolicy, deviations: DeviationClass,
           complete_mode: str = "dp") -> float:
    """Max over agents and deviations of the gain from filtering recommendations."""
    return regret_report(game, sigma, deviations, complete_mode=complete_mode).regret


def value_gap(game: MarkovGame, expert: MediatorPolicy, learner: MediatorPolicy) -> float:
    """max_i ( J_i(expert play) - J_i(learner play) ), all agents obedient."""
    return float(np.max(values(game, expert) - values(game, learner)))


def regret_gap(game: MarkovGame, expert: MediatorPolicy, learner: MediatorPolicy,
               deviations: DeviationClass) -> float:
    """Learner regret minus expert regret under the same deviation class."""
    return regret(game, learner, deviations) - regret(game, expert, deviations)


def is_approx_ce(game: MarkovGame, sigma: MediatorPolicy, deviations: DeviationClass,
                 epsilon: float) -> bool:
    """True iff no agent can gain more than epsilon by filtering recommendations."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return regret(game, sigma, deviations) <= epsilon


# ---------------------------------------------------------------------------
# Structural constants
# ---------------------------------------------------------------------------


def coverage_constant(game: MarkovGame, expert: MediatorPolicy) -> float:
    """beta: minimum average state-visitation probability of the expert."""
    return float(occupancy_bundle(game, expert).avg_state.min())


def _u_candidates(game: MarkovGame, expert: MediatorPolicy, deviations: DeviationClass,
                  agent: int) -> tuple[Deviation, ...]:
    """Deviations the u constants maximize over for one agent: an explicit
    class as listed, COMPLETE as the identity plus the per-step best response."""
    if deviations.is_complete(agent):
        return (Deviation.identity(game, agent),
                best_response_deviation(game, expert, agent).deviation)
    devs = deviations.explicit_for(agent)
    if not devs:
        raise ValueError(f"agent {agent}: explicit deviation class is empty")
    return devs


def recoverability_constant(game: MarkovGame, expert: MediatorPolicy,
                            deviations: DeviationClass,
                            exact_enumeration: bool = False,
                            cap: int = 1 << 16) -> float:
    """u: largest advantage magnitude of the expert under any listed deviation.

    For each agent i and deviation phi in its class, computes the advantage
    tensor of agent i under the deviated expert play and takes the max
    absolute entry over steps, states and joint actions.

    COMPLETE classes are resolved over the identity plus the per-step
    best-response deviation; with ``exact_enumeration`` every stationary
    map is tried instead (small games only).
    """
    u = 0.0

    def adv_max(dev: Deviation) -> float:
        tabs = induced_tables(game, expert, dev)
        _, _, A = advantage_tensor(game, tabs, dev.agent)
        return float(np.abs(A).max())

    for i in range(game.num_agents):
        if deviations.is_complete(i) and exact_enumeration:
            for table in _stationary_maps(game, i, cap):
                u = max(u, adv_max(Deviation(i, table)))
        else:
            for dev in _u_candidates(game, expert, deviations, i):
                u = max(u, adv_max(dev))
    return u


def moment_recoverability_constant(game: MarkovGame, expert: MediatorPolicy,
                                   deviations: DeviationClass) -> float:
    """Worst-case advantage bound over every reward tensor in [-1, 1]^(S x A).

    The advantage is linear in the reward, so its supremum over the box is
    the L1 norm of the influence coefficients: the difference between the
    discounted visitation starting from (s, a) at step h and the one
    starting from s alone.  Realized by an explicit sign construction per
    (h, s, a) cell; the outer max runs over the same deviation set as
    recoverability_constant's default mode.
    """
    H, S, A = game.horizon, game.n_states, game.n_joint_actions

    def sup_adv(tabs: np.ndarray) -> float:
        # future[h] maps a step-h state distribution to its (S, A) visitation
        # mass over steps h..H-1; built backward once, then applied per cell.
        worst = 0.0
        # visit[h, s] = (S, A) expected future visitation starting in s at h
        visit = np.zeros((H + 1, S, S, A))
        for h in reversed(range(H)):
            visit[h] = np.eye(S)[:, :, None] * tabs[h][None, :, :]
            if h + 1 < H:
                step = np.einsum("sa,sax->sx", tabs[h], game.transition)
                visit[h] += np.einsum("sx,xuv->suv", step, visit[h + 1])
        for h in range(H):
            # from (s, a): current cell plus transition into visit[h+1]
            cell = np.zeros((S, A, S, A))
            cell[np.arange(S)[:, None], np.arange(A)[None, :], np.arange(S)[:, None], np.arange(A)[None, :]] = 1.0
            if h + 1 < H:
                cell += np.einsum("sax,xuv->sauv", game.transition, visit[h + 1])
            coeff = cell - visit[h][:, None, :, :]
            worst = max(worst, float(np.abs(coeff).sum(axis=(2, 3)).max()))
        return worst

    u = 0.0
    for i in range(game.num_agents):
        for dev in _u_candidates(game, expert, deviations, i):
            u = max(u, sup_adv(induced_tables(game, expert, dev)))
    return u


# ---------------------------------------------------------------------------
# Divergences between policies
# ---------------------------------------------------------------------------


def moment_matching_error(game: MarkovGame, expert: MediatorPolicy, learner: MediatorPolicy,
                          normalized: bool = True) -> float:
    """Worst expected-reward-sum difference over all rewards in [-1, 1]^(S x A).

    The supremum is attained by the sign of the occupancy difference and
    equals the L1 distance between averaged occupancy measures; the
    unnormalized mode multiplies by H to express it on the scale of raw
    reward sums.
    """
    rho_e = occupancy_bundle(game, expert).avg_joint
    rho_l = occupancy_bundle(game, learner).avg_joint
    l1 = float(np.abs(rho_e - rho_l).sum())
    return l1 if normalized else game.horizon * l1


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Everything the harness reports about an (expert, learner) pair."""

    values_expert: tuple[float, ...]
    values_learner: tuple[float, ...]
    regret_expert: RegretReport
    regret_learner: RegretReport
    value_gap: float
    regret_gap: float
    beta: float
    u: float
    moment_error: float        # normalized: L1 between averaged occupancies
    exact: bool

    def to_json_dict(self) -> dict:
        def gains(rep: RegretReport, tag: str):
            return [
                {"policy": tag, "agent": g.agent, "deviation": g.label, "gain": g.gain}
                for g in rep.gains
            ]

        return {
            "values": {
                "expert": list(self.values_expert),
                "learner": list(self.values_learner),
            },
            "regret": {
                "expert": self.regret_expert.regret,
                "learner": self.regret_learner.regret,
            },
            "value_gap": self.value_gap,
            "regret_gap": self.regret_gap,
            "beta": self.beta,
            "u": self.u,
            "moment_error": self.moment_error,
            "exact": self.exact,
            "per_deviation_gains": gains(self.regret_expert, "expert")
            + gains(self.regret_learner, "learner"),
        }


def evaluate_pair(game: MarkovGame, expert: MediatorPolicy, learner: MediatorPolicy,
                  deviations: DeviationClass) -> EvalReport:
    rep_e = regret_report(game, expert, deviations)
    rep_l = regret_report(game, learner, deviations)
    ve = values(game, expert)
    vl = values(game, learner)
    return EvalReport(
        values_expert=tuple(float(x) for x in ve),
        values_learner=tuple(float(x) for x in vl),
        regret_expert=rep_e,
        regret_learner=rep_l,
        value_gap=float(np.max(ve - vl)),
        regret_gap=rep_l.regret - rep_e.regret,
        beta=coverage_constant(game, expert),
        u=recoverability_constant(game, expert, deviations),
        moment_error=moment_matching_error(game, expert, learner, normalized=True),
        exact=rep_e.exact and rep_l.exact,
    )
