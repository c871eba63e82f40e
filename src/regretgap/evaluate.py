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

from dataclasses import dataclass

import numpy as np

from .games import (
    Deviation,
    DeviationClass,
    MarkovGame,
    MediatorPolicy,
    _policy_array,
    _push,
    _push_index,
    _shift,
    policy_tables,
    reachable_steps,      # re-exported: evaluate.reachable_steps stays public
)


# ---------------------------------------------------------------------------
# The batched DP core
# ---------------------------------------------------------------------------


def _distinct(*stacks):
    """First position of each bitwise-distinct column of the stacks, and the
    inverse index; both are ``slice(None)`` when every column is distinct.
    BLAS may round equal columns of one matmul differently, so equal inputs
    share one DP column to get bitwise-equal results."""
    K = len(stacks[0])
    if K <= 1:
        return slice(None), slice(None)
    rows = np.ascontiguousarray(np.column_stack([np.reshape(x, (K, -1)) for x in stacks]))
    keys = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel().tolist()
    if len(dict.fromkeys(keys)) == K:
        return slice(None), slice(None)
    seen: dict = {}
    first, inverse = [], []
    for k, key in enumerate(keys):
        inverse.append(seen.setdefault(key, len(seen)))
        if len(seen) > len(first):
            first.append(k)
    return np.array(first), np.array(inverse)


def _forward(game: MarkovGame, tables: np.ndarray) -> np.ndarray:
    """Forward DP d_{h+1} = d_h P_h, d_1 = rho0, for K policies (K, S, A) or
    (K, H, S, A) at once: the state distributions (K, H, S).  The state kernel
    P_h(s, s') = sum_a pi_h(a|s) T(s'|s,a), K S^2 floats (20 MB for K = 64 at
    200 states), is formed once for a stationary stack, one product per
    (column, state) so a column's d does not depend on the stack, and every
    step for a time-indexed one, one matmul (S, K, A) @ (S, A, S), where
    bitwise-equal columns share one DP column."""
    first, inverse = _distinct(tables) if tables.ndim == 4 else (slice(None), slice(None))
    tables = tables[first]
    H, S = game.horizon, game.n_states
    d = np.empty((len(tables), H, 1, S))
    d[:, 0, 0] = game.initial_dist
    for h in range(H - 1):
        if tables.ndim == 4:
            kernel = np.matmul(tables[:, h].transpose(1, 0, 2), game.transition).transpose(1, 0, 2)
        elif h == 0:
            kernel = (tables[:, :, None] @ game.transition)[:, :, 0]          # (K, S, S)
        d[:, h + 1] = d[:, h] @ kernel
    return d[inverse, :, 0]


def _backward(game: MarkovGame, tables: np.ndarray, agents, sigmas=(), br_agents=()):
    """Backward DP Q_h(s,a) = r_i(s,a) + sum_{s'} T(s'|s,a) V_{h+1}(s'),
    V_h(s) = sum_a pi_h(a|s) Q_h(s,a), for K (policy, agent) columns at once;
    policies are (K, S, A) or (K, H, S, A).  Agent b of the nb ``br_agents``
    adds rows against each policy p of the (P, S, A) stack ``sigmas``: its
    best-response recursion W (Q_h = r + T W_{h+1}, V_h = W_h), row K + p nb
    + b, and its obedient value by the same arithmetic, row K + (P + p) nb + b.
    One matmul per step advances every row, one einsum per agent serves all
    policies.  Yields (h, Q_h, V_h, maps_h), maps_h holding each agent's (P,
    S, n_i) argmax maps; the next step overwrites Q_h."""
    S, A = game.n_states, game.n_joint_actions
    T2t = game.transition.reshape(S * A, S).T
    K, P, nb = len(tables), len(sigmas), len(br_agents)
    rows = np.concatenate([agents, np.tile(br_agents, 2 * P)]).astype(np.int64)
    rewards = game.rewards[rows if len(set(rows.tolist())) > 1 else rows[:1]]
    # gather[j, x]: the joint action of own action j and the others' actions x
    gathers = [np.moveaxis(np.arange(A).reshape(game.action_counts), i, 0).reshape(
        game.action_counts[i], -1) for i in br_agents]
    sig = [sigmas[:, :, g].reshape(P * S, *g.shape) for g in gathers]   # (P*S, n, R) per agent
    Q, V = np.empty((len(rows), S, A)), np.zeros((len(rows), S))
    for h in reversed(range(game.horizon)):
        pi = tables if tables.ndim == 3 else tables[:, h]
        # W == V bitwise shares one row, so G_dev is G_obey and a gain stays 0.0
        shared = [np.equal(*V[K + b::nb].reshape(2, P, S)).all(axis=1) for b in range(nb)]
        np.matmul(V, T2t, out=Q.reshape(-1, S * A))
        Q += rewards
        V = np.empty_like(V)
        V[:K] = np.einsum("ksa,ksa->ks", pi, Q[:K])
        maps_h = []
        for b, (g, sig_r, same) in enumerate(zip(gathers, sig, shared)):
            n, own = len(g), np.arange(len(g))
            G = Q[K + b::nb][:, :, g].reshape(2, P * S, n, -1)      # the P W rows, then the P V rows
            # U[p, s, j, b]: mass of recommendation j times expected payoff of playing b
            U_dev = np.einsum("sjx,sbx->sjb", sig_r, G[0]).reshape(P, S, n, n)
            U_obey = U_dev if same.all() else np.where(same[:, None, None, None], U_dev, np.einsum(
                "sjx,sbx->sjb", sig_r, G[1]).reshape(P, S, n, n))
            best = U_dev.max(axis=3)                          # (P, S, n)
            first_argmax = np.argmax(U_dev == best[..., None], axis=3)
            maps_h.append(np.where(U_dev[..., own, own] == best, own, first_argmax))
            V[K + b::nb] = np.concatenate([best.sum(axis=2), U_obey[..., own, own].sum(axis=2)])
        yield h, Q, V, maps_h


def _values(game: MarkovGame, tables: np.ndarray, agents) -> np.ndarray:
    """J of K (policy, agent) columns, as a (K,) array."""
    agents = np.asarray(agents, dtype=np.int64)
    first, inverse = _distinct(tables, agents)
    for _, _, V, _ in _backward(game, tables[first], agents[first]):
        pass
    return np.einsum("ks,s->k", V, game.initial_dist)[inverse]


def _stack(game: MarkovGame, *policies) -> np.ndarray:
    """The policies, each shape-checked, as one stack."""
    return np.stack([_policy_array(game, p) for p in policies])


@dataclass(frozen=True)
class BestResponse:
    deviation: Deviation           # time-indexed argmax map per (h, s, recommended)
    gain: float                    # J_i(deviated) - J_i(obedient), never negative
    deviated_value: float
    obedient_value: float


def _sweep(game: MarkovGame, sigmas: np.ndarray, devs, br_agents=(), n_u=None):
    """One backward DP against every (S, A) policy of the (P, S, A) stack
    sigmas: J (P, K) of each deviation's agent under each policy pushed
    through it, each policy's {agent: BestResponse} for ``br_agents``, and,
    when ``n_u`` is given, u of sigmas[0]: max |Q_h(s,a) - V_h(s)| over its
    first n_u deviated plays and its best responses (else None).  Bitwise-
    equal policies and columns share their rows."""
    pf, pinv = _distinct(sigmas)
    sigmas = sigmas[pf]                # sigmas[0] stays the first policy
    P, K, nb = len(sigmas), len(devs), len(br_agents)
    push = _push_index(game, devs)
    tables = np.concatenate([push(sigma) for sigma in sigmas])
    agents = np.tile(np.array([dev.agent for dev in devs], dtype=np.int64), P)
    first, inverse = _distinct(tables, agents)
    tables, agents = tables[first], agents[first]
    # the u rows: sigmas[0]'s first n_u columns are rows [0, n), its W rows [Kd, Kd + nb)
    Kd, n = len(tables), len(np.unique(np.arange(P * K)[inverse][:n_u or 0]))
    u_rows = () if n_u is None else (slice(0, n), slice(Kd, Kd + nb))
    u, steps = 0.0, []
    for _, Q, V, maps_h in _backward(game, tables, agents, sigmas, br_agents):
        for R in u_rows:
            gap = Q[R] - V[R, :, None]
            u = max(u, float(np.abs(gap, out=gap).max(initial=0.0)))
        steps.append(maps_h)
    J = np.einsum("ks,s->k", V, game.initial_dist)   # row by row, independent of the rows around
    W, O = J[Kd:].reshape(2, P, nb).tolist()          # so a shared W and V row gains exactly 0.0
    maps = [np.stack([m[b] for m in reversed(steps)], axis=1) for b in range(nb)]   # (P, H, S, n) each
    brs = [{i: BestResponse(Deviation(i, maps[b][p], label=f"br(agent={i})"), W[p][b] - O[p][b], W[p][b],
                            O[p][b]) for b, i in enumerate(br_agents)} for p in np.arange(P)[pinv]]
    return J[:Kd][inverse].reshape(P, K)[pinv], brs, None if n_u is None else u


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
    arr = _policy_array(game, policy)
    d = _forward(game, arr[None])[0]
    rho = d[:, :, None] * policy_tables(game, arr)
    return OccupancyBundle(d, rho, d.mean(axis=0), rho.mean(axis=0))


def state_density(game: MarkovGame, policy) -> np.ndarray:
    """Average state distribution d of a policy, by forward DP."""
    return occupancy_bundle(game, policy).avg_state


def value_functions(game: MarkovGame, policy, agent: int):
    """Backward DP for one agent: returns (Q, V) with shapes (H,S,A), (H,S).

    Q_h(s,a) = r_i(s,a) + sum_{s'} T(s'|s,a) V_{h+1}(s'); terminal V is zero.
    """
    Q = np.empty((game.horizon, game.n_states, game.n_joint_actions))
    V = np.empty(Q.shape[:2])
    for h, Q_h, V_h, _ in _backward(game, _policy_array(game, policy)[None], [agent]):
        Q[h], V[h] = Q_h[0], V_h[0]
    return Q, V

def advantage_tensor(game: MarkovGame, policy, agent: int):
    """(Q, V, A) tensors with A_h(s,a) = Q_h(s,a) - V_h(s)."""
    Q, V = value_functions(game, policy, agent)
    return Q, V, Q - V[:, :, None]


def value(game: MarkovGame, policy, agent: int) -> float:
    """J_i(pi): expected cumulative reward of one agent."""
    return float(_values(game, _policy_array(game, policy)[None], [agent])[0])


def values(game: MarkovGame, policy) -> np.ndarray:
    """J_i(pi) for every agent, as an (m,) array."""
    arr = _policy_array(game, policy)
    return _values(game, np.broadcast_to(arr, (game.num_agents, *arr.shape)), range(game.num_agents))


# ---------------------------------------------------------------------------
# Best response to recommendations
# ---------------------------------------------------------------------------


def best_response_deviation(game: MarkovGame, sigma: MediatorPolicy, agent: int) -> BestResponse:
    """Optimal recommendation filter for one agent, by backward induction.

    At step h in state s the agent sees its recommended action j, holds the
    conditional belief over the others' recommendations given j, and plays
    the b maximizing expected reward-to-go.  The recursion tracks the
    obedient value alongside the deviated one with identical arithmetic, so
    the reported gain is exactly 0.0 when obeying is optimal and never
    negative in floating point.
    """
    return _sweep(game, _stack(game, sigma), [], [agent])[1][0][agent]


_STATIONARY_CAP = 1 << 16     # most stationary maps one agent's enumeration may try


def _stationary_map(k, S: int, n: int) -> np.ndarray:
    """Stationary map(s) number k, (..., S, n): the S*n base-n digits of k,
    most significant first, so state 0's row leads the lexicographic order."""
    k = np.asarray(k)
    return (k[..., None] // n ** np.arange(S * n - 1, -1, -1) % n).reshape(*k.shape, S, n)


def enumerate_stationary_best_response(game: MarkovGame, sigma: MediatorPolicy, agent: int,
                                       cap: int = _STATIONARY_CAP) -> BestResponse:
    """Brute-force max over all stationary maps (state, rec) -> action.

    Evaluates all n^(S*n) stationary deviations in one batched backward DP,
    in lexicographic order (state 0's row most significant; ties go to the
    first map), and refuses above ``cap`` maps before allocating anything.
    That order is the product of S per-state local maps, each one of the
    n^n maps rec -> action.  So sigma's row at every state is pushed through
    the n^n local maps once, an (n^n, S, A) stack, and one broadcast copy per
    state assembles the (n^(S*n), S, A) deviated tables; a table's row sums
    the same cells in the same order as pushing its whole map, so every
    table, J and result is bitwise the same.  Only the winner's map is
    built, and the identity's index is closed-form.  At the cap, 2^16 maps
    at S = 8 and A = 4, the stack is 17 MB and the peak about 59 MB, most
    of the rest ``_distinct``'s bitwise-equality keys.  On games where every
    state is reachable at exactly one step this matches the DP; elsewhere it
    can only be lower.
    """
    return _enumerate(game, _policy_array(game, sigma), agent, cap)[0]


def _enumerate(game: MarkovGame, sigma: np.ndarray, agent: int, cap: int = _STATIONARY_CAP,
               u: bool = False):
    """enumerate_stationary_best_response of the (S, A) table sigma and, when
    ``u``, max |Q_h(s,a) - V_h(s)| over every stationary map (else None),
    both from the one backward DP over the stack."""
    S, A, n = game.n_states, game.n_joint_actions, game.action_counts[agent]
    total = n ** (S * n)
    if total > cap:
        raise ValueError(f"{total} stationary deviations exceeds cap {cap}")
    N = n ** n                                                # local maps of one state
    local = np.broadcast_to(_stationary_map(np.arange(N), 1, n), (N, S, n))
    rows = _push(_shift(game, agent, local), sigma)           # rows[l, s]: state s's row under map l
    tables = np.empty((total, S, A))
    for s in range(S):        # map k, read as S base-N digits k_s, takes rows[k_s, s] at state s
        tables.reshape(N ** s, N, -1, S, A)[:, :, :, s] = rows[None, :, None, s]
    agents = np.full(total, agent)
    first, inverse = _distinct(tables, agents)
    u_max = 0.0 if u else None
    for _, Q, V, _ in _backward(game, tables[first], agents[first]):
        if u:
            gap = Q - V[:, :, None]
            u_max = max(u_max, float(np.abs(gap, out=gap).max(initial=0.0)))
    J = np.einsum("ks,s->k", V, game.initial_dist)[inverse]
    k_id = int(np.tile(np.arange(n), S) @ n ** np.arange(S * n - 1, -1, -1))
    k_best = int(np.argmax(J))
    best_dev = Deviation(agent, _stationary_map(k_best, S, n), label=f"bf(agent={agent})")
    return BestResponse(deviation=best_dev, gain=float(J[k_best] - J[k_id]),
                        deviated_value=float(J[k_best]), obedient_value=float(J[k_id])), u_max


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def is_time_layered(game: MarkovGame) -> bool:
    """True when every state is reachable at no more than one step.

    On such games a stationary deviation loses nothing against a per-step
    one, so the best-response DP is exact over stationary classes too.
    Computed once per game.
    """
    return game._time_layered


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
    return _regret_report(game, _stack(game, sigma), deviations, complete_mode)[0][0]


def _regret_report(game: MarkovGame, sigmas: np.ndarray, deviations: DeviationClass,
                   complete_mode: str = "dp", u: bool = False):
    """regret_report of each policy of the (P, S, A) stack sigmas, their
    obedient J_i (P, m) and, when ``u``, u of sigmas[0] (else None), all from
    one backward sweep, so an identity deviation's gain is exactly 0.0.  u
    covers each explicit deviation and, per COMPLETE agent, the identity and
    best response ('dp') or every stationary map ('enumerate')."""
    if deviations.num_agents != game.num_agents:
        raise ValueError("deviation class does not match the game's agent count")
    if complete_mode not in ("dp", "enumerate"):
        raise ValueError(f"unknown complete_mode {complete_mode!r}")
    m = game.num_agents
    complete = [i for i in range(m) if deviations.is_complete(i)]
    empty = [i for i in range(m) if i not in complete and not deviations.explicit_for(i)]
    if u and empty:        # u needs a deviation for every explicit agent
        raise ValueError(f"agent {empty[0]}: explicit deviation class is empty")
    explicit = [dev for i in range(m) if i not in complete for dev in deviations.explicit_for(i)]
    dp = complete_mode == "dp"
    # the u candidates first: explicit deviations, then, for 'dp', the COMPLETE agents' identities
    ids = complete + [i for i in range(m) if i not in complete]
    J, brs, u_max = _sweep(game, sigmas, explicit + [Deviation.identity(game, i) for i in ids],
                           complete if dp else [],
                           len(explicit) + (len(complete) if dp else 0) if u else None)
    J_obey = J[:, len(explicit) + np.argsort(ids)]       # (P, m)
    exact = not dp or not complete or is_time_layered(game)
    reports = []
    for p, (sigma, J_p, J_o, brs_p) in enumerate(zip(sigmas, J, J_obey, brs)):
        deviated = iter(J_p)
        gains = []
        for i in range(m):
            if i in complete:
                br, u_i = (brs_p[i], None) if dp else _enumerate(game, sigma, i, u=u and p == 0)
                if u_i is not None:
                    u_max = max(u_max, u_i)
                gains.append(DeviationGain(i, br.deviation.label, br.gain))
            else:
                for k, dev in enumerate(deviations.explicit_for(i)):
                    gain = float(next(deviated) - J_o[i])
                    gains.append(DeviationGain(i, dev.label or f"dev{k}", gain))
        best = max(gains, key=lambda g: g.gain)      # the first of equal maxima
        reports.append(RegretReport(regret=best.gain, gains=tuple(gains), best=best, exact=exact))
    return reports, J_obey, u_max


def regret(game: MarkovGame, sigma: MediatorPolicy, deviations: DeviationClass,
           complete_mode: str = "dp") -> float:
    """Max over agents and deviations of the gain from filtering recommendations."""
    return regret_report(game, sigma, deviations, complete_mode=complete_mode).regret


def value_gap(game: MarkovGame, expert: MediatorPolicy, learner: MediatorPolicy) -> float:
    """max_i ( J_i(expert play) - J_i(learner play) ), all agents obedient."""
    m = game.num_agents
    J = _values(game, np.repeat(_stack(game, expert, learner), m, axis=0), np.tile(np.arange(m), 2))
    return float(np.max(J[:m] - J[m:]))


def regret_gap(game: MarkovGame, expert: MediatorPolicy, learner: MediatorPolicy,
               deviations: DeviationClass) -> float:
    """Learner regret minus expert regret under the same deviation class."""
    rep_e, rep_l = _regret_report(game, _stack(game, expert, learner), deviations)[0]
    return rep_l.regret - rep_e.regret


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


def recoverability_constant(game: MarkovGame, expert: MediatorPolicy,
                            deviations: DeviationClass,
                            exact_enumeration: bool = False) -> float:
    """u: largest advantage magnitude of the expert under any listed deviation.

    For each agent i and deviation phi in its class, computes the advantage
    tensor of agent i under the deviated expert play and takes the max
    absolute entry over steps, states and joint actions.  One path: the u
    of the expert's regret sweep, as ``evaluate_pair`` reports it, so an
    explicit class must not be empty.

    COMPLETE classes are resolved over the identity plus the per-step
    best-response deviation, which maximizes gain, not |A|, so u can fall
    below the stationary-class value.  ``exact_enumeration`` tries every
    stationary map instead, in the DP that enumerates the agent's best
    response: refused above 2^16 maps (S = 8 at 2x2 actions), where each
    COMPLETE agent costs about 0.1 s and a 72 MB allocation peak.
    """
    return _regret_report(game, _stack(game, expert), deviations,
                          "enumerate" if exact_enumeration else "dp", u=True)[2]


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
    tables = _stack(game, expert, learner)
    l1 = _moment_error(_forward(game, tables), tables)
    return l1 if normalized else game.horizon * l1


def _moment_error(d: np.ndarray, tables: np.ndarray) -> float:
    """L1 distance between the averaged occupancies of a two-policy stack,
    from its (2, H, S) state distributions."""
    rho = (d[..., None] * (tables if tables.ndim == 4 else tables[:, None])).mean(axis=1)
    return float(np.abs(rho[0] - rho[1]).sum())


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
    """One backward sweep of both policies (values, regret, best responses
    and, for the expert, u) and one forward DP of both (beta and the moment
    error).  Values and reports agree with ``values`` / ``regret_report``
    called alone to within 1e-15, not bitwise: one matmul rounds a row by its
    position for some inner dimensions (seen at 50, 60 and 64 states).
    Identity gains and the gaps of a policy against its copy stay exactly 0.0."""
    tables = _stack(game, expert, learner)
    (rep_e, rep_l), (ve, vl), u = _regret_report(game, tables, deviations, u=True)
    d = _forward(game, tables)                                # (2, H, S)
    return EvalReport(
        values_expert=tuple(float(x) for x in ve),
        values_learner=tuple(float(x) for x in vl),
        regret_expert=rep_e,
        regret_learner=rep_l,
        value_gap=float(np.max(ve - vl)),
        regret_gap=rep_l.regret - rep_e.regret,
        beta=float(d[0].mean(axis=0).min()),
        u=u,
        moment_error=_moment_error(d, tables),
        exact=rep_e.exact and rep_l.exact,
    )
