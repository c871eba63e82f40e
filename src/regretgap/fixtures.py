"""Parameterized game constructions with pinned closed-form expectations.

Each generator returns the game, the expert, the learner, the deviation
that witnesses the interesting behavior, and a dict of expected values.
The generators exist so that the exact evaluator can be checked against
arithmetic done by hand; reproducing every ``expected`` entry is the whole
point of this module.

The two-chain constructions share one layout: a start state forks into a
top and a bottom chain of states, one new state per chain per step, and
only a specific joint action at the fork states leads up.  fig1 places
rewards along the whole top chain so that a coordinated double deviation
by one agent is worth order H, while the expert and learner stay
occupancy-identical on the bottom chain.  coverage_lb mixes the expert so
every state is visited, and alice_lb is the single-agent fork variant
where the learner slightly overweights the unrewarded branch.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .games import (
    Deviation,
    DeviationClass,
    MarkovGame,
    MediatorPolicy,
    validate_game,
)
from .evaluate import coverage_constant


@dataclass(frozen=True)
class Fixture:
    name: str
    game: MarkovGame
    expert: MediatorPolicy
    learner: MediatorPolicy
    witness_deviations: tuple[Deviation, ...]
    expected: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def witness_class(self) -> DeviationClass:
        """Explicit class holding the witness deviations plus identities."""
        return DeviationClass.explicit(self.game, self.witness_deviations)


def _check(fixture: Fixture) -> Fixture:
    report = validate_game(fixture.game)
    if not report.ok:
        raise AssertionError(f"generator produced an invalid game: {report.violations}")
    return fixture


# ---------------------------------------------------------------------------
# Two-chain constructions
# ---------------------------------------------------------------------------


def _fork_chain_game(horizon: int, action_counts: tuple[int, ...], gates: tuple[int, ...],
                     rewarded: range, num_agents: int) -> MarkovGame:
    """Fork-and-chains layout over states s0 .. s_{2H-2}.

    The top chain is s1, s3, s5, ... and the bottom chain s2, s4, ....
    Fork j sits at s0 (j = 0) or at the top state s_{2j-1}: under gate
    joint action ``gates[j]`` it goes up to s_{2j+1}, otherwise down to
    s_{2j+2}.  Every other state advances two indices per step regardless
    of actions, and the chain ends absorb.  The states in ``rewarded`` pay
    1 to every agent, action-free.
    """
    S = 2 * horizon - 1
    A = int(np.prod(action_counts))
    T = np.zeros((S, A, S))
    # chains advance two indices per step; both ends drain into the
    # unrewarded bottom end so off-path continuations never re-collect
    for k in range(1, S):
        T[k, :, min(k + 2, S - 1)] = 1.0
    for j, gate in enumerate(gates):
        fork = 2 * j - 1 if j else 0
        T[fork] = 0.0
        T[fork, :, 2 * j + 2] = 1.0
        T[fork, gate, 2 * j + 2] = 0.0
        T[fork, gate, 2 * j + 1] = 1.0
    r = np.zeros((num_agents, S, A))
    r[:, list(rewarded), :] = 1.0
    rho0 = np.zeros(S)
    rho0[0] = 1.0
    names = tuple(f"s{k}" for k in range(S))
    agent_actions = tuple(tuple(f"a{j + 1}" for j in range(n)) for n in action_counts)
    return MarkovGame(horizon=horizon, num_agents=num_agents, states=names,
                      actions=agent_actions, transition=T, rewards=r,
                      initial_dist=rho0)


def fig1_game(horizon: int = 8) -> Fixture:
    """Occupancy-equal expert/learner pair with an order-H regret gap.

    Two agents, three actions each, common payoff.  Rewards sit on the
    whole top chain (s3, s5, ..., s_{2H-3}), reachable only by playing the
    gate joint action (a2, a1) at both s0 and s1.  The expert recommends
    (a1, a1) at s0 and (a3, a3) at s1; the learner differs only at the
    never-visited s1, where it recommends (a1, a1).  Agent 1 can then walk
    the learner up the rewarded chain by swapping its own a1 to a2 at both
    forks, while the same swap earns nothing against the expert.
    """
    H = int(horizon)
    if H < 3:
        raise ValueError("horizon must be at least 3")
    game = _fork_chain_game(H, (3, 3), gates=(3, 3), rewarded=range(3, 2 * H - 2, 2),
                            num_agents=2)
    a1a1 = 0
    a3a3 = 8
    expert_idx = np.zeros(game.n_states, dtype=np.int64)
    expert_idx[1] = a3a3
    expert = MediatorPolicy.deterministic(game, expert_idx)
    learner_idx = expert_idx.copy()
    learner_idx[1] = a1a1
    learner = MediatorPolicy.deterministic(game, learner_idx)
    witness = Deviation.from_entries(game, 0, [("s0", "a1", "a2"), ("s1", "a1", "a2")],
                                     label="double-swap")
    expected = {
        "occupancy_l1": 0.0,
        "regret_expert": 0.0,
        "regret_learner": float(H - 2),
        "regret_gap": float(H - 2),
        "value_gap": 0.0,
        "bc_error": 0.0,
    }
    return _check(Fixture("fig1", game, expert, learner, (witness,), expected,
                          params={"H": H}))


def coverage_lb_game(horizon: int = 20, u: float = 10, beta: float = 0.05,
                     eps: float = 0.001) -> Fixture:
    """Full-coverage two-chain pair whose regret gap scales like eps*H*u/beta.

    The expert mixes 2*beta of its s0 recommendation onto the gate action so
    every state is visited, and splits s1 between the gate and a harmless
    action.  The learner carves eps*H/(2*beta) of the harmless mass at s1
    onto (a1, a1), which costs only eps in expert-weighted imitation error
    but hands agent 1 an extra eps*H/(2*beta) * (u'-2) of deviation gain.
    """
    H = int(horizon)
    u_floor = math.floor(u)
    if not (H >= u >= 3):
        raise ValueError("need horizon >= u >= 3")
    if not (0 < beta <= 0.25):
        raise ValueError("need 0 < beta <= 1/4")
    if eps < 0 or eps * H / (2 * beta) > 0.5:
        raise ValueError("need 0 <= eps with eps*H/(2*beta) <= 1/2 to stay on the simplex")
    game = _fork_chain_game(H, (3, 3), gates=(3, 3), rewarded=range(3, 2 * u_floor - 2, 2),
                            num_agents=2)
    carve = eps * H / (2 * beta)
    expert = MediatorPolicy.from_rows(
        game,
        {
            "s0": {("a1", "a1"): 1 - 2 * beta, ("a2", "a1"): 2 * beta},
            "s1": {("a2", "a1"): 0.5, ("a3", "a3"): 0.5},
        },
        default=np.eye(game.n_joint_actions)[0],
    )
    learner = MediatorPolicy.from_rows(
        game,
        {
            "s0": {("a1", "a1"): 1 - 2 * beta, ("a2", "a1"): 2 * beta},
            "s1": {("a2", "a1"): 0.5, ("a1", "a1"): carve, ("a3", "a3"): 0.5 - carve},
        },
        default=np.eye(game.n_joint_actions)[0],
    )
    witness = Deviation.from_entries(game, 0, [("s0", "a1", "a2"), ("s1", "a1", "a2")],
                                     label="double-swap")
    regret_expert = 0.5 * (1 - 2 * beta) * (u_floor - 2)
    gap = carve * (u_floor - 2)
    fixture = Fixture(
        "coverage-lb", game, expert, learner, (witness,),
        expected={
            "bc_error": eps,
            "regret_expert": regret_expert,
            "regret_learner": regret_expert + gap,
            "regret_gap": gap,
            "value_gap": 0.0,
            "moment_error_normalized": 2 * eps,
        },
        params={"H": H, "u": u, "u_floor": u_floor, "beta": beta, "eps": eps},
    )
    computed_floor = coverage_constant(game, expert)
    notes = {
        "coverage_floor_analytic": beta,
        "coverage_floor_computed": computed_floor,
        "coverage_matches_analytic": bool(abs(computed_floor - beta) <= 1e-12),
    }
    fixture.notes.update(notes)
    return _check(fixture)


def alice_lb_game(horizon: int = 20, u: float = 6, beta: float = 0.1,
                  eps: float = 0.005) -> Fixture:
    """Single-agent fork where low on-deviated-distribution loss still costs
    eps*H*(u'-1) of regret gap.

    The top branch pays u'-1 in total; the expert takes it with probability
    1-beta.  The learner shifts H*eps more mass to the bottom branch, which
    changes the policy only at s0.  Since s0 carries exactly 1/H of any
    deviated state distribution, every importance-weighted or on-deviated
    imitation loss evaluates to eps, yet redirecting the bottom action back
    up gains the learner H*eps*(u'-1) more than it gains the expert.
    """
    H = int(horizon)
    u_floor = math.floor(u)
    if not (H >= u >= 2):
        raise ValueError("need horizon >= u >= 2")
    if beta <= 0:
        raise ValueError("need beta > 0")
    if eps < 0 or beta + H * eps > 1:
        raise ValueError("need 0 <= eps with beta + H*eps <= 1 to stay on the simplex")
    game = _fork_chain_game(H, (2,), gates=(0,), rewarded=range(1, 2 * u_floor - 1, 2),
                            num_agents=1)
    expert = MediatorPolicy.from_rows(
        game, {"s0": {("a1",): 1 - beta, ("a2",): beta}}, default=np.eye(2)[0]
    )
    learner = MediatorPolicy.from_rows(
        game, {"s0": {("a1",): 1 - beta - H * eps, ("a2",): beta + H * eps}},
        default=np.eye(2)[0],
    )
    witness = Deviation.from_entries(game, 0, [("s0", "a2", "a1")], label="back-up")
    fixture = Fixture(
        "alice-lb", game, expert, learner, (witness,),
        expected={
            "regret_expert": beta * (u_floor - 1),
            "regret_learner": (beta + H * eps) * (u_floor - 1),
            "regret_gap": eps * H * (u_floor - 1),
            "value_gap": eps * H * (u_floor - 1),
            "malice_loss": eps,
            "blades_loss": eps,
            "bc_error": eps,
            "moment_error_normalized": 2 * H * eps,
        },
        params={"H": H, "u": u, "u_floor": u_floor, "beta": beta, "eps": eps},
    )
    return _check(fixture)


# The parameterized constructions by name; their signatures hold the
# pinned default parameters.
FIXTURES = {
    "fig1": fig1_game,
    "coverage-lb": coverage_lb_game,
    "alice-lb": alice_lb_game,
}


def _check_params(name: str, builder, params) -> None:
    """Raise ValueError naming the parameters the builder of ``name`` does not take."""
    unknown = sorted(set(params) - set(inspect.signature(builder).parameters))
    if unknown:
        raise ValueError(f"fixture {name!r} does not take parameter(s) {', '.join(unknown)}")


def build_fixture(name: str, **params) -> Fixture:
    """Build a named construction; None parameters keep the builder's
    defaults, and a parameter the builder does not take is a ValueError."""
    params = {k: v for k, v in params.items() if v is not None}
    _check_params(name, FIXTURES[name], params)
    return FIXTURES[name](**params)


# ---------------------------------------------------------------------------
# Normal-form game with several equilibria
# ---------------------------------------------------------------------------


def multi_ce_nfg() -> tuple[Fixture, Fixture]:
    """One-shot two-agent game where equilibrium play underdetermines value.

    Under payoff r (coordinating on the second action is worth twice the
    first), both the pure policy on (a1, a1) and the mixed policy
    (4/9, 2/9, 2/9, 1/9) have zero deviation regret, yet their values
    differ by 1/3.  Under payoff r' (both diagonals worth 1), the same pure
    policy still has zero regret, as does uniform play, which in turn is
    not an equilibrium under r.
    """
    states = ("s0",)
    actions = (("a1", "a2"), ("a1", "a2"))
    T = np.ones((1, 4, 1))
    rho0 = np.array([1.0])
    payoff_r = np.array([1.0, 0.0, 0.0, 2.0])
    payoff_rp = np.array([1.0, 0.0, 0.0, 1.0])
    game_r = MarkovGame(1, 2, states, actions, T,
                        np.tile(payoff_r, (2, 1, 1)), rho0, reward_bound=2.0)
    game_rp = MarkovGame(1, 2, states, actions, T,
                         np.tile(payoff_rp, (2, 1, 1)), rho0)
    sigma1 = MediatorPolicy(np.array([[1.0, 0.0, 0.0, 0.0]]))
    sigma2 = MediatorPolicy(np.array([[4 / 9, 2 / 9, 2 / 9, 1 / 9]]))
    uniform = MediatorPolicy(np.full((1, 4), 0.25))
    fx_r = Fixture(
        "multi-ce-nfg-r", game_r, expert=sigma1, learner=sigma2,
        witness_deviations=(),
        expected={
            "regret_expert": 0.0,
            "regret_learner": 0.0,
            "regret_gap": 0.0,
            "value_expert": 1.0,
            "value_learner": 2.0 / 3.0,
            "value_gap": 1.0 / 3.0,
        },
        params={"H": 1},
    )
    fx_rp = Fixture(
        "multi-ce-nfg-rprime", game_rp, expert=sigma1, learner=uniform,
        witness_deviations=(),
        expected={
            "regret_expert": 0.0,
            "regret_learner": 0.0,
            "regret_gap": 0.0,
            "value_expert": 1.0,
            "value_learner": 0.5,
            "value_gap": 0.5,
        },
        params={"H": 1},
    )
    return _check(fx_r), _check(fx_rp)


# ---------------------------------------------------------------------------
# Random games
# ---------------------------------------------------------------------------

MAX_STATES = 200
MAX_JOINT_ACTIONS = 64


def random_mg(seed, n_states: int = 4, horizon: int = 4,
              action_counts: tuple[int, ...] = (2, 2),
              common_payoff: bool = False, full_coverage_expert: bool = False,
              layered: bool = False, layer_sizes: tuple[int, ...] | None = None) -> Fixture:
    """Validated random game plus random expert/learner policies.

    Flags: common_payoff shares one reward tensor across agents;
    full_coverage_expert mixes the expert with uniform at rate 0.1 and
    asserts positive coverage; layered builds one fresh batch of states
    per step so every state is reachable at exactly one step.  Expected
    values are left empty: random fixtures are property-suite substrate,
    not closed-form witnesses.
    """
    rng = np.random.default_rng(seed)
    m = len(action_counts)
    A = int(np.prod(action_counts))
    if n_states > MAX_STATES or A > MAX_JOINT_ACTIONS:
        raise ValueError("requested sizes exceed the desk-scale caps")
    if layered:
        if layer_sizes is None:
            if n_states < horizon:
                raise ValueError("layered games need at least one state per step")
            base, extra = divmod(n_states, horizon)
            layer_sizes = tuple(base + (1 if l < extra else 0) for l in range(horizon))
        if len(layer_sizes) != horizon:
            raise ValueError("need one layer per step")
        S = int(sum(layer_sizes))
        names = []
        offsets = np.concatenate([[0], np.cumsum(layer_sizes)]).astype(int)
        for l, size in enumerate(layer_sizes):
            names.extend(f"L{l}s{j}" for j in range(size))
        T = np.zeros((S, A, S))
        for l in range(horizon):
            lo, hi = offsets[l], offsets[l + 1]
            if l + 1 < horizon:
                nlo, nhi = offsets[l + 1], offsets[l + 2]
                T[lo:hi, :, nlo:nhi] = rng.dirichlet(np.ones(nhi - nlo), size=(hi - lo, A))
            else:
                for s in range(lo, hi):
                    T[s, :, s] = 1.0
        rho0 = np.zeros(S)
        rho0[: offsets[1]] = rng.dirichlet(np.ones(offsets[1]))
        states = tuple(names)
    else:
        S = n_states
        T = rng.dirichlet(np.ones(S), size=(S, A))
        rho0 = rng.dirichlet(np.ones(S))
        states = tuple(f"s{k}" for k in range(S))
    if common_payoff:
        r_one = rng.uniform(-1.0, 1.0, size=(S, A))
        rewards = np.tile(r_one, (m, 1, 1))
    else:
        rewards = rng.uniform(-1.0, 1.0, size=(m, S, A))
    actions = tuple(tuple(f"a{j + 1}" for j in range(n)) for n in action_counts)
    game = MarkovGame(horizon, m, states, actions, T, rewards, rho0)
    expert_table = rng.dirichlet(np.ones(A), size=S)
    if full_coverage_expert:
        expert_table = 0.9 * expert_table + 0.1 / A
    expert = MediatorPolicy(expert_table)
    learner = MediatorPolicy(rng.dirichlet(np.ones(A), size=S))
    fixture = Fixture(
        name="random", game=game, expert=expert, learner=learner,
        witness_deviations=(),
        params={"H": horizon, "n_states": S, "m": m,
                "seed": int(seed) if isinstance(seed, (int, np.integer)) else None},
    )
    if full_coverage_expert:
        beta = coverage_constant(game, expert)
        if beta <= 0:
            raise AssertionError("full-coverage flag failed to produce positive coverage")
        fixture.notes["coverage_floor_computed"] = beta
    return _check(fixture)


def random_deviation_class(game: MarkovGame, per_agent: int, seed) -> DeviationClass:
    """Explicit class of random stationary maps, identity always included."""
    rng = np.random.default_rng(seed)
    devs = []
    for i in range(game.num_agents):
        n = game.action_counts[i]
        devs.append(Deviation.identity(game, i))
        for k in range(per_agent - 1):
            table = rng.integers(0, n, size=(game.n_states, n))
            devs.append(Deviation(i, table, label=f"a{i}/rnd{k}"))
    return DeviationClass.explicit(game, devs)
