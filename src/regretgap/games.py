"""Tabular Markov games coordinated by a mediator.

A mediator draws a joint action each step and privately tells every agent
its own component.  Agents may either obey or filter the recommendation
through a deviation map.  Everything here is dense float64 numpy: the
games are desk-scale, so exactness beats cleverness.

Joint actions are flattened row-major by agent order: for per-agent action
counts (n_1, ..., n_m) the joint index of (a_1, ..., a_m) is
``a_1 * n_2 * ... * n_m + ... + a_m``.  This flattening is part of the
on-disk file format and must not change.

All types are immutable after construction and all operations are pure
functions of their inputs plus an explicit seed, so concurrent reads are
safe.  Sampling uses numpy's default_rng (PCG64), which is bit-reproducible
across platforms for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

SIMPLEX_ATOL = 1e-12


class CoverageError(RuntimeError):
    """Raised when an importance weight needs expert density that is zero."""


def _frozen_array(x, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(x, dtype=dtype)
    if arr.flags.writeable:
        arr = np.array(arr, dtype=dtype, order="C")  # private copy, caller keeps theirs
        arr.setflags(write=False)
    return arr


class _Complete:
    """Marker for the set of all maps (state, own action) -> own action."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "COMPLETE"


COMPLETE = _Complete()


@dataclass(frozen=True)
class MarkovGame:
    """Finite-horizon general-sum Markov game with a shared transition kernel.

    Fields
    ------
    horizon        number of reward-bearing steps; the first state is drawn
                   from ``initial_dist`` and counts as step 1
    num_agents     m
    states         ordered state names
    actions        per-agent ordered action names
    transition     (S, A, S) next-state probabilities, A = prod_i |A_i|
    rewards        (m, S, A) per-agent rewards, nominally in
                   [-reward_bound, reward_bound]
    initial_dist   (S,) start distribution
    reward_bound   declared reward magnitude cap, checked by validate_game
    """

    horizon: int
    num_agents: int
    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    transition: np.ndarray
    rewards: np.ndarray
    initial_dist: np.ndarray
    reward_bound: float = 1.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        if self.num_agents < 1:
            raise ValueError("num_agents must be a positive integer")
        if len(self.actions) != self.num_agents:
            raise ValueError("need one action list per agent")
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        object.__setattr__(
            self, "actions", tuple(tuple(str(a) for a in acts) for acts in self.actions)
        )
        # deviation files and sparse policy rows address states and actions by name
        for field, names in [("states", self.states),
                             *((f"actions[{i}]", acts) for i, acts in enumerate(self.actions))]:
            if len(set(names)) != len(names):
                dup = next(n for n in names if names.count(n) > 1)
                raise ValueError(f"{field}: the name {dup!r} appears more than once")
        S = len(self.states)
        A = int(np.prod([len(acts) for acts in self.actions]))
        T = _frozen_array(self.transition)
        r = _frozen_array(self.rewards)
        rho0 = _frozen_array(self.initial_dist)
        if T.shape != (S, A, S):
            raise ValueError(f"transition must have shape {(S, A, S)}, got {T.shape}")
        if r.shape != (self.num_agents, S, A):
            raise ValueError(f"rewards must have shape {(self.num_agents, S, A)}, got {r.shape}")
        if rho0.shape != (S,):
            raise ValueError(f"initial_dist must have shape {(S,)}, got {rho0.shape}")
        object.__setattr__(self, "transition", T)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "initial_dist", rho0)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_joint_actions(self) -> int:
        return self.transition.shape[1]

    @cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.actions)

    def joint_index(self, action_tuple: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(action_tuple), self.action_counts))

    def joint_tuple(self, joint_index: int) -> tuple[int, ...]:
        return tuple(int(x) for x in np.unravel_index(joint_index, self.action_counts))

    @cached_property
    def _components(self) -> np.ndarray:
        """(m, A) int array: agent i's own action inside each joint index."""
        grids = np.unravel_index(np.arange(self.n_joint_actions), self.action_counts)
        return _frozen_array(np.stack(grids, axis=0), dtype=np.int64)

    @cached_property
    def _time_layered(self) -> bool:
        """Every state is reachable at no more than one step."""
        return bool((reachable_steps(self).sum(axis=0) <= 1).all())

    def agent_component(self, agent: int) -> np.ndarray:
        return self._components[agent]

    def component_stride(self, agent: int) -> int:
        """Joint-index step caused by incrementing agent's own action by one."""
        return math.prod(self.action_counts[agent + 1:])

    def state_index(self, state) -> int:
        return _name_or_index(state, self.states, "state")

    def action_index(self, agent: int, action) -> int:
        return _name_or_index(action, self.actions[agent], f"agent {agent}'s action")


def _is_index(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _name_or_index(x, names: tuple[str, ...], what: str) -> int:
    """Position of ``x`` in ``names``: a name, or an int index in range."""
    if isinstance(x, str):
        if x not in names:
            raise ValueError(f"{what} {x!r} is not a name in the game")
        return names.index(x)
    if not (_is_index(x) and 0 <= x < len(names)):
        raise ValueError(f"{what} {x!r} is neither a name nor an index in 0 .. {len(names) - 1}")
    return int(x)


@dataclass(frozen=True)
class MediatorPolicy:
    """Per-state distribution over joint actions, sigma(a|s), as an (S, A) table."""

    table: np.ndarray

    def __post_init__(self):
        t = _frozen_array(self.table)
        if t.ndim != 2:
            raise ValueError("policy table must be 2-D (states x joint actions)")
        object.__setattr__(self, "table", t)

    @property
    def n_states(self) -> int:
        return self.table.shape[0]

    @classmethod
    def uniform(cls, game: MarkovGame) -> "MediatorPolicy":
        A = game.n_joint_actions
        return cls(np.full((game.n_states, A), 1.0 / A))

    @classmethod
    def deterministic(cls, game: MarkovGame, joint_per_state) -> "MediatorPolicy":
        """One-hot policy; joint_per_state is one joint-action index per state."""
        idx = np.asarray(joint_per_state, dtype=np.int64)
        table = np.zeros((game.n_states, game.n_joint_actions))
        table[np.arange(game.n_states), idx] = 1.0
        return cls(table)

    @classmethod
    def from_rows(cls, game: MarkovGame, rows: dict, default=None) -> "MediatorPolicy":
        """Build a policy from sparse row specs.

        ``rows`` maps a state (name or index) to {joint action: probability},
        where a joint action is a tuple of per-agent action names or indices.
        States not listed get ``default`` (a length-A vector), or uniform.
        """
        A = game.n_joint_actions
        if default is None:
            default = np.full(A, 1.0 / A)
        table = np.tile(np.asarray(default, dtype=np.float64), (game.n_states, 1))
        for state, row in rows.items():
            s = game.state_index(state)
            table[s] = 0.0
            for joint, prob in row.items():
                idx = game.joint_index(
                    tuple(game.action_index(i, a) for i, a in enumerate(joint))
                )
                table[s, idx] = prob
        return cls(table)


@dataclass(frozen=True)
class Deviation:
    """Recommendation-swap map for one agent.

    ``table`` holds the played action for each (state, recommended action)
    pair: shape (S, n_i) when stationary or (H, S, n_i) when the map varies
    with the step.  Entries are own-action indices of ``agent``.
    """

    agent: int
    table: np.ndarray
    label: str = ""

    def __post_init__(self):
        t = _frozen_array(self.table, dtype=np.int64)
        if t.ndim not in (2, 3):
            raise ValueError("deviation table must be (S, n_i) or (H, S, n_i)")
        object.__setattr__(self, "table", t)

    @property
    def time_indexed(self) -> bool:
        return self.table.ndim == 3

    @classmethod
    def identity(cls, game: MarkovGame, agent: int, label: str = "id") -> "Deviation":
        n = game.action_counts[agent]
        return cls(agent, np.tile(np.arange(n), (game.n_states, 1)), label=label)

    @classmethod
    def from_entries(cls, game: MarkovGame, agent: int, entries, label: str = "") -> "Deviation":
        """Stationary deviation from (state, recommended, played) triples.

        Pairs not listed default to the identity.  States and actions may be
        given as names or in-range int indices; anything else is a
        ValueError that names the entry.
        """
        if not _is_index(agent):
            raise ValueError(f"deviation agent must be an int index, got {agent!r}")
        if not 0 <= agent < game.num_agents:
            raise ValueError(f"deviation for agent {agent}, but the game has {game.num_agents} agents")
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"deviation entries must be a list of [state, recommended, played], "
                             f"got {entries!r}")
        n = game.action_counts[agent]
        table = np.tile(np.arange(n), (game.n_states, 1))
        for k, entry in enumerate(entries):
            try:
                state, rec, played = entry
                s = game.state_index(state)
                table[s, game.action_index(agent, rec)] = game.action_index(agent, played)
            except (TypeError, ValueError) as exc:   # TypeError: an entry that does not unpack
                raise ValueError(f"deviation entry {k} {entry!r}: {exc}") from None
        return cls(agent, table, label=label)

    def check_for(self, game: MarkovGame) -> None:
        n = game.action_counts[self.agent]
        S = game.n_states
        expected = (S, n) if not self.time_indexed else (game.horizon, S, n)
        if self.table.shape != expected:
            raise ValueError(
                f"deviation table shape {self.table.shape} does not match game ({expected})"
            )
        if self.table.min() < 0 or self.table.max() >= n:
            raise ValueError("deviation maps outside the agent's action set")

    def is_identity(self) -> bool:
        n = self.table.shape[-1]
        return bool(np.all(self.table == np.arange(n)))


@dataclass(frozen=True)
class DeviationClass:
    """Per-agent deviation collections: explicit tuples or the COMPLETE marker."""

    per_agent: tuple

    @classmethod
    def complete(cls, num_agents: int) -> "DeviationClass":
        return cls(tuple(COMPLETE for _ in range(num_agents)))

    @classmethod
    def identities(cls, game: MarkovGame) -> "DeviationClass":
        return cls(
            tuple((Deviation.identity(game, i),) for i in range(game.num_agents))
        )

    @classmethod
    def explicit(cls, game: MarkovGame, deviations) -> "DeviationClass":
        """Explicit finite classes from a flat list of deviations for any
        agents, grouped by ``dev.agent`` in list order; each agent's
        identity map is prepended when missing."""
        cols = [[] for _ in range(game.num_agents)]
        for d in deviations:
            if not 0 <= d.agent < game.num_agents:
                raise ValueError(f"deviation for agent {d.agent}: the game has agents "
                                 f"0..{game.num_agents - 1}")
            d.check_for(game)
            cols[d.agent].append(d)
        for i, devs in enumerate(cols):
            if not any(d.is_identity() for d in devs):
                devs.insert(0, Deviation.identity(game, i))
        return cls(tuple(tuple(devs) for devs in cols))

    @property
    def num_agents(self) -> int:
        return len(self.per_agent)

    def is_complete(self, agent: int) -> bool:
        return self.per_agent[agent] is COMPLETE

    def explicit_for(self, agent: int) -> tuple[Deviation, ...]:
        devs = self.per_agent[agent]
        if devs is COMPLETE:
            raise ValueError("agent has the COMPLETE class, not an explicit list")
        return devs

    def all_explicit(self) -> bool:
        return not any(self.per_agent[i] is COMPLETE for i in range(self.num_agents))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_game(game: MarkovGame) -> ValidationReport:
    """Check the probabilistic invariants; violations are data, not exceptions.

    Each check reads ``not (... <= tol)``, so a NaN or infinite entry fails it."""
    bad = []
    row_sums = game.transition.sum(axis=2)
    off = ~(np.abs(row_sums - 1.0) <= SIMPLEX_ATOL)
    for s, a in zip(*np.nonzero(off)):
        bad.append(f"transition row sum: state {game.states[s]} joint action {a} sums to {row_sums[s, a]:.12g}")
    if (game.transition < 0).any():
        bad.append("transition has negative entries")
    if not abs(game.initial_dist.sum() - 1.0) <= SIMPLEX_ATOL:
        bad.append(f"initial_dist sums to {game.initial_dist.sum():.12g}")
    if (game.initial_dist < 0).any():
        bad.append("initial_dist has negative entries")
    if not (np.abs(game.rewards) <= game.reward_bound + SIMPLEX_ATOL).all():
        bad.append(f"rewards exceed the declared bound {game.reward_bound}")
    return ValidationReport(ok=not bad, violations=tuple(bad))


def validate_policy(game: MarkovGame, policy: MediatorPolicy) -> ValidationReport:
    bad = []
    if policy.table.shape != (game.n_states, game.n_joint_actions):
        bad.append(
            f"policy shape {policy.table.shape} does not match game "
            f"({game.n_states}, {game.n_joint_actions})"
        )
        return ValidationReport(False, tuple(bad))
    sums = policy.table.sum(axis=1)
    for s in np.nonzero(~(np.abs(sums - 1.0) <= SIMPLEX_ATOL))[0]:
        bad.append(f"policy row for state {game.states[s]} sums to {sums[s]:.12g}")
    if (policy.table < 0).any():
        bad.append("policy has negative entries")
    return ValidationReport(ok=not bad, violations=tuple(bad))


def reachable_steps(game: MarkovGame) -> np.ndarray:
    """(H, S) bool: can state s be reached at step h under some play."""
    H, S = game.horizon, game.n_states
    reach = np.zeros((H, S), dtype=bool)
    reach[0] = game.initial_dist > 0
    step = (game.transition > 0).any(axis=1)   # (S, S') edge exists under some action
    for h in range(1, H):
        reach[h] = reach[h - 1] @ step
    return reach


# ---------------------------------------------------------------------------
# Induced joint behavior under a deviation
# ---------------------------------------------------------------------------


def _shift(game: MarkovGame, agent: int, maps: np.ndarray) -> np.ndarray:
    """Joint-index shift of each (..., s, a) cell under maps (..., S, n_i):
    the mass of (s, a) with own component j moves to the joint action that
    keeps everyone else's component and replaces j by maps[s, j]."""
    comp = game.agent_component(agent)
    return (maps[..., comp] - comp) * game.component_stride(agent)


def _push(shift: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Move each cell's mass of ``table``, broadcast to ``shift``, by its shift."""
    return _pusher(shift)(table)


def _pusher(shift: np.ndarray):
    """``_push(shift, .)`` with the flat bincount targets built once."""
    targets = (shift + np.arange(shift.size).reshape(shift.shape)).ravel()

    def push(table: np.ndarray) -> np.ndarray:
        # the table's cells once per leading cell of shift, as broadcasting lays them out
        weights = table.reshape(1, -1).repeat(targets.size // table.size, axis=0).ravel()
        return np.bincount(targets, weights=weights, minlength=targets.size).reshape(shift.shape)
    return push


def _push_index(game: MarkovGame, deviations: Sequence[Deviation], steps: bool = False):
    """The push through K deviations of any agents, built once: ``push(table)``
    gives the K deviated tables, (K, S, A), or (K, H, S, A) when ``steps`` (a
    per-step table) or a deviation is time-indexed."""
    steps = steps or any(dev.time_indexed for dev in deviations)
    shape = (len(deviations),) + (game.horizon,) * steps + (game.n_states, game.n_joint_actions)
    shift = np.empty(shape, dtype=np.int64)
    for k, dev in enumerate(deviations):
        dev.check_for(game)
        shift[k] = _shift(game, dev.agent, dev.table)
    return _pusher(shift)


def induced_joint_policy(game: MarkovGame, sigma: MediatorPolicy, deviation: Deviation) -> MediatorPolicy:
    """Joint behavior when one agent filters recommendations and others obey.

    Probability mass moves from each recommended joint action to the joint
    action with the deviating agent's component swapped; correlations with
    the other agents' recommendations are preserved.
    """
    deviation.check_for(game)
    if deviation.time_indexed:
        raise ValueError("time-indexed deviation: use induced_tables instead")
    if sigma.table.shape != (game.n_states, game.n_joint_actions):
        raise ValueError("policy shape does not match game")
    return MediatorPolicy(_push(_shift(game, deviation.agent, deviation.table), sigma.table))


def _policy_array(game: MarkovGame, policy) -> np.ndarray:
    """A policy-like input as its (S, A) or (H, S, A) array, shape-checked."""
    arr = policy.table if isinstance(policy, MediatorPolicy) else np.asarray(policy, dtype=np.float64)
    shape = (game.horizon, game.n_states, game.n_joint_actions)
    if arr.shape not in (shape, shape[1:]):
        raise ValueError(f"policy shape {arr.shape} does not match game {shape[1:]} or {shape}")
    return arr


def policy_tables(game: MarkovGame, policy) -> np.ndarray:
    """Normalize a policy-like input to per-step tables of shape (H, S, A).

    Accepts a MediatorPolicy, an (S, A) array (stationary), or an (H, S, A)
    array.  Stationary inputs are broadcast without copying.
    """
    arr = _policy_array(game, policy)
    return arr if arr.ndim == 3 else np.broadcast_to(arr, (game.horizon, *arr.shape))


def induced_tables(game: MarkovGame, policy, deviation: Deviation) -> np.ndarray:
    """Per-step (H, S, A) tables of the deviated joint behavior."""
    arr = _policy_array(game, policy)
    return policy_tables(game, _push_index(game, [deviation], arr.ndim == 3)(arr)[0])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemonstrationSet:
    """Trajectories sampled i.i.d. from a policy, stored as (n, H) index arrays."""

    states: np.ndarray
    actions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen_array(self.states, dtype=np.int64))
        object.__setattr__(self, "actions", _frozen_array(self.actions, dtype=np.int64))

    def __len__(self) -> int:
        return self.states.shape[0]

    def state_action_counts(self, game: MarkovGame) -> np.ndarray:
        """(S, A) visit counts over all steps of all trajectories."""
        flat = self.states.ravel() * game.n_joint_actions + self.actions.ravel()
        counts = np.bincount(flat, minlength=game.n_states * game.n_joint_actions)
        return counts.reshape(game.n_states, game.n_joint_actions).astype(np.float64)

    def state_counts(self, game: MarkovGame) -> np.ndarray:
        return np.bincount(self.states.ravel(), minlength=game.n_states).astype(np.float64)


def sample_demonstrations(game: MarkovGame, policy, n: int, seed) -> DemonstrationSet:
    """Roll out n i.i.d. length-H trajectories of the policy, vectorized over
    the n; reproducible by seed (an int, a SeedSequence or a Generator)."""
    if n < 1:
        raise ValueError("need at least one demonstration")
    rng = np.random.default_rng(seed)
    tables = policy_tables(game, policy)
    H = game.horizon
    states = np.empty((n, H), dtype=np.int64)
    actions = np.empty((n, H), dtype=np.int64)
    rho_cdf = np.cumsum(game.initial_dist)
    trans_cdf = np.cumsum(game.transition, axis=2)
    s = np.searchsorted(rho_cdf, rng.random(n), side="right")
    s = np.minimum(s, game.n_states - 1)
    for h in range(H):
        states[:, h] = s
        pi_cdf = np.cumsum(tables[h], axis=1)
        u = rng.random(n)
        a = (pi_cdf[s] < u[:, None]).sum(axis=1)
        a = np.minimum(a, game.n_joint_actions - 1)
        actions[:, h] = a
        if h + 1 < H:
            u = rng.random(n)
            s = (trans_cdf[s, a] < u[:, None]).sum(axis=1)
            s = np.minimum(s, game.n_states - 1)
    return DemonstrationSet(states, actions)


def with_common_reward(game: MarkovGame, reward_sa) -> MarkovGame:
    """Copy of the game where every agent shares the given (S, A) reward."""
    r = np.tile(np.asarray(reward_sa, dtype=np.float64), (game.num_agents, 1, 1))
    bound = max(game.reward_bound, float(np.abs(r).max(initial=0.0)))
    return dataclasses.replace(game, rewards=r, reward_bound=bound)
