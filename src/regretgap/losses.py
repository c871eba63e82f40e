"""Convex imitation losses over per-state joint-action simplices, plus the
no-regret online loop, exponentiated gradient, that minimizes them.

Every loss is built from weighted total-variation terms
``sum_s w(s) * TV(target(s), sigma(s))`` and therefore lies in [0, 1] and
is convex in the policy table.  Max-of-components losses stay convex; a
valid subgradient is the subgradient of one achieving component, resolved
deterministically toward the lowest component index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .games import CoverageError, MediatorPolicy

SUPPORT_TOL = 1e-15


def _table(policy) -> np.ndarray:
    return policy.table if isinstance(policy, MediatorPolicy) else np.asarray(policy, dtype=np.float64)


def tv_rows(target: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-state total variation 0.5 * |target(s) - table(s)|_1, shape (S,)."""
    if table.shape != target.shape:     # a ValueError, not a numpy broadcast error
        raise ValueError(f"policy shape {table.shape} does not match target {target.shape}")
    return 0.5 * np.abs(target - table).sum(axis=1)


@dataclass(frozen=True)
class CompositeMaxLoss:
    """Pointwise max of state-weighted TV distances, one per (agent, deviation):
    ``weights`` is (K, S), one state distribution per component, and every
    component is measured against the same (S, A) ``target`` rows."""

    weights: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] == 0:
            raise ValueError("composite loss needs at least one component")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "target", np.asarray(self.target, dtype=np.float64))

    def component_values(self, policy) -> np.ndarray:
        """Each component's value from one shared TV row, one dot per weight
        row: einsum and gemv round differently in the last bit, and the
        achieving component is an argmax over these values."""
        tv = tv_rows(self.target, _table(policy))
        return np.array([float(w @ tv) for w in self.weights])

    def achieving(self, policy) -> int:
        """Index of the max component; the lowest index wins ties."""
        return int(np.argmax(self.component_values(policy)))

    def value(self, policy) -> float:
        return float(self.component_values(policy).max())

    def component_subgradient(self, k: int, policy) -> np.ndarray:
        """0.5 * w_k(s) * sign(sigma(a|s) - target(a|s)), with sign(0) = 0.

        sign(0) = 0 keeps exact fits as fixed points of gradient updates;
        any value in [-w/2, w/2] would be a valid subgradient there.
        """
        return 0.5 * self.weights[k][:, None] * np.sign(_table(policy) - self.target)

    def subgradient(self, policy) -> np.ndarray:
        return self.component_subgradient(self.achieving(policy), policy)


# ---------------------------------------------------------------------------
# Named losses
# ---------------------------------------------------------------------------


def weighted_tv_loss(target, policy, weights: np.ndarray) -> float:
    """sum_s w(s) * TV(target(s), policy(s)) with TV(p, q) = 0.5 * |p - q|_1."""
    w = np.asarray(weights, dtype=np.float64)
    tv = tv_rows(_table(target), _table(policy))
    if w.shape != tv.shape:
        raise ValueError(f"{w.size} weights for {tv.size} states")
    atol = 1e-9
    if w.min(initial=0.0) < -atol or abs(w.sum() - 1.0) > atol:
        raise ValueError("weights must form a probability distribution over states")
    return float(w @ tv)


def malice_components(expert, d_expert: np.ndarray,
                      deviated_dists: Sequence[np.ndarray]) -> CompositeMaxLoss:
    """Importance-weighted imitation loss, one component ``dev{k}`` per deviation.

    Each component is E_{s ~ d_expert}[ (d_dev(s)/d_expert(s)) * TV ], which
    collapses to the expectation under the deviated distribution; the ratio
    form requires expert coverage of every deviated state and fails loudly
    without it.
    """
    dists = np.asarray(deviated_dists, dtype=np.float64).reshape(-1, np.size(d_expert))
    return _malice_builder(expert, d_expert, [f"dev{k}" for k in range(len(dists))])(dists)


def _malice_builder(expert, d_expert: np.ndarray, labels: list):
    """``malice_components`` as a function of the (K, S) deviated distributions,
    with the states the expert never visits found once; MALICE queries no
    oracle, so ``round_index`` goes unused."""
    t = _table(expert)
    unvisited = np.nonzero(np.asarray(d_expert, dtype=np.float64) <= SUPPORT_TOL)[0]

    def build(dists: np.ndarray, round_index: int | None = None) -> CompositeMaxLoss:
        if unvisited.size and (bad := dists[:, unvisited] > SUPPORT_TOL).any():
            k = int(bad.any(axis=1).argmax())
            raise CoverageError(
                f"deviated distribution {labels[k]!r} puts mass on states the expert never "
                f"visits (states {unvisited[bad[k]].tolist()}); importance weights undefined"
            )
        return CompositeMaxLoss(dists, t)
    return build


def malice_loss(expert, policy, d_expert: np.ndarray, deviated_dists: Sequence[np.ndarray]) -> float:
    return malice_components(expert, d_expert, deviated_dists).value(policy)


def blades_components(oracle, deviated_dists: Sequence[np.ndarray],
                      round_index: int | None = None) -> CompositeMaxLoss:
    """On-distribution imitation loss with expert rows obtained by querying.

    The oracle is asked once per state with positive mass under any of the
    deviated distributions; rows of zero-mass states never matter and are
    left uniform.
    """
    dists = np.asarray(deviated_dists, dtype=np.float64)
    support = (dists > SUPPORT_TOL).any(axis=0)
    n_actions = oracle.n_joint_actions
    target = np.full((support.shape[0], n_actions), 1.0 / n_actions)
    for s in np.flatnonzero(support).tolist():
        target[s] = oracle.query(s, round_index=round_index)
    return CompositeMaxLoss(dists, target)


def blades_loss(oracle, policy, deviated_dists: Sequence[np.ndarray]) -> float:
    return blades_components(oracle, deviated_dists).value(policy)


# ---------------------------------------------------------------------------
# Online convex optimization on products of simplices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Rounds of the online loop; round n steps with sqrt(log(A) / n)."""

    rounds: int = 500
    seed: int = 0   # read by no learner, since training draws nothing; kept for callers that pass it

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one round")


@dataclass(frozen=True)
class OCORun:
    tables: np.ndarray      # (N, S, A) iterates sigma^(1..N)
    losses: np.ndarray      # (N,) loss of round n evaluated at sigma^(n)
    achieving: np.ndarray   # (N,) index of the achieving component per round
    step_sizes: np.ndarray  # (N,)

    @property
    def best_round(self) -> int:
        return int(np.argmin(self.losses))


def oco_run(loss_builder: Callable[[int, np.ndarray], CompositeMaxLoss],
            shape: tuple[int, int], config: TrainConfig,
            init: np.ndarray | None = None) -> OCORun:
    """Exponentiated gradient; round n sees loss_builder(n, sigma_n) at sigma_n.

    Iterates stay strictly inside the product of per-state simplices.  All
    iterates are returned so callers can pick the best one on validation
    data.
    """
    S, A = shape
    sigma = np.full((S, A), 1.0 / A) if init is None else np.asarray(init, dtype=np.float64).copy()
    N = config.rounds
    tables = np.empty((N, S, A))
    losses = np.empty(N)
    achieving = np.empty(N, dtype=np.int64)
    steps = np.sqrt(np.log(max(A, 2)) / np.arange(1, N + 1))
    for n, step in enumerate(steps.tolist(), start=1):
        loss = loss_builder(n, sigma)
        tables[n - 1] = sigma
        vals = loss.component_values(sigma)
        k = int(vals.argmax())
        achieving[n - 1] = k
        losses[n - 1] = float(vals[k])
        g = loss.component_subgradient(k, sigma)
        w = sigma * np.exp(-step * g)
        new = w / w.sum(axis=1, keepdims=True)
        untouched = (g == 0).all(axis=1)
        new[untouched] = sigma[untouched]  # zero subgradient rows stay bitwise fixed
        sigma = new
    return OCORun(tables=tables, losses=losses, achieving=achieving, step_sizes=steps)
