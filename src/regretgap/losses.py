"""Convex imitation losses over per-state joint-action simplices, plus a
no-regret online convex optimization loop to minimize them.

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
    return 0.5 * np.abs(target - table).sum(axis=1)


@dataclass(frozen=True)
class WeightedTVLoss:
    """State-weighted TV distance to fixed target rows.

    ``weights`` is a distribution over states; evaluation is in [0, 1].
    """

    weights: np.ndarray
    target: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=np.float64))

    def value(self, policy) -> float:
        return float(self.weights @ tv_rows(self.target, _table(policy)))

    def subgradient(self, policy) -> np.ndarray:
        """0.5 * w(s) * sign(sigma(a|s) - target(a|s)), with sign(0) = 0.

        sign(0) = 0 keeps exact fits as fixed points of gradient updates;
        any value in [-w/2, w/2] would be a valid subgradient there.
        """
        return 0.5 * self.weights[:, None] * np.sign(_table(policy) - self.target)


@dataclass(frozen=True)
class CompositeMaxLoss:
    """Pointwise max of weighted-TV components, one per (agent, deviation)."""

    components: tuple[WeightedTVLoss, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("composite loss needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    def component_values(self, policy) -> np.ndarray:
        """Each component's value; components sharing one target object
        share one per-state TV row."""
        t = _table(policy)
        tv: dict[int, np.ndarray] = {}
        for c in self.components:
            if id(c.target) not in tv:
                tv[id(c.target)] = tv_rows(c.target, t)
        return np.array([float(c.weights @ tv[id(c.target)]) for c in self.components])

    def achieving(self, policy) -> int:
        """Index of the max component; the lowest index wins ties."""
        return int(np.argmax(self.component_values(policy)))

    def value(self, policy) -> float:
        return float(self.component_values(policy).max())

    def subgradient(self, policy) -> np.ndarray:
        return self.components[self.achieving(policy)].subgradient(policy)


# ---------------------------------------------------------------------------
# Named losses
# ---------------------------------------------------------------------------


def weighted_tv_loss(target, policy, weights: np.ndarray, atol: float = 1e-9) -> float:
    """sum_s w(s) * TV(target(s), policy(s)) with TV(p, q) = 0.5 * |p - q|_1."""
    w = np.asarray(weights, dtype=np.float64)
    if w.min(initial=0.0) < -atol or abs(w.sum() - 1.0) > atol:
        raise ValueError("weights must form a probability distribution over states")
    return float(w @ tv_rows(_table(target), _table(policy)))


def _labels(labels, count: int) -> list:
    """One label per deviated distribution, ``dev{k}`` by default."""
    labels = [f"dev{k}" for k in range(count)] if labels is None else list(labels)
    if len(labels) != count:
        raise ValueError(f"{len(labels)} labels for {count} deviated distributions")
    return labels


def malice_components(expert, d_expert: np.ndarray, deviated_dists: Sequence[np.ndarray],
                      labels: Sequence[str] | None = None) -> CompositeMaxLoss:
    """Importance-weighted imitation loss, one component per deviation.

    Each component is E_{s ~ d_expert}[ (d_dev(s)/d_expert(s)) * TV ], which
    collapses to the expectation under the deviated distribution; the ratio
    form requires expert coverage of every deviated state and fails loudly
    without it.
    """
    t = _table(expert)
    dists = np.asarray(deviated_dists, dtype=np.float64).reshape(-1, np.size(d_expert))
    labels = _labels(labels, len(dists))
    bad = (dists > SUPPORT_TOL) & (np.asarray(d_expert, dtype=np.float64) <= SUPPORT_TOL)
    if bad.any():
        k = int(bad.any(axis=1).argmax())
        raise CoverageError(
            f"deviated distribution {labels[k]!r} puts mass on states the expert never "
            f"visits (states {np.nonzero(bad[k])[0].tolist()}); importance weights undefined"
        )
    return CompositeMaxLoss(tuple(WeightedTVLoss(weights=d, target=t, label=labels[k])
                                  for k, d in enumerate(dists)))


def malice_loss(expert, policy, d_expert: np.ndarray, deviated_dists: Sequence[np.ndarray],
                labels: Sequence[str] | None = None) -> float:
    return malice_components(expert, d_expert, deviated_dists, labels).value(policy)


def blades_components(oracle, deviated_dists: Sequence[np.ndarray],
                      labels: Sequence[str] | None = None,
                      round_index: int | None = None) -> CompositeMaxLoss:
    """On-distribution imitation loss with expert rows obtained by querying.

    The oracle is asked once per state with positive mass under any of the
    deviated distributions; rows of zero-mass states never matter and are
    left uniform.
    """
    dists = [np.asarray(d, dtype=np.float64) for d in deviated_dists]
    labels = _labels(labels, len(dists))
    support = np.zeros(dists[0].shape[0], dtype=bool)
    for d in dists:
        support |= d > SUPPORT_TOL
    n_actions = oracle.n_joint_actions
    target = np.full((support.shape[0], n_actions), 1.0 / n_actions)
    for s in np.nonzero(support)[0]:
        target[s] = oracle.query(int(s), round_index=round_index)
    comps = [WeightedTVLoss(weights=d, target=target, label=lab) for d, lab in zip(dists, labels)]
    return CompositeMaxLoss(tuple(comps))


def blades_loss(oracle, policy, deviated_dists: Sequence[np.ndarray],
                labels: Sequence[str] | None = None, round_index: int | None = None) -> float:
    return blades_components(oracle, deviated_dists, labels, round_index).value(policy)


# ---------------------------------------------------------------------------
# Online convex optimization on products of simplices
# ---------------------------------------------------------------------------


def default_step_size(n_actions: int) -> Callable[[int], float]:
    """Round-n learning rate sqrt(log(A) / n) for exponentiated gradient."""
    log_a = np.log(max(n_actions, 2))

    def eta(n: int) -> float:
        return float(np.sqrt(log_a / n))

    return eta


@dataclass(frozen=True)
class OCOConfig:
    """Rounds, update rule, and rate schedule for the online loop.

    rule: 'eg' exponentiated gradient (default; iterates stay strictly
    inside the simplex), 'pgd' projected subgradient descent (cross-check),
    or 'ftl' follow-the-leader via exact refit of aggregated targets (valid
    for losses whose components share per-state targets).
    """

    rounds: int
    rule: str = "eg"
    step_sizes: Callable[[int], float] | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one round")
        if self.rule not in ("eg", "pgd", "ftl"):
            raise ValueError(f"unknown OCO rule {self.rule!r}")

    def eta(self, n_actions: int) -> Callable[[int], float]:
        if self.step_sizes is not None:
            return self.step_sizes
        return default_step_size(n_actions)


def project_rows_to_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    S, A = x.shape
    u = np.sort(x, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, A + 1)
    cond = u - css / ks > 0
    rho = A - np.argmax(cond[:, ::-1], axis=1) - 1
    theta = css[np.arange(S), rho] / (rho + 1)
    return np.maximum(x - theta[:, None], 0.0)


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
            shape: tuple[int, int], config: OCOConfig,
            init: np.ndarray | None = None) -> OCORun:
    """Run the online loop; round n sees loss_builder(n, sigma_n) at sigma_n.

    Iterates live on the product of per-state simplices for every update
    rule.  All iterates are returned so callers can pick the best one on
    validation data.
    """
    S, A = shape
    sigma = np.full((S, A), 1.0 / A) if init is None else np.asarray(init, dtype=np.float64).copy()
    eta = config.eta(A)
    N = config.rounds
    tables = np.empty((N, S, A))
    losses = np.empty(N)
    achieving = np.empty(N, dtype=np.int64)
    steps = np.empty(N)
    agg_weight = np.zeros(S)
    agg_target = np.zeros((S, A))
    for n in range(1, N + 1):
        loss = loss_builder(n, sigma)
        tables[n - 1] = sigma
        vals = loss.component_values(sigma)
        k = int(np.argmax(vals))
        achieving[n - 1] = k
        losses[n - 1] = float(vals[k])
        step = eta(n)
        steps[n - 1] = step
        if config.rule in ("eg", "pgd"):
            g = loss.components[k].subgradient(sigma)
            if config.rule == "eg":
                w = sigma * np.exp(-step * g)
                new = w / w.sum(axis=1, keepdims=True)
            else:
                new = project_rows_to_simplex(sigma - step * g)
            untouched = (g == 0).all(axis=1)
            new[untouched] = sigma[untouched]  # zero subgradient rows stay bitwise fixed
            sigma = new
        else:  # ftl: refit every state seen so far to its (shared) target row
            for comp in loss.components:
                agg_weight += comp.weights
                agg_target = np.where(
                    (comp.weights > SUPPORT_TOL)[:, None], comp.target, agg_target
                )
            seen = agg_weight > SUPPORT_TOL
            sigma = sigma.copy()
            sigma[seen] = agg_target[seen]
    return OCORun(tables=tables, losses=losses, achieving=achieving, step_sizes=steps)
