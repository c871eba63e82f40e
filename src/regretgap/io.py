"""JSON file formats for games, policies, deviations, and reports.

Game file keys: ``horizon``, ``num_agents``, ``states`` (names),
``actions`` (per-agent name arrays), ``initial_dist``, ``transitions``
nested as [state][joint_action][next_state], ``rewards`` nested as
[agent][state][joint_action], optional ``reward_bound``.  Joint actions
are flattened row-major by agent index, matching games.MarkovGame.

Policy file: ``{"table": [[... per joint action ...] per state]}``.

Deviation file: ``{"agent": i, "entries": [[state, recommended, played],
...]}``; omitted (state, recommended) pairs default to the identity.
Entries may use names or integer indices; files are written with names.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .games import Deviation, MarkovGame, MediatorPolicy


def game_to_dict(game: MarkovGame) -> dict:
    out = {
        "horizon": game.horizon,
        "num_agents": game.num_agents,
        "states": list(game.states),
        "actions": [list(acts) for acts in game.actions],
        "initial_dist": game.initial_dist.tolist(),
        "transitions": game.transition.tolist(),
        "rewards": game.rewards.tolist(),
    }
    if game.reward_bound != 1.0:
        out["reward_bound"] = game.reward_bound
    return out


def game_from_dict(data: dict) -> MarkovGame:
    return MarkovGame(
        horizon=int(data["horizon"]),
        num_agents=int(data["num_agents"]),
        states=tuple(data["states"]),
        actions=tuple(tuple(a) for a in data["actions"]),
        transition=np.asarray(data["transitions"], dtype=np.float64),
        rewards=np.asarray(data["rewards"], dtype=np.float64),
        initial_dist=np.asarray(data["initial_dist"], dtype=np.float64),
        reward_bound=float(data.get("reward_bound", 1.0)),
    )


def save_game(game: MarkovGame, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(game_to_dict(game)))
    return path


def load_game(path) -> MarkovGame:
    return game_from_dict(json.loads(Path(path).read_text()))


def save_policy(policy: MediatorPolicy, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps({"table": policy.table.tolist()}))
    return path


def load_policy(path) -> MediatorPolicy:
    data = json.loads(Path(path).read_text())
    return MediatorPolicy(np.asarray(data["table"], dtype=np.float64))


def save_deviation(dev: Deviation, game: MarkovGame, path) -> Path:
    """Write a stationary deviation as sparse non-identity entries."""
    if dev.time_indexed:
        raise ValueError("the deviation file format holds stationary maps only")
    entries = []
    for s in range(game.n_states):
        for rec in range(game.action_counts[dev.agent]):
            played = int(dev.table[s, rec])
            if played != rec:
                entries.append([
                    game.states[s],
                    game.actions[dev.agent][rec],
                    game.actions[dev.agent][played],
                ])
    path = Path(path)
    path.write_text(json.dumps({"agent": dev.agent, "entries": entries}))
    return path


def load_deviation(path, game: MarkovGame) -> Deviation:
    data = json.loads(Path(path).read_text())
    return Deviation.from_entries(game, int(data["agent"]), data["entries"], label=Path(path).stem)


def save_json(data: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return path


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
