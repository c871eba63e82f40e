"""JSON file formats for games, policies, deviations, and reports.

Game file keys: ``horizon``, ``num_agents``, ``states`` (names),
``actions`` (per-agent name arrays), ``initial_dist``, ``transitions``
with shape [state][joint_action][next_state], ``rewards`` with shape
[agent][state][joint_action], optional ``reward_bound``.  Joint actions
are flattened row-major by agent index, matching games.MarkovGame.

Policy file: ``{"table": ...}`` with shape [state][joint_action].

Each float array is written as one packed object, ``{"dtype": "<f8",
"shape": [...], "data": ...}``, where ``data`` is the base64 of the
array's little-endian float64 bytes in C order, so every number reads
back bit for bit.  Nested lists of numbers (the form for writing a small
game by hand) are read as well.  A file holds exactly the text
``json.dumps`` gives for its dict (``game_to_dict`` for a game), but the
writer puts each base64 payload into the file as bytes: the payload, 7 MB
at the desk cap, never passes through the JSON encoder or a str.

Deviation file: ``{"agent": i, "entries": [[state, recommended, played],
...]}``; omitted (state, recommended) pairs default to the identity.
Entries may use names or in-range integer indices; files are written
with names.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .games import Deviation, MarkovGame, MediatorPolicy

_DTYPE = "<f8"
_PIECE = 3 * 2**16   # bytes per base64 piece; a multiple of 3, so only the last piece pads


def _pack(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=_DTYPE)
    return {"dtype": _DTYPE, "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _unpack(value, field: str) -> np.ndarray:
    """A packed object or nested lists of numbers, as a float64 array."""
    if not isinstance(value, dict):
        return np.asarray(value, dtype=np.float64)
    if value.get("dtype") != _DTYPE:
        raise ValueError(f"{field}: dtype must be {_DTYPE!r}, got {value.get('dtype')!r}")
    shape = value.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{field}: shape must be a list of non-negative ints, got {shape!r}")
    try:
        raw = base64.b64decode(value.get("data"), validate=True)
    except (TypeError, ValueError) as exc:   # binascii.Error is a ValueError
        raise ValueError(f"{field}: data is not valid base64 ({exc})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{field}: {len(raw)} data bytes do not fit shape {shape}")
    return np.frombuffer(raw, dtype=_DTYPE).reshape(shape)   # read-only, so never copied again


def _read_object(path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the top level must be a JSON object, got {type(data).__name__}")
    return data


def _write_packed(obj: dict, path) -> Path:
    """Write ``json.dumps`` of ``obj`` with each array value packed.

    The text is the one ``json.dumps`` gives with ``_pack`` applied to every
    ndarray value of ``obj``, but each base64 payload goes to the file as the
    bytes ``b64encode`` returns, skipping the encoder's scan for characters to
    escape (base64 has none) and the round trip through a str.  It is encoded
    in pieces: ``b64encode`` of a whole array allocates twice its size at once.
    """
    parts = [b"{"]
    for k, (key, value) in enumerate(obj.items()):
        head = (", " if k else "") + json.dumps(key) + ": "
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value, dtype=_DTYPE)
            head += f'{{"dtype": "{_DTYPE}", "shape": {json.dumps(list(arr.shape))}, "data": "'
            raw = arr.reshape(-1).view(np.uint8)
            parts += [head.encode("ascii"), *np.split(raw, range(_PIECE, raw.size, _PIECE)), b'"}']
        else:
            parts.append((head + json.dumps(value)).encode("ascii"))
    parts.append(b"}")
    path = Path(path)
    with path.open("wb") as fh:
        fh.writelines(p if isinstance(p, bytes) else base64.b64encode(p) for p in parts)
    return path


def _game_fields(game: MarkovGame) -> dict:
    """A game file's top-level fields in file order, float arrays unpacked."""
    out = {
        "horizon": game.horizon,
        "num_agents": game.num_agents,
        "states": list(game.states),
        "actions": [list(acts) for acts in game.actions],
        "initial_dist": game.initial_dist,
        "transitions": game.transition,
        "rewards": game.rewards,
    }
    if game.reward_bound != 1.0:
        out["reward_bound"] = game.reward_bound
    return out


def game_to_dict(game: MarkovGame) -> dict:
    return {key: _pack(value) if isinstance(value, np.ndarray) else value
            for key, value in _game_fields(game).items()}


def _json_int(data: dict, field: str) -> int:
    value = data[field]
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def game_from_dict(data: dict) -> MarkovGame:
    states, actions = data["states"], data["actions"]
    if not isinstance(states, list):
        raise ValueError(f"states must be a JSON list of names, got {states!r}")
    if not (isinstance(actions, list) and all(isinstance(a, list) for a in actions)):
        raise ValueError(f"actions must be a JSON list of per-agent name lists, got {actions!r}")
    reward_bound = data.get("reward_bound", 1.0)
    if type(reward_bound) not in (int, float):     # a bool is an int, but not a JSON number
        raise ValueError(f"reward_bound must be a JSON number, got {reward_bound!r}")
    return MarkovGame(
        horizon=_json_int(data, "horizon"),
        num_agents=_json_int(data, "num_agents"),
        states=tuple(states),
        actions=tuple(tuple(a) for a in actions),
        transition=_unpack(data["transitions"], "transitions"),
        rewards=_unpack(data["rewards"], "rewards"),
        initial_dist=_unpack(data["initial_dist"], "initial_dist"),
        reward_bound=float(reward_bound),
    )


def save_game(game: MarkovGame, path) -> Path:
    return _write_packed(_game_fields(game), path)


def load_game(path) -> MarkovGame:
    return game_from_dict(_read_object(path))


def save_policy(policy: MediatorPolicy, path) -> Path:
    return _write_packed({"table": policy.table}, path)


def load_policy(path) -> MediatorPolicy:
    return MediatorPolicy(_unpack(_read_object(path)["table"], "table"))


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
    data = _read_object(path)
    try:
        return Deviation.from_entries(game, data.get("agent"), data.get("entries"),
                                      label=Path(path).stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_json(data: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return path


def load_json(path) -> dict:
    return _read_object(path)
