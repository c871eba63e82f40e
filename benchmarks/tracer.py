"""Span tracer that wraps the public functions of every regretgap module.

Each public function defined in a regretgap module is replaced, in every
module namespace that binds it, by a wrapper that records one span: name,
start, end, parent span and item id.  Replacing the module attributes is
what catches calls such as ``learners.induced_tables`` or
``evaluate.occupancy_bundle``, which the library looks up in its own module
namespaces.  Nothing under ``src/`` changes; ``uninstall`` restores the
original functions, so untraced items run exactly the library's code.

A few spans also add to exact counters, computed from argument shapes or
read from the objects the call used (see ``_HOOKS``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "regretgap"
LAYERS = ("games", "evaluate", "learners", "losses", "fixtures", "io", "cli", "harness")

F64 = 8  # bytes per float64 entry


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _transition_bytes(contractions_per_h, offset=0):
    """Counter hook: bytes of the (S, A, S) transition tensor read by a DP.

    A DP over H steps contracts the tensor ``contractions_per_h * H + offset``
    times; the count is computed from shapes and ignores caches.
    """

    def hook(count, args, kwargs, result):
        game = _arg(args, kwargs, 0, "game")
        S, A = game.n_states, game.n_joint_actions
        times = contractions_per_h * game.horizon + offset
        count("evaluate.transition_bytes", times * S * A * S * F64)

    return hook


def _pushforwards(count, args, kwargs, result):
    count("games.pushforwards", _arg(args, kwargs, 0, "game").horizon)


def _oco_rounds(count, args, kwargs, result):
    count("losses.oco_rounds", _arg(args, kwargs, 2, "config").rounds)


def _oracle_queries(count, args, kwargs, result):
    count("learners.oracle_queries", _arg(args, kwargs, 1, "oracle").query_count)


def _bytes_written(count, args, kwargs, result):
    count("io.bytes_written", os.path.getsize(result))


def _bytes_read(count, args, kwargs, result):
    count("io.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


_HOOKS = {
    "games.induced_tables": _pushforwards,
    "evaluate.occupancy_bundle": _transition_bytes(1, -1),
    "evaluate.value_functions": _transition_bytes(1),
    "evaluate.best_response_deviation": _transition_bytes(2),
    "losses.oco_run": _oco_rounds,
    "learners.blades_train": _oracle_queries,
}
for _name in ("save_game", "save_policy", "save_deviation", "save_json"):
    _HOOKS[f"io.{_name}"] = _bytes_written
for _name in ("load_game", "load_policy", "load_deviation", "load_json"):
    _HOOKS[f"io.{_name}"] = _bytes_read

# Counters whose values come from shapes rather than from the program.
COMPUTED = ("games.pushforwards", "evaluate.transition_bytes", "losses.oco_rounds")


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        self.spans: list[list] = []     # [name, start, end, parent index, item]
        self.counts: dict = defaultdict(Counter)   # item -> counter name -> total
        self.item = None
        self._stack: list[int] = []
        wrappers = {}
        self._patches = []              # (module, attribute, original, wrapper)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(name, obj)
                self._patches.append((module, attr, obj, wrappers[obj]))

    def _count(self, name: str, amount) -> None:
        self.counts[self.item][name] += int(amount)

    def _wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer._count, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """item -> span name -> (calls, self seconds).

        Self time is the span's duration minus the time its direct children
        cover; spans nest strictly because the load is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for k, (name, start, end, _, item) in enumerate(self.spans):
            cell = out[item][name]
            cell[0] += 1
            cell[1] += end - start - child[k]
        return out

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{item}\n")
