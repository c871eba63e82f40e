"""The four benchmark workloads.

Each workload builds a fixed cycle of item specs from the seed (``setup``),
runs one item under the timer (``run``), optionally reads results the item
left on disk outside the timer (``collect``), and checks an item's output
(``check``, which raises ``CheckFailed``).  Items repeat in cycles; outputs with
equal ``digest`` are checked once.

Sizes that set an item's cost are stratified rather than drawn freely, so
every seed gives the same amount of work per cycle and runs with different
seeds stay comparable; the seed draws the game contents and parameters.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from regretgap import cli, evaluate, fixtures, games, learners, losses


class CheckFailed(AssertionError):
    """An item's output broke the closed form or identity it must satisfy."""


def _close(measured, expected, tol, what):
    if not abs(float(measured) - float(expected)) <= tol:
        raise CheckFailed(f"{what}: measured {measured!r}, expected {expected!r} (tol {tol:g})")


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class Workload:
    name: str
    params: dict
    warmup: int                          # leading items of the cycle run untimed in setup
    cycle: list = field(default_factory=list)

    def collect(self, spec, raw):
        return raw


# ---------------------------------------------------------------------------
# train-small: the learner loop on property-suite-sized games
# ---------------------------------------------------------------------------


class TrainSmall(Workload):
    """malice_train, blades_train and j_irl on seeded full-coverage games.

    Round counts are chosen so the three learners cost about the same per
    item, which keeps the latency distribution single-moded.
    """

    def __init__(self, tiny: bool):
        sizes = [(3, 3), (4, 4)] if tiny else [(s, h) for s in range(3, 7) for h in range(3, 7)]
        rounds = {"malice": 5, "blades": 5, "jirl": 30} if tiny else \
            {"malice": 50, "blades": 50, "jirl": 300}
        super().__init__("train-small", {
            "games": len(sizes), "states": sorted({s for s, _ in sizes}),
            "horizons": sorted({h for _, h in sizes}), "actions_per_agent": [2, 3],
            "deviations_per_agent": 4, "demos": 200, "rounds": rounds,
            "density_mode": "exact", "bound_slack": 1e-6,
        }, warmup=3)
        self.sizes = sizes
        self.rounds = rounds
        self._u = {}

    def setup(self, seed: int) -> None:
        rng = _rng(seed, 0)
        action_pairs = [(2, 2), (2, 3), (3, 2), (3, 3)]
        self._u = {}
        self.cycle = []
        for k in rng.permutation(len(self.sizes)):
            n_states, horizon = self.sizes[k]
            # each (states, horizon) row of the grid meets every action pair once
            counts = action_pairs[(k + n_states) % len(action_pairs)]
            g_rng = _rng(seed, 1, int(k))
            fx = fixtures.random_mg(g_rng, n_states=n_states, horizon=horizon,
                                    action_counts=counts, full_coverage_expert=True)
            phi = fixtures.random_deviation_class(fx.game, per_agent=4, seed=g_rng)
            demos = games.sample_demonstrations(fx.game, fx.expert, 200, seed=g_rng)
            game_id = len(self.cycle) // 3
            for algo in ("malice", "blades", "jirl"):
                self.cycle.append({"game_id": game_id, "algo": algo, "fx": fx, "phi": phi,
                                   "demos": demos, "seed": int(k)})

    def run(self, spec):
        fx, phi = spec["fx"], spec["phi"]
        cfg = learners.TrainConfig(rounds=self.rounds[spec["algo"]], seed=spec["seed"])
        if spec["algo"] == "malice":
            return learners.malice_train(fx.game, fx.expert, phi, cfg)
        if spec["algo"] == "blades":
            oracle = learners.ExpertOracle(fx.expert)
            return learners.blades_train(fx.game, oracle, spec["demos"], phi, cfg)
        return learners.j_irl(fx.game, fx.expert, rounds=self.rounds["jirl"])

    def digest(self, out):
        if isinstance(out, learners.JIRLResult):
            return (out.policy.table.tobytes(), out.final_error, out.rounds_run)
        return (out.policy.table.tobytes(), out.final_loss, out.best_round, out.query_count)

    def check(self, spec, out):
        fx, phi = spec["fx"], spec["phi"]
        game, expert, H = fx.game, fx.expert, fx.game.horizon
        if spec["algo"] == "jirl":
            err = evaluate.moment_matching_error(game, expert, out.policy)
            _close(out.final_error, err, 1e-12, "j_irl final_error vs moment_matching_error")
            return
        devs = [dev for i in range(game.num_agents) for dev in phi.explicit_for(i)]
        dists = [evaluate.state_density(game, games.induced_tables(game, out.policy, dev))
                 for dev in devs]
        if spec["algo"] == "malice":
            d_expert = evaluate.state_density(game, expert)
            loss = losses.malice_components(expert, d_expert, dists)
        else:
            n_rounds = self.rounds["blades"]
            if not 1 <= out.query_count <= n_rounds * game.n_states:
                raise CheckFailed(f"blades made {out.query_count} queries, outside "
                                  f"[1, {n_rounds} * {game.n_states}]")
            loss = losses.blades_components(learners.ExpertOracle(expert), dists)
        _close(out.final_loss, loss.value(out.policy), 1e-12, "final_loss vs recomputed loss")
        if spec["game_id"] not in self._u:
            self._u[spec["game_id"]] = evaluate.recoverability_constant(game, expert, phi)
        bound = 2 * out.final_loss * self._u[spec["game_id"]] * H + 1e-6
        gap = evaluate.regret_gap(game, expert, out.policy, phi)
        if not gap <= bound:
            raise CheckFailed(f"regret gap {gap!r} exceeds 2*eps*u*H bound {bound!r}")


# ---------------------------------------------------------------------------
# eval-desk: evaluate_pair at the desk cap
# ---------------------------------------------------------------------------


class EvalDesk(Workload):
    """In-memory evaluate_pair on 200 states, 6 x 6 joint actions, H = 10.

    Every item resolves one agent through the COMPLETE class (best-response
    DP) and the other through 8 explicit deviations, alternating which agent
    gets which.  An alternation of whole-COMPLETE and whole-explicit items
    would split the items into two equal modes about 250 ms apart, and the
    median would then jump with the parity of the item count.
    """

    def __init__(self, tiny: bool):
        self.n_states, self.horizon, self.actions = (20, 4, (3, 3)) if tiny else (200, 10, (6, 6))
        super().__init__("eval-desk", {
            "games": 2, "states": self.n_states, "horizon": self.horizon,
            "action_counts": list(self.actions), "explicit_deviations_per_agent": 8,
        }, warmup=2)

    def setup(self, seed: int) -> None:
        self.cycle = []
        for g in range(2):
            rng = _rng(seed, g)
            fx = fixtures.random_mg(rng, n_states=self.n_states, horizon=self.horizon,
                                    action_counts=self.actions, full_coverage_expert=True)
            explicit = fixtures.random_deviation_class(fx.game, per_agent=8, seed=rng).per_agent
            for complete_agent in (0, 1):
                per_agent = tuple(games.COMPLETE if i == complete_agent else explicit[i]
                                  for i in range(2))
                self.cycle.append({"fx": fx, "deviations": games.DeviationClass(per_agent)})

    def run(self, spec):
        fx = spec["fx"]
        return evaluate.evaluate_pair(fx.game, fx.expert, fx.learner, spec["deviations"])

    def digest(self, out):
        return json.dumps(out.to_json_dict(), sort_keys=True)

    def check(self, spec, out):
        fx, phi = spec["fx"], spec["deviations"]
        game, H = fx.game, fx.game.horizon
        for tag, sigma, vals, rep in (
                ("expert", fx.expert, out.values_expert, out.regret_expert),
                ("learner", fx.learner, out.values_learner, out.regret_learner)):
            occ = evaluate.occupancy_bundle(game, sigma).avg_joint
            obedient = []
            for i in range(game.num_agents):
                forward = H * float((occ * game.rewards[i]).sum())
                _close(vals[i], forward, 1e-9, f"{tag} backward value vs forward occupancy, agent {i}")
                obedient.append(evaluate.value(game, sigma, i))
            expected_devs = []
            for i in range(game.num_agents):
                if phi.is_complete(i):
                    expected_devs.append(evaluate.best_response_deviation(game, sigma, i).deviation)
                else:
                    expected_devs.extend(phi.explicit_for(i))
            if len(expected_devs) != len(rep.gains):
                raise CheckFailed(f"{tag}: {len(rep.gains)} gains for {len(expected_devs)} deviations")
            for g, dev in zip(rep.gains, expected_devs):
                deviated = evaluate.value(game, games.induced_tables(game, sigma, dev), dev.agent)
                _close(g.gain, deviated - obedient[dev.agent], 1e-9,
                       f"{tag} gain of {g.label} vs induced play")
            _close(rep.regret, max(g.gain for g in rep.gains), 0.0, f"{tag} regret vs max gain")
        _close(out.regret_gap, out.regret_learner.regret - out.regret_expert.regret, 1e-12,
               "regret_gap vs learner minus expert regret")


# ---------------------------------------------------------------------------
# verify-pinned: many tiny closed-form checks
# ---------------------------------------------------------------------------

COMPLETE2 = games.DeviationClass.complete(2)


def _stratified(rng, lo, hi, n):
    """n draws from [lo, hi), one from each of n equal-width bins, shuffled."""
    edges = np.linspace(lo, hi, n + 1)
    return rng.permutation(edges[:-1] + rng.random(n) * np.diff(edges))


class VerifyPinned(Workload):
    """Closed-form checks built from fixtures; each item builds its fixture."""

    def __init__(self, tiny: bool):
        self.fig1_h = range(4, 9) if tiny else range(4, 33)
        self.per_kind = {"sweep": 8, "coverage-lb": 2, "alice-lb": 2, "nfg": 1, "br-oracle": 2} \
            if tiny else {"sweep": 40, "coverage-lb": 8, "alice-lb": 8, "nfg": 4, "br-oracle": 9}
        super().__init__("verify-pinned", {
            "fig1_horizons": [self.fig1_h.start, self.fig1_h.stop - 1],
            "items_per_cycle": {"fig1": len(self.fig1_h), **self.per_kind},
            "sweep_horizons": [4, 8], "coverage_lb_horizons": [6, 24],
            "alice_lb_horizons": [4, 24], "br_layer_sizes": [1, 3], "tolerance": 1e-9,
        }, warmup=0)

    def setup(self, seed: int) -> None:
        rng = _rng(seed, 0)
        n = self.per_kind
        items = [{"kind": "fig1", "H": int(H)} for H in self.fig1_h]
        for k, H in enumerate(np.resize(np.arange(4, 9), n["sweep"])):
            S, A = 2 * int(H) - 1, 9
            # half the cells sit on the learner's path (even states, joint action 0)
            if k % 2 == 0:
                cell = (2 * int(rng.integers(0, H)), 0)
            else:
                cell = (int(rng.integers(0, S)), int(rng.integers(1, A)))
            items.append({"kind": "sweep", "H": int(H), "cell": cell})
        for H in _stratified(rng, 6, 25, n["coverage-lb"]):
            H = int(H)
            beta = float(rng.uniform(0.02, 0.25))
            items.append({"kind": "coverage-lb", "H": H, "u": float(rng.uniform(3, H)),
                          "beta": beta, "eps": beta / H * float(rng.uniform(0.1, 1.0))})
        for H in _stratified(rng, 4, 25, n["alice-lb"]):
            H = int(H)
            beta = float(rng.uniform(0.05, 0.5))
            items.append({"kind": "alice-lb", "H": H, "u": float(rng.uniform(2, H)),
                          "beta": beta, "eps": (1 - beta) / H * float(rng.uniform(0.1, 1.0))})
        items += [{"kind": "nfg"} for _ in range(n["nfg"])]
        layer_pairs = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        for k in range(n["br-oracle"]):
            items.append({"kind": "br-oracle", "sizes": layer_pairs[k % len(layer_pairs)],
                          "game_seed": int(rng.integers(2**31))})
        self.cycle = [items[k] for k in rng.permutation(len(items))]
        self.warmup = min(len(self.cycle), 40)

    def run(self, spec):
        kind = spec["kind"]
        if kind == "fig1":
            fx = fixtures.fig1_game(spec["H"])
            return (evaluate.regret_gap(fx.game, fx.expert, fx.learner, COMPLETE2),
                    evaluate.moment_matching_error(fx.game, fx.expert, fx.learner))
        if kind == "sweep":
            fx = fixtures.fig1_game(spec["H"])
            f = np.zeros((fx.game.n_states, fx.game.n_joint_actions))
            f[spec["cell"]] = -1.0
            g2 = games.with_common_reward(fx.game, f)
            return (evaluate.value_gap(g2, fx.expert, fx.learner),
                    evaluate.regret(g2, fx.learner, COMPLETE2))
        if kind in ("coverage-lb", "alice-lb"):
            build = fixtures.coverage_lb_game if kind == "coverage-lb" else fixtures.alice_lb_game
            fx = build(spec["H"], spec["u"], spec["beta"], spec["eps"])
            phi = fx.witness_class()
            return (evaluate.regret_gap(fx.game, fx.expert, fx.learner, phi),
                    evaluate.value_gap(fx.game, fx.expert, fx.learner),
                    evaluate.moment_matching_error(fx.game, fx.expert, fx.learner))
        if kind == "nfg":
            out = []
            for fx in fixtures.multi_ce_nfg():
                out += [evaluate.regret(fx.game, fx.expert, COMPLETE2),
                        evaluate.regret(fx.game, fx.learner, COMPLETE2),
                        float(evaluate.values(fx.game, fx.expert)[0]),
                        float(evaluate.values(fx.game, fx.learner)[0])]
            return tuple(out)
        sizes = spec["sizes"]
        fx = fixtures.random_mg(spec["game_seed"], n_states=sum(sizes), horizon=2,
                                action_counts=(2, 2), layered=True, layer_sizes=sizes)
        return tuple((evaluate.best_response_deviation(fx.game, fx.expert, i).gain,
                      evaluate.enumerate_stationary_best_response(fx.game, fx.expert, i).gain)
                     for i in range(2))

    def digest(self, out):
        return repr(out)

    def check(self, spec, out):
        kind, tol = spec["kind"], 1e-9
        if kind == "fig1":
            _close(out[0], spec["H"] - 2, tol, f"fig1(H={spec['H']}) regret gap")
            _close(out[1], 0.0, tol, f"fig1(H={spec['H']}) occupancy L1")
        elif kind == "sweep":
            s, a = spec["cell"]
            # the learner walks the bottom chain s0, s2, ..., s_{2H-2} on joint action 0,
            # so H * rho(s, a) is 1 on that path and 0 elsewhere
            on_path = s % 2 == 0 and a == 0
            _close(out[0], 0.0, tol, f"sweep {spec['cell']} value gap")
            _close(out[1], 1.0 if on_path else 0.0, tol, f"sweep {spec['cell']} regret vs H*rho")
        elif kind == "coverage-lb":
            H, beta, eps = spec["H"], spec["beta"], spec["eps"]
            gap = eps * H / (2 * beta) * (math.floor(spec["u"]) - 2)
            for got, want, what in zip(out, (gap, 0.0, 2 * eps), ("regret gap", "value gap", "moment")):
                _close(got, want, tol, f"coverage-lb {what}")
        elif kind == "alice-lb":
            H, eps = spec["H"], spec["eps"]
            gap = eps * H * (math.floor(spec["u"]) - 1)
            for got, want, what in zip(out, (gap, gap, 2 * H * eps), ("regret gap", "value gap", "moment")):
                _close(got, want, tol, f"alice-lb {what}")
        elif kind == "nfg":
            # regrets 0 for both policies; values 1 and 2/3 under r, 1 and 1/2 under r'
            for got, want in zip(out, (0.0, 0.0, 1.0, 2 / 3, 0.0, 0.0, 1.0, 0.5)):
                _close(got, want, tol, "multi-ce-nfg")
        else:
            for i, (dp, bf) in enumerate(out):
                _close(dp, bf, tol, f"br-oracle {spec['sizes']} agent {i} DP vs brute force")


# ---------------------------------------------------------------------------
# cli-desk: gen then eval through the command line, in process
# ---------------------------------------------------------------------------


class CliDesk(Workload):
    """``regretgap gen`` of a random desk-size game, then ``regretgap eval``."""

    AGENTS = 4

    def __init__(self, tiny: bool, workdir: Path):
        self.n_states, self.horizon = (20, 4) if tiny else (200, 10)
        self.workdir = workdir
        super().__init__("cli-desk", {
            "states": self.n_states, "agents": self.AGENTS, "horizon": self.horizon,
            "deviations": "complete", "games": 4,
        }, warmup=1)

    def setup(self, seed: int) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, 0)
        self.cycle = [{"game_seed": int(s)} for s in rng.integers(0, 2**31, size=4)]

    def run(self, spec):
        d = self.workdir
        with contextlib.redirect_stdout(_stdio.StringIO()):
            rc_gen = cli.main(["gen", "--name", "random", "--states", str(self.n_states),
                               "--agents", str(self.AGENTS), "--horizon", str(self.horizon),
                               "--seed", str(spec["game_seed"]), "--out", str(d)])
            rc_eval = cli.main(["eval", "--game", str(d / "game.json"),
                                "--expert", str(d / "expert.json"),
                                "--learner", str(d / "learner.json"),
                                "--out-json", str(d / "report.json"),
                                "--out-csv", str(d / "report.csv")])
        return rc_gen, rc_eval

    def collect(self, spec, raw):
        report = json.loads((self.workdir / "report.json").read_text()) if raw == (0, 0) else None
        return raw, report

    def digest(self, out):
        return json.dumps(out, sort_keys=True)

    def check(self, spec, out):
        codes, report = out
        if codes != (0, 0):
            raise CheckFailed(f"exit codes gen={codes[0]} eval={codes[1]}")
        # the same game `gen --name random` writes, built in memory
        fx = fixtures.random_mg(spec["game_seed"], n_states=self.n_states, horizon=self.horizon,
                                action_counts=(2,) * self.AGENTS, full_coverage_expert=True)
        want = evaluate.evaluate_pair(fx.game, fx.expert, fx.learner,
                                      games.DeviationClass.complete(self.AGENTS)).to_json_dict()
        _same_json(report, want, 1e-12, "report")


def _same_json(got, want, tol, where):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise CheckFailed(f"{where}: keys differ")
        for key in want:
            _same_json(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{where}: lengths differ")
        for k, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, tol, f"{where}[{k}]")
    elif isinstance(want, bool) or isinstance(want, str):
        if got != want:
            raise CheckFailed(f"{where}: {got!r} != {want!r}")
    else:
        _close(got, want, tol, where)


def make(name: str, tiny: bool, workdir: Path) -> Workload:
    if name == "train-small":
        return TrainSmall(tiny)
    if name == "eval-desk":
        return EvalDesk(tiny)
    if name == "verify-pinned":
        return VerifyPinned(tiny)
    if name == "cli-desk":
        return CliDesk(tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")

