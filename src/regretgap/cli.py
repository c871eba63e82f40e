"""Command-line harness: gen, eval, train, verify, sweep.

Exit codes: 0 all checks passed, 1 check failure, 2 usage or config error,
3 assumption violation (an importance weight needed expert density that is
zero; a sweep exits 3 when such cells are its only failures).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import io
from .evaluate import evaluate_pair, occupancy_bundle, regret_gap, value_gap
from .fixtures import FIXTURES, _check_params, multi_ce_nfg, random_mg
from .games import (
    CoverageError,
    DeviationClass,
    sample_demonstrations,
    validate_game,
    validate_policy,
)
from .harness import ReportRow, run_suite, run_sweep, write_rows
from .learners import ExpertOracle, TrainConfig, blades_train, j_bc, j_irl, malice_train
from .losses import weighted_tv_loss

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ASSUMPTION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretgap",
        description="Generate, evaluate, train, and verify mediator policies on tabular Markov games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a named fixture's files to a directory")
    p_gen.add_argument("--name", required=True, choices=(*FIXTURES, "multi-ce-nfg", "random"))
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--horizon", type=int, default=None)
    p_gen.add_argument("--u", type=float, default=None)
    p_gen.add_argument("--beta", type=float, default=None)
    p_gen.add_argument("--eps", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--states", type=int, default=None)
    p_gen.add_argument("--agents", type=int, default=None)
    p_gen.set_defaults(run=_cmd_gen)

    p_eval = sub.add_parser("eval", help="evaluate an expert/learner pair")
    p_eval.add_argument("--game", required=True)
    p_eval.add_argument("--expert", required=True)
    p_eval.add_argument("--learner", required=True)
    p_eval.add_argument("--deviations", choices=("complete", "file"), default="complete")
    p_eval.add_argument("--deviation-file", action="append", default=[])
    p_eval.add_argument("--out-json", default=None)
    p_eval.add_argument("--out-csv", default=None)
    p_eval.set_defaults(run=_cmd_eval)

    p_train = sub.add_parser("train", help="train a mediator policy")
    p_train.add_argument("--algo", required=True, choices=("jbc", "jirl", "malice", "blades"))
    p_train.add_argument("--game", required=True)
    p_train.add_argument("--expert", required=True,
                         help="expert policy file; held by the harness, learners see it only "
                              "through densities, demonstrations, or oracle queries")
    p_train.add_argument("--deviation-file", action="append", default=[])
    p_train.add_argument("--rounds", type=int, default=None,
                         help="jirl, malice and blades (default 500)")
    p_train.add_argument("--demos", type=int, default=None, help="blades only (default 200)")
    p_train.add_argument("--seed", type=int, default=None, help="blades only (default 0)")
    p_train.add_argument("--fill-rule", default=None, help="jbc only (default uniform)",
                         choices=("uniform", "adversarial-worst-case"))
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(run=_cmd_train)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(run=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="grid sweep from a JSON config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(run=_cmd_sweep)

    return parser


def _random_fixture(seed: int = 0, states: int = 4, agents: int = 2, horizon: int = 4):
    return random_mg(seed, n_states=states, horizon=horizon, action_counts=(2,) * agents,
                     full_coverage_expert=True)


def _cmd_gen(args) -> int:
    out = Path(args.out)
    name = args.name
    builder = {**FIXTURES, "multi-ce-nfg": multi_ce_nfg, "random": _random_fixture}[name]
    params = {k: v for k, v in vars(args).items()
              if k in ("horizon", "u", "beta", "eps", "seed", "states", "agents") and v is not None}
    _check_params(name, builder, params)
    written = []
    if name == "multi-ce-nfg":
        fx_r, fx_rp = multi_ce_nfg()
        out.mkdir(parents=True, exist_ok=True)
        written.append(io.save_game(fx_r.game, out / "game_r.json"))
        written.append(io.save_game(fx_rp.game, out / "game_rprime.json"))
        written.append(io.save_policy(fx_r.expert, out / "expert.json"))
        written.append(io.save_policy(fx_r.learner, out / "learner.json"))
        written.append(io.save_json({"r": fx_r.expected, "rprime": fx_rp.expected},
                                    out / "expected.json"))
    else:
        fx = builder(**params)
        out.mkdir(parents=True, exist_ok=True)
        written.append(io.save_game(fx.game, out / "game.json"))
        written.append(io.save_policy(fx.expert, out / "expert.json"))
        written.append(io.save_policy(fx.learner, out / "learner.json"))
        for k, dev in enumerate(fx.witness_deviations):
            written.append(io.save_deviation(dev, fx.game, out / f"deviation_{k}.json"))
        written.append(io.save_json({"expected": fx.expected, "params": fx.params,
                                     "notes": fx.notes}, out / "expected.json"))
    for p in written:
        print(p)
    return EXIT_OK


def _report_violations(tag: str, report) -> bool:
    for v in report.violations:
        print(f"{tag} validation: {v}", file=sys.stderr)
    return not report.ok


def _load_inputs(args, *policy_args):
    """Read and validate --game and the named policy options.

    Prints the violations of the first invalid input and returns None;
    otherwise returns (game, *policies).
    """
    game = io.load_game(args.game)
    if _report_violations("game", validate_game(game)):
        return None
    policies = [io.load_policy(getattr(args, name)) for name in policy_args]
    if any(_report_violations(name, validate_policy(game, pol))
           for name, pol in zip(policy_args, policies)):
        return None
    return (game, *policies)


def _explicit_class(game, paths) -> DeviationClass:
    return DeviationClass.explicit(game, [io.load_deviation(path, game) for path in paths])


def _cmd_eval(args) -> int:
    if args.deviation_file and args.deviations != "file":
        raise ValueError("--deviation-file is read only with --deviations file")
    loaded = _load_inputs(args, "expert", "learner")
    if loaded is None:
        return EXIT_CHECK_FAILED
    game, expert, learner = loaded
    if args.deviations == "complete":
        deviations = DeviationClass.complete(game.num_agents)
    elif not args.deviation_file:
        raise ValueError("--deviations file needs at least one --deviation-file")
    else:
        deviations = _explicit_class(game, args.deviation_file)
    t0 = time.perf_counter()
    result = evaluate_pair(game, expert, learner, deviations)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    if args.out_json:
        io.save_json(result.to_json_dict(), args.out_json)
    row = ReportRow(
        suite="eval", fixture=Path(args.game).stem, H=game.horizon, m=game.num_agents,
        beta=result.beta, u=result.u, value_gap=result.value_gap,
        regret_gap=result.regret_gap, measured=result.regret_gap, passed=True,
        runtime_ms=runtime_ms, exact=result.exact,
    )
    if args.out_csv:
        write_rows(args.out_csv, [row])
    print(json.dumps(result.to_json_dict()))
    return EXIT_OK


def _cmd_train(args) -> int:
    unread = (("--fill-rule", args.fill_rule, ("jbc",)), ("--demos", args.demos, ("blades",)),
              ("--rounds", args.rounds, ("jirl", "malice", "blades")),
              ("--seed", args.seed, ("blades",)))
    for flag, value, algos in unread:
        if value is not None and args.algo not in algos:
            raise ValueError(f"{flag} is read only with --algo {' or '.join(algos)}")
    rounds = 500 if args.rounds is None else args.rounds
    seed = 0 if args.seed is None else args.seed
    loaded = _load_inputs(args, "expert")
    if loaded is None:
        return EXIT_CHECK_FAILED
    game, expert = loaded
    if args.deviation_file:
        phi = _explicit_class(game, args.deviation_file)
    else:   # regret_gap is then 0.0 by construction: no agent can deviate
        phi = DeviationClass.identities(game)
    summary: dict = {"algo": args.algo}
    if args.algo != "jbc":
        summary["rounds"] = rounds
    if args.algo == "blades":
        summary["seed"] = seed
    summary["deviation_class"] = [Path(p).stem for p in args.deviation_file] or "identities"
    trace, queries = (), None
    if args.algo == "jbc":
        policy = j_bc(game, expert=expert, fill_rule=args.fill_rule or "uniform", deviations=phi)
        summary["final_loss"] = weighted_tv_loss(expert, policy,
                                                 occupancy_bundle(game, expert).avg_state)
    elif args.algo == "jirl":
        res = j_irl(game, expert, rounds=rounds)
        policy = res.policy
        summary.update(final_loss=res.final_error, best_round=res.best_round,
                       rounds_run=res.rounds_run)
    else:
        cfg = TrainConfig(rounds=rounds)
        if args.algo == "malice":
            res = malice_train(game, expert, phi, cfg)
        else:
            demos = sample_demonstrations(game, expert, 200 if args.demos is None else args.demos,
                                          seed=seed)
            res = blades_train(game, ExpertOracle(expert), demos, phi, cfg)
        policy, trace = res.policy, res.trace
        summary.update(final_loss=res.final_loss, best_round=res.best_round)
        if args.algo == "blades":
            summary["query_count"], queries = res.query_count, res.query_log
    summary["value_gap"] = value_gap(game, expert, policy)
    summary["regret_gap"] = regret_gap(game, expert, policy, phi)
    out = Path(args.out)     # created only once there is a policy to write
    out.mkdir(parents=True, exist_ok=True)
    if queries is not None:
        with open(out / "queries.jsonl", "w") as fh:
            for entry in queries:
                fh.write(json.dumps(entry) + "\n")
    io.save_policy(policy, out / "policy.json")
    if trace:
        with open(out / "trace.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")   # quotes a label that holds a comma
            writer.writerow(["round", "loss", "achieving_agent", "achieving_deviation", "step_size"])
            writer.writerows((row.round, row.loss, row.achieving_agent, row.achieving_deviation,
                              row.step_size) for row in trace)
    io.save_json(summary, out / "summary.json")
    print(json.dumps(summary))
    return EXIT_OK


def _cmd_verify(args) -> int:
    rows = run_suite(args.suite)     # an unknown name is a KeyError: main exits 2
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.suite} :: {row.fixture} "
              f"(measured={row.measured}, expected={row.expected}, bound={row.bound})")
    if args.out:
        write_rows(args.out, rows)
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    config = io.load_json(args.config)
    rows, summary = run_sweep(config)
    out = config.get("out", "sweep.csv")
    write_rows(out, rows)
    summary_path = Path(out).with_suffix(".summary.json")
    io.save_json(summary, summary_path)
    print(json.dumps(summary))
    if summary["failed"] > summary["assumption_violations"]:
        return EXIT_CHECK_FAILED
    return EXIT_ASSUMPTION if summary["assumption_violations"] else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except CoverageError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
