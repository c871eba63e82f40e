"""Command-line harness: file generation, evaluation, training, verify
suites, sweeps, and the exit-code contract."""

import base64
import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from regretgap import (DeviationClass, ExpertOracle, MediatorPolicy, TrainConfig, blades_train,
                       io, is_time_layered, j_irl, regret_gap, sample_demonstrations, value_gap)
from regretgap.cli import EXIT_ASSUMPTION, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from regretgap.fixtures import fig1_game
from regretgap.harness import CSV_COLUMNS, run_sweep


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def hand_written(path):
    """A game or policy file's JSON with every float array as nested lists,
    the form used to write a file by hand."""
    data = io.load_json(path)
    if "table" in data:
        return {"table": io.load_policy(path).table.tolist()}
    game = io.load_game(path)
    return {**data, "initial_dist": game.initial_dist.tolist(),
            "transitions": game.transition.tolist(), "rewards": game.rewards.tolist()}


class TestGen:
    def test_fig1_writes_five_files_with_expected_gap(self, tmp_path, capsys):
        rc = main(["gen", "--name", "fig1", "--horizon", "8", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["deviation_0.json", "expected.json", "expert.json",
                         "game.json", "learner.json"]
        expected = io.load_json(tmp_path / "expected.json")["expected"]
        assert expected["regret_gap"] == 6.0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5

    def test_nfg_writes_two_game_files(self, tmp_path):
        rc = main(["gen", "--name", "multi-ce-nfg", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        names = {p.name for p in tmp_path.iterdir()}
        assert {"game_r.json", "game_rprime.json"} <= names

    def test_unknown_name_exit_2(self, tmp_path):
        rc = main(["gen", "--name", "nosuch", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_parameter_the_fixture_does_not_take_exit_2(self, tmp_path):
        out = tmp_path / "g"
        rc = main(["gen", "--name", "fig1", "--eps", "0.5", "--u", "99", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("name,flags,named", [
        ("random", ["--eps", "0.5", "--u", "99"], "eps, u"),
        ("multi-ce-nfg", ["--horizon", "7"], "horizon"),
        ("fig1", ["--states", "9"], "states"),
    ], ids=["random", "multi-ce-nfg", "fig1"])
    def test_flag_the_named_fixture_does_not_take_exit_2(self, tmp_path, capsys, name, flags, named):
        out = tmp_path / "g"
        rc = main(["gen", "--name", name, *flags, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()
        assert f"does not take parameter(s) {named}" in capsys.readouterr().err

    def test_random_records_its_seed(self, tmp_path):
        assert main(["gen", "--name", "random", "--seed", "5", "--out", str(tmp_path)]) == EXIT_OK
        assert io.load_json(tmp_path / "expected.json")["params"]["seed"] == 5

    def test_generated_files_reload(self, tmp_path):
        main(["gen", "--name", "coverage-lb", "--out", str(tmp_path)])
        game = io.load_game(tmp_path / "game.json")
        expert = io.load_policy(tmp_path / "expert.json")
        dev = io.load_deviation(tmp_path / "deviation_0.json", game)
        assert game.horizon == 20
        assert expert.n_states == game.n_states
        assert dev.agent == 0


class TestEval:
    @pytest.fixture
    def fig1_files(self, tmp_path):
        main(["gen", "--name", "fig1", "--horizon", "6", "--out", str(tmp_path)])
        return tmp_path

    def test_fig1_regret_gap_column(self, fig1_files, capsys):
        rep = fig1_files / "rep.json"
        csv_path = fig1_files / "rep.csv"
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json"),
                   "--deviations", "complete",
                   "--out-json", str(rep), "--out-csv", str(csv_path)])
        assert rc == EXIT_OK
        data = io.load_json(rep)
        assert data["regret_gap"] == pytest.approx(4.0, abs=1e-9)
        rows = read_csv(csv_path)
        assert list(rows[0]) == CSV_COLUMNS
        assert float(rows[0]["regret_gap"]) == pytest.approx(4.0, abs=1e-9)

    def test_exact_column_reads_false_off_time_layered_games(self, tmp_path, capsys):
        main(["gen", "--name", "random", "--states", "4", "--horizon", "3", "--out", str(tmp_path)])
        assert not is_time_layered(io.load_game(tmp_path / "game.json"))
        csv_path = tmp_path / "rep.csv"
        rc = main(["eval", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--learner", str(tmp_path / "learner.json"),
                   "--deviations", "complete", "--out-csv", str(csv_path)])
        assert rc == EXIT_OK
        row = read_csv(csv_path)[0]
        assert (row["schema_version"], row["exact"]) == ("3", "False")

    def test_expert_vs_itself_zero_gaps(self, fig1_files, capsys):
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "expert.json")])
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert data["value_gap"] == 0.0
        assert data["regret_gap"] == 0.0

    def test_identity_deviation_file_gives_zero_regret(self, fig1_files, capsys):
        ident = fig1_files / "ident.json"
        ident.write_text('{"agent": 0, "entries": []}')
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json"),
                   "--deviations", "file", "--deviation-file", str(ident)])
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert data["regret"]["learner"] == 0.0

    @pytest.mark.parametrize("mode", [[], ["--deviations", "complete"]])
    def test_deviation_file_without_file_mode_exit_2(self, fig1_files, capsys, mode):
        # a deviation file is never silently dropped in favour of COMPLETE
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json"), *mode,
                   "--deviation-file", str(fig1_files / "deviation_0.json")])
        assert rc == EXIT_USAGE
        out = capsys.readouterr()
        assert "--deviation-file" in out.err and "--deviations file" in out.err
        assert out.out == ""

    def test_file_mode_without_a_deviation_file_exit_2(self, fig1_files, capsys):
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json"), "--deviations", "file"])
        assert rc == EXIT_USAGE
        out = capsys.readouterr()
        assert "--deviations file needs at least one --deviation-file" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("agent", [5, -1])
    def test_deviation_file_naming_a_missing_agent_exit_2(self, fig1_files, capsys, agent):
        dev = fig1_files / "dev.json"
        dev.write_text(json.dumps({"agent": agent, "entries": []}))
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json"),
                   "--deviations", "file", "--deviation-file", str(dev)])
        assert rc == EXIT_USAGE
        assert f"agent {agent}," in capsys.readouterr().err

    @pytest.mark.parametrize("dev,message", [
        ({"agent": 0, "entries": [[99, "a1", "a2"]]}, "state 99 is neither a name nor an index"),
        ({"agent": 0, "entries": [[-1, "a1", "a2"]]}, "state -1 is neither a name nor an index"),
        ({"agent": 0, "entries": [["s0", -1, "a2"]]},
         "agent 0's action -1 is neither a name nor an index"),
        ({"agent": 0, "entries": [[0.7, "a1", "a2"]]}, "state 0.7 is neither a name nor an index"),
        ({"agent": 0.6, "entries": []}, "deviation agent must be an int index, got 0.6"),
        ({"agent": 0, "entries": [["nowhere", "a1", "a2"]]}, "state 'nowhere' is not a name"),
    ], ids=["state-99", "state-minus-1", "recommended-minus-1", "state-0.7", "agent-0.6",
            "unknown-name"])
    def test_deviation_entry_that_is_no_name_or_index_in_range_exit_2(self, fig1_files, capsys,
                                                                      dev, message):
        # these used to raise IndexError (exit 1), wrap to the last state or
        # action, or truncate to index 0 (exit 0)
        path = fig1_files / "dev.json"
        path.write_text(json.dumps(dev))
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json"),
                   "--deviations", "file", "--deviation-file", str(path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and message in err
        if dev["entries"]:
            assert f"deviation entry 0 {dev['entries'][0]!r}" in err

    @pytest.mark.parametrize("field,value", [("horizon", 2.5), ("horizon", True),
                                             ("num_agents", 2.9)])
    def test_header_field_that_is_not_a_json_int_exit_2(self, fig1_files, capsys, field, value):
        data = io.load_json(fig1_files / "game.json")
        data[field] = value
        (fig1_files / "game.json").write_text(json.dumps(data))
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json")])
        assert rc == EXIT_USAGE
        assert f"error: {field} must be a JSON integer, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("field,value,message", [
        ("reward_bound", True, "reward_bound must be a JSON number"),
        ("reward_bound", "2.5", "reward_bound must be a JSON number"),
        ("states", "abcdefg", "states must be a JSON list of names"),
        ("actions", ["ab", "cd"], "actions must be a JSON list of per-agent name lists"),
    ])
    def test_header_field_of_the_wrong_json_type_exit_2(self, tmp_path, capsys, command,
                                                        field, value, message):
        # once read as 1.0, 2.5, seven one-letter states and one-letter actions
        main(["gen", "--name", "fig1", "--horizon", "4", "--out", str(tmp_path)])
        data = io.load_json(tmp_path / "game.json")
        data[field] = value
        (tmp_path / "game.json").write_text(json.dumps(data))
        files = ["--game", str(tmp_path / "game.json"), "--expert", str(tmp_path / "expert.json")]
        if command == "eval":
            rc = main(["eval", *files, "--learner", str(tmp_path / "learner.json")])
        else:
            rc = main(["train", "--algo", "jbc", *files, "--out", str(tmp_path / "run")])
        assert rc == EXIT_USAGE
        assert f"error: {message}, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field", ["states", "actions[1]"])
    def test_repeated_name_exit_2(self, fig1_files, capsys, field):
        # deviation files address states and actions by name, so a repeated
        # name would send every entry for it to its first copy
        data = io.load_json(fig1_files / "game.json")
        names = data["states"] if field == "states" else data["actions"][1]
        names[1] = names[0]
        (fig1_files / "game.json").write_text(json.dumps(data))
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json")])
        assert rc == EXIT_USAGE
        assert f"error: {field}: the name {names[0]!r} appears more than once" in \
            capsys.readouterr().err

    def test_invalid_game_fails_validation(self, tmp_path, capsys):
        main(["gen", "--name", "fig1", "--horizon", "4", "--out", str(tmp_path)])
        data = hand_written(tmp_path / "game.json")
        data["transitions"][0][0][0] = 0.5  # break a row sum
        (tmp_path / "game.json").write_text(json.dumps(data))
        rc = main(["eval", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--learner", str(tmp_path / "learner.json")])
        assert rc == EXIT_CHECK_FAILED

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["eval", "--game", str(tmp_path / "none.json"),
                   "--expert", str(tmp_path / "none.json"),
                   "--learner", str(tmp_path / "none.json")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("field", ["initial_dist", "transition", "rewards", "table"])
    def test_nan_entry_fails_validation(self, fig1_files, capsys, field):
        # a packed file carries any bit pattern; NaN is no probability or bounded reward
        if field == "table":
            table = np.array(io.load_policy(fig1_files / "learner.json").table)
            table[0, 0] = np.nan
            io.save_policy(MediatorPolicy(table), fig1_files / "learner.json")
        else:
            game = io.load_game(fig1_files / "game.json")
            arr = np.array(getattr(game, field))
            arr.flat[0] = np.nan
            io.save_game(dataclasses.replace(game, **{field: arr}), fig1_files / "game.json")
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json")])
        assert rc == EXIT_CHECK_FAILED
        assert ("learner" if field == "table" else "game") + " validation" in capsys.readouterr().err

    @pytest.mark.parametrize("file,field,corrupt", [
        ("game", "transitions", lambda p: {**p, "dtype": "<f4"}),
        ("game", "transitions", lambda p: {k: v for k, v in p.items() if k != "dtype"}),
        ("game", "transitions", lambda p: {**p, "shape": 72}),
        ("game", "transitions", lambda p: {**p, "shape": [-n for n in p["shape"]]}),
        ("game", "transitions", lambda p: {**p, "shape": [float(n) for n in p["shape"]]}),
        ("game", "transitions",
         lambda p: {**p, "data": base64.b64encode(base64.b64decode(p["data"])[:-8]).decode()}),
        ("game", "rewards", lambda p: {**p, "data": "@" + p["data"]}),
        ("game", "initial_dist", lambda p: {**p, "data": p["data"][:-1]}),
        ("expert", "table", lambda p: {**p, "data": None}),
        ("learner", "table", lambda p: {**p, "shape": [2, *p["shape"]]}),
    ], ids=["dtype-f4", "no-dtype", "shape-int", "shape-negative", "shape-floats",
            "8-bytes-short", "data-not-base64", "data-bad-padding", "no-data", "shape-past-the-data"])
    def test_malformed_packed_array_exit_2(self, fig1_files, capsys, file, field, corrupt):
        path = fig1_files / f"{file}.json"
        data = io.load_json(path)
        data[field] = corrupt(data[field])
        path.write_text(json.dumps(data))
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json")])
        assert rc == EXIT_USAGE
        assert f"error: {field}: " in capsys.readouterr().err

    def test_packed_shape_that_disagrees_with_the_game_exit_2(self, fig1_files, capsys):
        data = io.load_json(fig1_files / "game.json")
        S, A, _ = data["transitions"]["shape"]
        data["transitions"]["shape"] = [A, S, S]   # the right byte count, the wrong layout
        (fig1_files / "game.json").write_text(json.dumps(data))
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json")])
        assert rc == EXIT_USAGE
        assert "transition must have shape" in capsys.readouterr().err

    @pytest.mark.parametrize("file", ["game", "expert", "deviation_0"])
    def test_top_level_that_is_not_an_object_exit_2(self, fig1_files, capsys, file):
        path = fig1_files / f"{file}.json"
        path.write_text("[1, 2]")
        rc = main(["eval", "--game", str(fig1_files / "game.json"),
                   "--expert", str(fig1_files / "expert.json"),
                   "--learner", str(fig1_files / "learner.json"),
                   "--deviations", "file", "--deviation-file", str(fig1_files / "deviation_0.json")])
        assert rc == EXIT_USAGE
        assert f"{path}: the top level must be a JSON object, got list" in capsys.readouterr().err


class TestTrain:
    def test_jbc_exact_on_full_coverage(self, tmp_path, capsys):
        main(["gen", "--name", "random", "--seed", "3", "--states", "4",
              "--out", str(tmp_path)])
        rc = main(["train", "--algo", "jbc", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        summary = io.load_json(tmp_path / "run" / "summary.json")
        assert summary["final_loss"] == 0.0
        assert (tmp_path / "run" / "policy.json").exists()

    def test_summary_names_the_deviation_class(self, tmp_path):
        # without deviation files the class is the identities, so the regret gap is 0.0
        main(["gen", "--name", "fig1", "--horizon", "4", "--out", str(tmp_path)])
        files = ["--game", str(tmp_path / "game.json"), "--expert", str(tmp_path / "expert.json")]
        assert main(["train", "--algo", "jbc", *files, "--out", str(tmp_path / "a")]) == EXIT_OK
        summary = io.load_json(tmp_path / "a" / "summary.json")
        assert (summary["deviation_class"], summary["regret_gap"]) == ("identities", 0.0)
        (tmp_path / "swap.json").write_text((tmp_path / "deviation_0.json").read_text())
        devs = ["--deviation-file", str(tmp_path / "deviation_0.json"),
                "--deviation-file", str(tmp_path / "swap.json")]
        assert main(["train", "--algo", "jbc", *files, *devs, "--out", str(tmp_path / "b")]) == EXIT_OK
        summary = io.load_json(tmp_path / "b" / "summary.json")
        assert summary["deviation_class"] == ["deviation_0", "swap"]
        assert summary["regret_gap"] > 0.0

    def test_malice_zero_coverage_exit_3(self, tmp_path):
        main(["gen", "--name", "fig1", "--horizon", "5", "--out", str(tmp_path)])
        rc = main(["train", "--algo", "malice", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--deviation-file", str(tmp_path / "deviation_0.json"),
                   "--rounds", "5", "--out", str(tmp_path / "run")])
        assert rc == EXIT_ASSUMPTION
        assert not (tmp_path / "run").exists()  # nothing to write, so no output directory

    @pytest.mark.parametrize("algo", ["jirl", "malice", "blades"])
    def test_zero_rounds_is_usage_error_without_output_directory(self, tmp_path, algo):
        main(["gen", "--name", "random", "--seed", "3", "--states", "3", "--out", str(tmp_path)])
        rc = main(["train", "--algo", algo, "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"), "--rounds", "0",
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("algo, settings", [
        ("jbc", {}),
        ("jirl", {"rounds": 5}),
        ("malice", {"rounds": 5}),
        ("blades", {"rounds": 5, "seed": 0}),
        ("blades", {"rounds": 5, "seed": 9}),
    ])
    def test_summary_records_only_the_settings_the_algo_read(self, tmp_path, algo, settings):
        main(["gen", "--name", "random", "--seed", "3", "--states", "3", "--out", str(tmp_path)])
        flags = [f"--{k}={v}" for k, v in settings.items() if (k, v) != ("seed", 0)]
        rc = main(["train", "--algo", algo, "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"), *flags,
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        summary = io.load_json(tmp_path / "run" / "summary.json")
        assert {k: summary[k] for k in ("rounds", "seed") if k in summary} == settings

    @pytest.mark.parametrize("agent", [5, -1])
    def test_deviation_file_naming_a_missing_agent_exit_2(self, tmp_path, capsys, agent):
        main(["gen", "--name", "fig1", "--horizon", "4", "--out", str(tmp_path)])
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps({"agent": agent, "entries": []}))
        rc = main(["train", "--algo", "blades", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--deviation-file", str(dev), "--rounds", "5", "--out", str(tmp_path / "run")])
        assert rc == EXIT_USAGE
        assert f"agent {agent}," in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # validated before the output directory

    def test_deviation_entry_out_of_range_exit_2(self, tmp_path, capsys):
        main(["gen", "--name", "fig1", "--horizon", "4", "--out", str(tmp_path)])
        dev = tmp_path / "dev.json"
        dev.write_text(json.dumps({"agent": 0, "entries": [[99, "a1", "a2"]]}))
        rc = main(["train", "--algo", "blades", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--deviation-file", str(dev), "--rounds", "5", "--out", str(tmp_path / "run")])
        assert rc == EXIT_USAGE
        assert "deviation entry 0 [99, 'a1', 'a2']: state 99" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("broken", ["game", "expert"])
    def test_invalid_inputs_fail_validation(self, tmp_path, capsys, broken):
        main(["gen", "--name", "coverage-lb", "--out", str(tmp_path)])
        data = hand_written(tmp_path / f"{broken}.json")
        if broken == "game":
            data["transitions"][0][0][0] += 0.5  # this row now sums to 1.5
        else:
            data["table"][0][0] += 0.5
        (tmp_path / f"{broken}.json").write_text(json.dumps(data))
        rc = main(["train", "--algo", "malice", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--rounds", "5", "--out", str(tmp_path / "run")])
        assert rc == EXIT_CHECK_FAILED
        assert f"{broken} validation" in capsys.readouterr().err
        assert not (tmp_path / "run" / "policy.json").exists()

    def test_blades_writes_trace_and_queries(self, tmp_path):
        main(["gen", "--name", "random", "--seed", "5", "--states", "3",
              "--out", str(tmp_path)])
        rc = main(["train", "--algo", "blades", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--rounds", "10", "--demos", "20", "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        summary = io.load_json(tmp_path / "run" / "summary.json")
        assert summary["query_count"] > 0
        trace = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        assert trace[0] == "round,loss,achieving_agent,achieving_deviation,step_size"
        assert len(trace) == 11
        lines = (tmp_path / "run" / "queries.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"round", "state", "mode"}

    def test_trace_quotes_a_deviation_label_with_a_comma(self, tmp_path):
        # a deviation's label is its file name without the extension
        main(["gen", "--name", "coverage-lb", "--out", str(tmp_path)])
        dev = tmp_path / "swap,left.json"
        dev.write_text((tmp_path / "deviation_0.json").read_text())
        rc = main(["train", "--algo", "blades", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"), "--rounds", "20",
                   "--deviation-file", str(dev), "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        with open(tmp_path / "run" / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "loss", "achieving_agent", "achieving_deviation", "step_size"]
        assert len(rows) == 21 and all(len(r) == 5 for r in rows)
        assert rows[1][3] == "swap,left"

    @pytest.mark.parametrize("algo, flag, value", [
        ("malice", "--fill-rule", "uniform"),
        ("blades", "--fill-rule", "adversarial-worst-case"),
        ("jbc", "--demos", "20"),
        ("jirl", "--demos", "200"),
        ("jbc", "--rounds", "7"),
        ("jbc", "--seed", "3"),
        ("jirl", "--seed", "3"),
        ("malice", "--seed", "3"),
    ])
    def test_flag_the_algo_never_reads_is_usage_error(self, tmp_path, capsys, algo, flag, value):
        main(["gen", "--name", "random", "--seed", "3", "--states", "3", "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["train", "--algo", algo, "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"), flag, value,
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_jirl_runs(self, tmp_path):
        main(["gen", "--name", "random", "--seed", "6", "--states", "3",
              "--out", str(tmp_path)])
        rc = main(["train", "--algo", "jirl", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--rounds", "50", "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        summary = io.load_json(tmp_path / "run" / "summary.json")
        assert summary["final_loss"] <= 1.0
        assert 1 <= summary["rounds_run"] <= summary["rounds"] == 50

    def test_jirl_reports_the_rounds_it_ran(self, tmp_path):
        # an expert equal to the uniform start is matched in round 1
        main(["gen", "--name", "random", "--seed", "6", "--states", "3",
              "--out", str(tmp_path)])
        game = io.load_game(tmp_path / "game.json")
        io.save_policy(MediatorPolicy.uniform(game), tmp_path / "expert.json")
        rc = main(["train", "--algo", "jirl", "--game", str(tmp_path / "game.json"),
                   "--expert", str(tmp_path / "expert.json"),
                   "--rounds", "50", "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        summary = io.load_json(tmp_path / "run" / "summary.json")
        assert (summary["rounds"], summary["rounds_run"], summary["best_round"]) == (50, 1, 1)


class TestVerify:
    def test_nfg_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["verify", "--suite", "nfg", "--out", str(out)])
        assert rc == EXIT_OK
        rows = read_csv(out)
        assert all(r["pass"] == "True" for r in rows)
        printed = capsys.readouterr().out
        assert "[PASS]" in printed

    def test_thm3_suite_passes(self):
        assert main(["verify", "--suite", "thm3"]) == EXIT_OK

    def test_coverage_aliases(self):
        assert main(["verify", "--suite", "coverage-lb"]) == EXIT_OK

    def test_alice_suites_pass(self):
        assert main(["verify", "--suite", "alice-lb"]) == EXIT_OK

    def test_unknown_suite_exit_2(self, capsys):
        # an old suite name is no alias: it fails like any unknown name
        for name in ("nosuch", "thm5-lb", "thm4-ce"):
            assert main(["verify", "--suite", name]) == EXIT_USAGE
            assert "coverage-lb" in capsys.readouterr().err

    def test_tolerance_is_not_an_option(self, capsys):
        # pinned checks: a tolerance flag would turn lemma1's by-design FAIL into a PASS
        assert main(["verify", "--suite", "lemma1", "--tolerance", "1"]) == EXIT_USAGE
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_nonpositive_tolerance_exit_2(self):
        assert main(["verify", "--suite", "nfg", "--tolerance", "0"]) == EXIT_USAGE
        assert main(["verify", "--suite", "nfg", "--tolerance", "-1e-9"]) == EXIT_USAGE


class TestSweep:
    def test_fig1_horizon_sweep_slope_one(self, tmp_path):
        config = {
            "base_seed": 11,
            "grid": {"H": [4, 6, 8, 10]},
            "fixture": "fig1",
            "out": str(tmp_path / "sweep.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["sweep", "--config", str(cfg_path)])
        assert rc == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        gaps = {int(r["H"]): float(r["regret_gap"]) for r in rows}
        assert gaps == {4: 2.0, 6: 4.0, 8: 6.0, 10: 8.0}

    def test_eps_sweep_linear_slope(self, tmp_path):
        H, u, beta = 20, 10, 0.05
        eps_values = [0.0005, 0.001, 0.002]
        config = {
            "base_seed": 0,
            "grid": {"H": [H], "eps": eps_values},
            "fixture": "coverage-lb",
            "out": str(tmp_path / "sweep.csv"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
        rows = read_csv(tmp_path / "sweep.csv")
        slope = H * (10 - 2) / (2 * beta)
        for row in rows:
            eps = float(row["eps"])
            assert float(row["regret_gap"]) == pytest.approx(slope * eps, abs=1e-9)

    def test_cells_run_in_grid_order_with_repeatable_seeds(self):
        config = {"base_seed": 5, "grid": {"H": [6, 4, 5]}, "fixture": "fig1", "algo": "blades",
                  "rounds": 5}
        rows, summary = run_sweep(config)
        again, _ = run_sweep(config)
        assert [r.H for r in rows] == [6, 4, 5] and summary["failed"] == 0
        assert [r.seed for r in rows] == [
            int(np.random.SeedSequence(entropy=5, spawn_key=(k,)).generate_state(1)[0])
            for k in range(3)]
        assert [(r.H, r.seed, r.regret_gap, r.value_gap) for r in rows] == \
            [(r.H, r.seed, r.regret_gap, r.value_gap) for r in again]

    @pytest.mark.parametrize("override, field", [
        ({"grid": {"H": 4}}, "grid"),
        ({"grid": [4]}, "grid"),
        ({"grid": {"H": []}}, "grid"),
        ({"fixture": ["fig1"]}, "fixture"),
        ({"out": 5}, "out"),
        ({"algo": "blades", "rounds": 0}, "rounds"),
        ({"rounds": True}, "rounds"),
        ({"base_seed": -1}, "base_seed"),
        ({"workers": 2}, "workers"),
        ({"grid": {"H": [4.5, 6]}}, "grid['H']"),
        ({"grid": {"H": [True]}}, "grid['H']"),
        ({"grid": {"H": ["4"]}}, "grid['H']"),
        ({"fixture": "coverage-lb", "grid": {"u": [True]}}, "grid['u']"),
        ({"fixture": "coverage-lb", "grid": {"beta": ["0.1"]}}, "grid['beta']"),
        ({"fixture": "alice-lb", "grid": {"eps": [0.001, None]}}, "grid['eps']"),
        ({"grid": {"horizon": [4, 6]}}, "grid['horizon']"),
        ({"rounds": 9}, "rounds"),
        ({"algo": "jbc", "rounds": 77}, "rounds"),
    ], ids=["grid-scalar", "grid-list", "grid-empty-list", "fixture-list", "out-int",
            "rounds-zero", "rounds-bool", "base-seed-negative", "unknown-key", "H-float",
            "H-bool", "H-string", "u-bool", "beta-string", "eps-null", "horizon-key",
            "rounds-without-algo", "rounds-with-jbc"])
    def test_malformed_config_is_config_error_before_any_cell(self, tmp_path, monkeypatch, capsys,
                                                              override, field):
        import regretgap.harness as harness

        cells = []
        monkeypatch.setattr(harness, "_sweep_cell", lambda *args: cells.append(args))
        out = tmp_path / "s.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"H": [4]}, "fixture": "fig1", "out": str(out),
                                        **override}))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert cells == [] and list(tmp_path.iterdir()) == [cfg_path]

    def test_readme_sweep_example_runs(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("A sweep config looks like:", 1)[1]
        config = json.loads(block.split("```json", 1)[1].split("```", 1)[0])
        rows, summary = run_sweep(config)
        assert summary["cells"] == len(rows) > 0
        assert summary["failed"] == 0 and all(r.error == "" for r in rows)

    def test_empty_grid_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {}, "fixture": "fig1"}))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_USAGE

    def test_config_that_is_not_an_object_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_USAGE

    def test_grid_key_the_fixture_does_not_take_is_config_error(self, tmp_path, monkeypatch):
        import regretgap.harness as harness

        cells = []
        monkeypatch.setattr(harness, "_sweep_cell", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match="u"):
            run_sweep({"grid": {"H": [4, 6], "u": [3.0]}, "fixture": "fig1"})
        assert cells == []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"H": [4], "gamma": [1]}, "fixture": "fig1",
                                        "out": str(tmp_path / "s.csv")}))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        assert not (tmp_path / "s.csv").exists()

    def test_unknown_algo_is_config_error_before_any_cell(self, tmp_path, monkeypatch):
        import regretgap.harness as harness

        cells = []
        monkeypatch.setattr(harness, "_sweep_cell", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match="unknown algo 'newton'"):
            run_sweep({"grid": {"H": [4, 5]}, "fixture": "fig1", "algo": "newton"})
        assert cells == []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"H": [4, 5]}, "fixture": "fig1",
                                        "algo": "newton", "out": str(tmp_path / "s.csv")}))
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        assert not (tmp_path / "s.csv").exists()

    def test_cell_failures_recorded_not_raised(self, tmp_path):
        # H=3 is below the coverage construction's floor, so that cell errors
        config = {"base_seed": 1, "grid": {"H": [3, 20]}, "fixture": "coverage-lb",
                  "out": str(tmp_path / "s.csv")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["sweep", "--config", str(cfg_path)])
        assert rc == EXIT_CHECK_FAILED
        assert io.load_json(tmp_path / "s.summary.json")["assumption_violations"] == 0
        rows = read_csv(tmp_path / "s.csv")
        assert len(rows) == 2
        assert {r["pass"] for r in rows} == {"True", "False"}
        failed = next(r for r in rows if r["pass"] == "False")
        assert failed["fixture"] == "coverage-lb"
        assert failed["H"] == "3"
        assert failed["error"]
        assert all(r["error"] == "" for r in rows if r["pass"] == "True")

    def test_error_cells_keep_their_runtime(self):
        # MALICE needs expert coverage that fig1 lacks, so both cells raise
        # after building the fixture
        rows, summary = run_sweep({"base_seed": 3, "grid": {"H": [4, 6]}, "fixture": "fig1",
                                   "algo": "malice", "rounds": 5})
        assert summary["failed"] == 2
        assert all(r.error and r.runtime_ms > 0 for r in rows)

    def test_assumption_violations_exit_3_unless_another_cell_failed(self, tmp_path):
        # MALICE raises CoverageError on every fig1 cell, as train exits 3;
        # H = 2 is below fig1's floor, a ValueError that is a failed check
        cfg_path = tmp_path / "cfg.json"
        for grid, failed, violations, code in (([4, 6], 2, 2, EXIT_ASSUMPTION),
                                               ([2, 4], 2, 1, EXIT_CHECK_FAILED)):
            out = tmp_path / f"s{grid[0]}.csv"
            cfg_path.write_text(json.dumps({"grid": {"H": grid}, "fixture": "fig1",
                                            "algo": "malice", "rounds": 5, "out": str(out)}))
            assert main(["sweep", "--config", str(cfg_path)]) == code
            summary = io.load_json(out.with_suffix(".summary.json"))
            assert (summary["failed"], summary["assumption_violations"]) == (failed, violations)
            rows = read_csv(out)
            assert {r["pass"] for r in rows} == {"False"}
            assert sum(r["error"].startswith("CoverageError") for r in rows) == violations

    def test_trained_cells_leave_expected_and_pass_empty(self, tmp_path):
        # no closed form pins a trained policy's regret gap, so the cell
        # reports what it measured and checks nothing
        rows, summary = run_sweep({"base_seed": 2, "grid": {"H": [4]}, "fixture": "fig1",
                                   "algo": "jbc"})
        row = rows[0].to_csv_dict()
        assert row["expected"] == "" and row["pass"] == ""
        assert row["measured"] == pytest.approx(2.0 / 3.0)
        assert summary["failed"] == 0

    def test_jbc_cells_leave_n_empty(self):
        # j_bc runs no rounds, so its rows record none
        rows, _ = run_sweep({"grid": {"H": [4, 5]}, "fixture": "fig1", "algo": "jbc"})
        assert [r.to_csv_dict()["N"] for r in rows] == ["", ""]


    @pytest.mark.parametrize("algo", ["jirl", "blades"])
    def test_trained_cells_report_the_trained_policys_gaps(self, algo):
        rows, summary = run_sweep({"base_seed": 4, "grid": {"H": [4]}, "fixture": "fig1",
                                   "algo": algo, "rounds": 20})
        row, fx = rows[0], fig1_game(4)
        if algo == "jirl":
            policy = j_irl(fx.game, fx.expert, rounds=20).policy
        else:
            demos = sample_demonstrations(fx.game, fx.expert, 100, seed=row.seed)
            policy = blades_train(fx.game, ExpertOracle(fx.expert), demos, fx.witness_class(),
                                  TrainConfig(rounds=20, seed=row.seed)).policy
        assert (row.error, row.passed, row.N, summary["failed"]) == ("", None, 20, 0)
        gap = regret_gap(fx.game, fx.expert, policy, DeviationClass.complete(2))
        assert row.measured == row.regret_gap == gap
        assert row.value_gap == value_gap(fx.game, fx.expert, policy)


class TestExitCodeContract:
    def test_usage_error(self):
        assert main(["eval"]) == EXIT_USAGE  # missing required args

    def test_help_is_zero(self):
        assert main(["--help"]) == 0
