import argparse
import builtins
import json
import os

import numpy as np
import pytest

from voxevo import analysis, cli, evolution
from voxevo.cli import build_parser, config_from_args, main
from voxevo.control import PARAMS_KEY, ControllerGenome
from voxevo.morphology import Morphology, random_morphology
from voxevo.sim_core import ENGINE_VERSION


def run_cli(*argv):
    return main(list(argv))


def evolve_args(out, **over):
    args = {
        "--env": "walker",
        "--size": "5x5",
        "--controller": "fixed",
        "--gens": "2",
        "--seed": "1",
        "--out": str(out),
    }
    args.update(over)
    argv = ["evolve"]
    for k, v in args.items():
        argv += [k, v]
    return argv


def test_evolve_writes_outputs(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*evolve_args(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["setting"] == "W5"
    assert manifest["group_label"] == "W5-fixed"
    assert manifest["engine_version"] == ENGINE_VERSION
    assert manifest["config"]["generations"] == 2
    assert (out / "generations.csv").exists()
    assert (out / "checkpoint.json").exists()
    champion = json.loads((out / "champion.json").read_text())
    assert champion["controller"] == {"variant": "fixed", PARAMS_KEY: ""}  # the checkpoint's encoding
    assert ControllerGenome.from_json(champion["controller"]).params.shape == (0,)
    log = (out / "generations.csv").read_text().splitlines()
    assert log[0] == "generation,best_fitness,mean_fitness,best_age,champion_id"
    assert len(log) == 4  # header + generations 0..2


def test_evolve_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*evolve_args(out1, **{"--gens": "3"})) == 0
    assert run_cli(*evolve_args(out2, **{"--gens": "3"})) == 0
    assert (out1 / "generations.csv").read_bytes() == (out2 / "generations.csv").read_bytes()
    assert (out1 / "champion.json").read_bytes() == (out2 / "champion.json").read_bytes()


def test_evolve_refuses_to_overwrite(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*evolve_args(out)) == 0
    assert run_cli(*evolve_args(out)) == 2  # already complete, no --resume


def test_evolve_multi_seed_layout(tmp_path):
    # each seed's run lives in, and records, its own directory
    out = tmp_path / "runs"
    assert run_cli(*evolve_args(out, **{"--seeds": "2", "--gens": "1"}), "--pop", "6") == 0
    for seed in (1, 2):
        run_dir = out / f"seed_{seed}"
        assert (run_dir / "champion.json").exists()
        for name in ("manifest.json", "checkpoint.json"):
            assert json.loads((run_dir / name).read_text())["config"]["output_dir"] == str(run_dir)


def test_run_without_its_champion_is_not_finished(tmp_path):
    # generations.csv marks a finished run, so it is written last: a run
    # whose champion could not be written can be run again
    out = tmp_path / "run"
    (out / "champion.json").mkdir(parents=True)
    assert run_cli(*evolve_args(out)) == 3
    assert not (out / "generations.csv").exists()
    (out / "champion.json").rmdir()
    assert run_cli(*evolve_args(out)) == 0
    assert (out / "champion.json").is_file() and (out / "generations.csv").is_file()


def test_evolve_invalid_flags_exit_2(tmp_path, capsys):
    assert run_cli("evolve", "--env", "walker", "--size", "5by5", "--out", str(tmp_path / "x")) == 2
    assert run_cli("evolve", "--env", "walker", "--size", "5x5", "--gens", "-3", "--out", str(tmp_path / "y")) == 2
    # a morphology space too wide for the bridge's start pad is a config error, found before the run starts
    assert run_cli(*evolve_args(tmp_path / "z", **{"--env": "bridgewalker", "--size": "8x8"})) == 2
    assert "does not fit on the start pad" in capsys.readouterr().err
    assert not any((tmp_path / d).exists() for d in "xyz")


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"environment": "walker", "height": 5, "width": 5, "generations": 7}))
    parser = build_parser()
    args = parser.parse_args(["evolve", "--config", str(cfg), "--gens", "9", "--out", "o"])
    config = config_from_args(args)
    assert config.generations == 9  # flag wins
    args = parser.parse_args(["evolve", "--config", str(cfg), "--out", "o"])
    assert config_from_args(args).generations == 7


def test_unknown_config_field_exit_2(tmp_path, capsys):
    # a field RunConfig does not know, as an option removed since a config
    # was written leaves behind, is named and refused before anything runs
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"environment": "walker", "workers": 2}))
    assert run_cli("evolve", "--config", str(cfg), "--gens", "1", "--out", str(tmp_path / "o")) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_config_file_that_is_not_utf8_exit_2(tmp_path, capsys):
    # a config file that cannot be decoded is refused as any other
    # malformed one, naming the file, before anything runs
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'\xff\xfe{"seed": 1}')
    assert run_cli("evolve", "--config", str(cfg), "--gens", "1", "--out", str(tmp_path / "o")) == 2
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "fields",
    [
        {"generations": 2.5},
        {"seed": 1.5},
        {"height": True},
        {"population_size": "4"},
        {"output_dir": 5},
    ],
    ids=["float-generations", "float-seed", "bool-height", "string-population", "int-out"],
)
def test_config_value_of_the_wrong_type_exit_2(tmp_path, capsys, fields):
    # a config file's value of the wrong type is refused before anything
    # runs, not rounded, hashed or failed on later
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"generations": 1, "population_size": 4, "output_dir": str(tmp_path / "r1"), **fields}))
    assert run_cli("evolve", "--config", str(cfg)) == 2
    assert next(iter(fields)) in capsys.readouterr().err
    assert not (tmp_path / "r1").exists()


def test_desk_and_paper_scale_defaults():
    parser = build_parser()
    args = parser.parse_args(["evolve", "--out", "o"])
    assert config_from_args(args).generations == 300
    args = parser.parse_args(["evolve", "--out", "o", "--paper-scale"])
    assert config_from_args(args).generations == 10_000


def capture_runs(monkeypatch):
    """The configs the commands hand to the run path, in order; nothing runs."""
    runs = []
    monkeypatch.setattr(cli, "run_to_dir", lambda config, *rest: runs.append(config))
    return runs


def write_body(path, body, run_id=None):
    data = body.to_json() if run_id is None else {"run_id": run_id, "morphology": body.to_json()}
    path.write_text(json.dumps(data))
    return str(path)


def test_retrain_default_generations(tmp_path, monkeypatch):
    # flag, then config file, then the command's default: 5000 for retrain
    body = write_body(tmp_path / "body.json", Morphology([[3, 1]]))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"generations": 3}))
    runs = capture_runs(monkeypatch)
    argv = ["retrain", "--body", body, "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 0
    assert run_cli(*argv, "--config", str(cfg)) == 0
    assert run_cli(*argv, "--config", str(cfg), "--gens", "4") == 0
    assert [c.generations for c in runs] == [analysis.RETRAIN_GENERATIONS, 3, 4]


@pytest.mark.parametrize("option", [["--size", "7x7"], ["--paper-scale"]])
def test_retrain_refuses_evolve_only_options(tmp_path, capsys, option):
    # a retrain's shape comes from its body, and it runs one seed
    body = write_body(tmp_path / "body.json", Morphology([[3, 1]]))
    with pytest.raises(SystemExit) as exc:
        main(["retrain", "--body", body, "--out", str(tmp_path / "o"), "--gens", "0", *option])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


# options that act outside the config: they pick directories, files or seeds
OUTSIDE_CONFIG = {"--resume", "--seeds", "--body", "--config"}
OPTION_VALUES = {
    "--env": ["bridgewalker"],
    "--size": ["3x4"],
    "--controller": ["modular"],
    "--gens": ["7"],
    "--pop": ["5"],
    "--seed": ["3"],
    "--checkpoint-interval": ["9"],
    "--out": ["elsewhere"],
    "--paper-scale": [],
}


def _long_options(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        next(o for o in action.option_strings if o.startswith("--"))
        for action in sub.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    ]


@pytest.mark.parametrize("command", ["evolve", "retrain"])
def test_every_run_option_reaches_the_config(tmp_path, monkeypatch, command):
    # each option, including any added later, changes the config the run
    # uses; for retrain that is the config after adapting it to the body
    body = write_body(tmp_path / "body.json", Morphology([[3, 1], [1, 3]]))
    base = [command, "--out", str(tmp_path / "o")] + (["--body", body] if command == "retrain" else [])
    runs = capture_runs(monkeypatch)
    assert run_cli(*base) == 0
    for option in _long_options(command):
        if option in OUTSIDE_CONFIG:
            continue
        assert option in OPTION_VALUES, f"give {option} a test value, or list it as acting outside the config"
        first = len(runs)
        assert run_cli(*base, option, *OPTION_VALUES[option]) == 0, option
        assert runs[first] != runs[0], f"{command} {option} does not reach the run's config"


def test_retrain_runs_and_records_source(tmp_path, rng):
    body = random_morphology(3, 3, rng)
    body_path = tmp_path / "champ.json"
    body_path.write_text(json.dumps({"run_id": "abc-s0", "morphology": body.to_json()}))
    out = tmp_path / "retrain"
    code = run_cli(
        "retrain", "--body", str(body_path), "--out", str(out),
        "--gens", "1", "--pop", "4", "--seed", "0",
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["source_run_id"] == "abc-s0"
    assert manifest["config"]["controller"] == "modular"
    assert manifest["group_label"].endswith("-retrained")
    assert manifest["fingerprint"] == evolution.RunConfig.from_json(manifest["config"]).fingerprint()
    champion = json.loads((out / "champion.json").read_text())
    assert champion["morphology"] == body.to_json()


def count_opens(monkeypatch, path):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


@pytest.mark.parametrize("interval", [None, "1"])
def test_retrain_opens_its_body_file_once(tmp_path, monkeypatch, rng, interval):
    # one read gives the body and the wrapper's run_id, however often the
    # run saves a checkpoint
    body_path = write_body(tmp_path / "champ.json", random_morphology(3, 3, rng), run_id="abc-s0")
    opened = count_opens(monkeypatch, body_path)
    out = tmp_path / "retrain"
    argv = ["retrain", "--body", body_path, "--out", str(out), "--gens", "4", "--pop", "4", "--seed", "0"]
    if interval is not None:
        argv += ["--checkpoint-interval", interval]
    assert run_cli(*argv) == 0
    assert len(opened) == 1
    assert json.loads((out / "manifest.json").read_text())["source_run_id"] == "abc-s0"


def test_evolve_refuses_a_config_that_names_a_body(tmp_path, capsys, rng):
    # a frozen body is trained by retrain only; evolve refuses it before
    # reading it, and leaves no directory behind
    body_path = write_body(tmp_path / "champ.json", random_morphology(3, 3, rng), run_id="abc-s0")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"height": 3, "width": 3, "controller": "modular", "freeze_body_path": body_path}))
    out = tmp_path / "o"
    assert run_cli("evolve", "--config", str(cfg), "--out", str(out), "--gens", "1", "--pop", "4") == 2
    err = capsys.readouterr().err
    assert "voxevo retrain" in err and body_path in err
    assert not out.exists()


def test_api_retrain_is_labelled_by_the_body_it_trained(tmp_path, rng):
    # no body path in the config: the label comes from the body evolve trained
    body = random_morphology(3, 3, rng)
    config = evolution.RunConfig(height=3, width=3, controller="modular", generations=1, population_size=4)
    result = evolution.evolve(config, frozen_body=body)
    assert result.frozen_body == body
    cli.write_run_outputs(result, str(tmp_path / "o"))
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["group_label"] == "W3-modular-retrained"


@pytest.mark.parametrize(
    "cells, problem",
    [
        ([[3, 0, 0, 0, 0]] + [[0] * 5] * 3 + [[0, 0, 0, 0, 3]], "2 disconnected components"),
        (None, "No such file"),
    ],
    ids=["disconnected", "missing"],
)
def test_retrain_rejects_an_untrainable_body(tmp_path, capsys, cells, problem):
    # a body of the wrong shape, or a fixed controller, cannot reach a
    # retrain: its config is adapted to the body (see
    # tests/test_evolution.py::test_untrainable_frozen_body_rejected)
    body_path = tmp_path / "body.json"
    if cells is not None:
        body_path.write_text(json.dumps(Morphology(cells).to_json()))
    out = tmp_path / "o"
    assert run_cli("retrain", "--body", str(body_path), "--gens", "1", "--pop", "4", "--out", str(out)) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()  # refused before the run starts: no directory


def test_crosseval_body_too_wide_for_the_bridge_pad_exits_2(tmp_path, capsys):
    body = write_body(tmp_path / "wide.json", Morphology([[3] * 9]))
    assert run_cli("crosseval", "--body", body, "--env", "bridgewalker") == 2
    assert "does not fit on the start pad" in capsys.readouterr().err


def test_retrain_adapts_its_config_to_the_body_before_validating_it(tmp_path):
    # the config file's 9x9 space does not fit the bridge's start pad, but
    # the run trains the 5-wide body, which does
    body = write_body(tmp_path / "b.json", random_morphology(5, 5, np.random.default_rng(3)))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"environment": "bridgewalker", "height": 9, "width": 9, "generations": 1}))
    out = tmp_path / "run"
    assert run_cli("retrain", "--config", str(cfg), "--body", body, "--out", str(out), "--pop", "2") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["config"]["height"], manifest["config"]["width"]) == (5, 5)
    assert manifest["group_label"] == "B5-modular-retrained"


def test_retrain_keeps_1x1_body(tmp_path):
    body_path = tmp_path / "single.json"
    body_path.write_text(json.dumps(Morphology([[3]]).to_json()))
    out = tmp_path / "retrain"
    assert run_cli("retrain", "--body", str(body_path), "--out", str(out), "--gens", "1", "--pop", "4") == 0
    champion = json.loads((out / "champion.json").read_text())
    assert champion["morphology"]["cells"] == [[3]]


def test_retrain_invalid_body_exit_2(tmp_path):
    body_path = tmp_path / "bad.json"
    body_path.write_text(json.dumps(Morphology([[1, 1]]).to_json()))  # no actuator
    assert run_cli("retrain", "--body", str(body_path), "--out", str(tmp_path / "o")) == 2
    body_path.write_text("[1, 2, 3]")  # not a JSON object
    assert run_cli("retrain", "--body", str(body_path), "--out", str(tmp_path / "o")) == 2


def test_crosseval_prints_result(tmp_path, capsys, rng):
    body_path = tmp_path / "body.json"
    body_path.write_text(json.dumps(random_morphology(4, 4, rng).to_json()))
    assert run_cli("crosseval", "--body", str(body_path), "--env", "walker") == 0
    out = capsys.readouterr().out
    assert "fixed-controller fitness" in out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert set(payload) == {"delta_px", "finished", "steps_used", "fitness", "diverged"}


def test_crosseval_out_file_holds_the_printed_json(tmp_path, capsys, rng):
    body = write_body(tmp_path / "body.json", random_morphology(4, 4, rng))
    out_file = tmp_path / "cross.json"
    assert run_cli("crosseval", "--body", body, "--out", str(out_file)) == 0
    printed = capsys.readouterr().out
    assert out_file.read_text() == printed[: printed.rindex("}") + 1]


def test_unexpected_error_exits_3(tmp_path, monkeypatch, capsys):
    def failing_evolve(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "evolve", failing_evolve)
    assert run_cli(*evolve_args(tmp_path / "o")) == 3
    assert "error: RuntimeError: boom" in capsys.readouterr().err


def test_validate_body(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Morphology([[3, 1]]).to_json()))
    assert run_cli("validate-body", "--body", str(good)) == 0
    assert "valid" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"h": 2, "w": 2, "cells": [[3, 0], [0, 1]]}))
    assert run_cli("validate-body", "--body", str(bad)) == 2
    bad.write_text(json.dumps({"h": 1, "w": 1, "cells": [[3.7]]}))  # not truncated to 3
    assert run_cli("validate-body", "--body", str(bad)) == 2
    bad.write_text("[1, 2, 3]")  # not a JSON object
    assert run_cli("validate-body", "--body", str(bad)) == 2
    bad.write_text(json.dumps({"morphology": [1, 2, 3]}))
    assert run_cli("validate-body", "--body", str(bad)) == 2


def _fake_run_dir(path, group, seed, fitness, curve, cells):
    path.mkdir(parents=True)
    manifest = {
        "setting": group.split("-")[0],
        "group_label": group,
        "seed": seed,
        "config": {"seed": seed},
        "fingerprint": "f" * 64,
    }
    (path / "manifest.json").write_text(json.dumps(manifest))
    (path / "champion.json").write_text(
        json.dumps(
            {
                "run_id": f"fake-s{seed}",
                "fitness": fitness,
                "morphology": {"h": len(cells), "w": len(cells[0]), "cells": cells},
                "controller": {"variant": "fixed", "params": []},
            }
        )
    )
    rows = ["generation,best_fitness,mean_fitness,best_age,champion_id"]
    for g, v in enumerate(curve):
        rows.append(f"{g},{v!r},{v!r},0,0")
    (path / "generations.csv").write_text("\n".join(rows) + "\n")


def test_report_identical_groups_not_significant(tmp_path, capsys):
    cells_a = [[3, 1], [2, 4]]
    for seed in range(4):
        _fake_run_dir(tmp_path / f"fixed_{seed}", "W5-fixed", seed, 5.0, [1.0, 3.0, 5.0], cells_a)
        _fake_run_dir(tmp_path / f"mod_{seed}", "W5-modular", seed, 5.0, [1.0, 3.0, 5.0], cells_a)
    out = tmp_path / "report"
    dirs = [str(tmp_path / f"fixed_{s}") for s in range(4)] + [str(tmp_path / f"mod_{s}") for s in range(4)]
    assert run_cli("report", *dirs, "--out", str(out), "--bootstrap", "50") == 0

    comparison = (out / "comparison.csv").read_text().splitlines()
    header, row = comparison[0].split(","), comparison[1].split(",")
    record = dict(zip(header, row))
    assert float(record["p_value"]) == 1.0
    assert record["stars"] == ""
    assert float(record["mean_a"]) == 5.0  # equals the hand-computed champion mean

    curves = (out / "curves.csv").read_text().splitlines()[1:]
    for line in curves:
        _, _, mean, lo, hi = line.split(",")
        assert float(lo) == float(mean) == float(hi)  # constant group: zero CI width

    distances = (out / "distances.csv").read_text().splitlines()
    assert distances[1].split(",")[2] == "0.0"  # identical bodies
    assert (out / "curves.svg").exists()
    assert (out / "report.txt").exists()


def test_report_separated_groups_significant(tmp_path):
    for seed in range(5):
        _fake_run_dir(tmp_path / f"a_{seed}", "W5-fixed", seed, 10.0 + seed, [10.0], [[3]])
        _fake_run_dir(tmp_path / f"b_{seed}", "W5-modular", seed, 1.0 + seed, [1.0], [[4]])
    out = tmp_path / "report"
    dirs = [str(tmp_path / f"a_{s}") for s in range(5)] + [str(tmp_path / f"b_{s}") for s in range(5)]
    assert run_cli("report", *dirs, "--out", str(out)) == 0
    row = (out / "comparison.csv").read_text().splitlines()[1].split(",")
    p_value = float(row[7])
    assert p_value < 0.05  # exact two-sided p for fully separated 5v5 is ~0.0079


def test_report_rejects_mixed_shapes_in_group(tmp_path, capsys):
    # every group is checked before any file is written: the report's
    # directory is not made, so no table of a half report is left
    _fake_run_dir(tmp_path / "a0", "W5-fixed", 0, 5.0, [5.0], [[3]])
    _fake_run_dir(tmp_path / "a1", "W5-fixed", 1, 5.0, [5.0], [[3]])
    _fake_run_dir(tmp_path / "b0", "W5-modular", 0, 5.0, [5.0], [[3, 1], [2, 4]])
    _fake_run_dir(tmp_path / "b1", "W5-modular", 1, 5.0, [5.0], [[3]])
    dirs = [str(tmp_path / d) for d in ("a0", "a1", "b0", "b1")]
    code = run_cli("report", *dirs, "--out", str(tmp_path / "r"))
    assert code == 2
    assert "group W5-modular mixes morphology spaces" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_non_square_runs_get_their_own_group(tmp_path):
    # a 3x4 run is labelled W3x4, not W3, so report keeps it apart from the
    # 3x3 runs instead of refusing a group of mixed spaces
    for size in ("3x3", "3x4"):
        for seed in ("1", "2"):
            assert run_cli(*evolve_args(tmp_path / size / seed, **{"--size": size, "--seed": seed, "--pop": "2"})) == 0
    manifest = json.loads((tmp_path / "3x4" / "1" / "manifest.json").read_text())
    assert (manifest["setting"], manifest["group_label"]) == ("W3x4", "W3x4-fixed")
    dirs = [str(tmp_path / size / seed) for size in ("3x3", "3x4") for seed in ("1", "2")]
    assert run_cli("report", *dirs, "--out", str(tmp_path / "r"), "--bootstrap", "10") == 0
    groups = [line.split(",")[0] for line in (tmp_path / "r" / "distances.csv").read_text().splitlines()[1:]]
    assert groups == ["W3-fixed", "W3x4-fixed"]


@pytest.mark.parametrize(
    "name, text",
    [
        ("champion.json", None),
        ("generations.csv", None),
        ("generations.csv", "generation,best\n0,5.0\n"),
        ("manifest.json", "{}"),
        ("champion.json", "[]"),
        ("manifest.json", "[]"),
        ("champion.json", '{"fitness": 5.0, "morphology": []}'),
        ("manifest.json", '{"setting": "W5", "config": []}'),
    ],
)
def test_report_unreadable_run_dir_exits_2(tmp_path, capsys, name, text):
    # a missing file, one that is not a JSON object, or one without a field
    # the report reads or with a field of the wrong type
    _fake_run_dir(tmp_path / "a0", "W5-fixed", 0, 5.0, [5.0], [[3]])
    _fake_run_dir(tmp_path / "b0", "W5-modular", 0, 5.0, [5.0], [[3]])
    if text is None:
        (tmp_path / "b0" / name).unlink()
    else:
        (tmp_path / "b0" / name).write_text(text)
    assert run_cli("report", str(tmp_path / "a0"), str(tmp_path / "b0"), "--out", str(tmp_path / "r")) == 2
    assert str(tmp_path / "b0") in capsys.readouterr().err


@pytest.mark.parametrize("resamples", ["0", "-1"])
def test_report_bootstrap_below_one_exits_2(tmp_path, capsys, resamples):
    _fake_run_dir(tmp_path / "a0", "W5-fixed", 0, 5.0, [5.0], [[3]])
    _fake_run_dir(tmp_path / "b0", "W5-modular", 0, 5.0, [5.0], [[3]])
    out = tmp_path / "r"
    assert run_cli("report", str(tmp_path / "a0"), str(tmp_path / "b0"), "--out", str(out), "--bootstrap", resamples) == 2
    assert "--bootstrap" in capsys.readouterr().err
    assert not out.exists()


def test_report_needs_two_groups(tmp_path):
    _fake_run_dir(tmp_path / "a0", "W5-fixed", 0, 5.0, [5.0], [[3]])
    _fake_run_dir(tmp_path / "a1", "W5-fixed", 1, 6.0, [6.0], [[3]])
    assert run_cli("report", str(tmp_path / "a0"), str(tmp_path / "a1"), "--out", str(tmp_path / "r")) == 2


def test_a_run_record_cut_short_leaves_no_finished_marker(tmp_path):
    # generations.csv marks a finished run, so it appears whole or not at
    # all; a write that fails partway leaves the directory resumable
    out = tmp_path / "run"
    argv = evolve_args(out, **{"--gens": "3", "--checkpoint-interval": "1"})
    result = evolution.evolve(config_from_args(build_parser().parse_args(argv)))

    class Unwritable:
        generation = 99

        def __getattr__(self, name):
            raise OSError("disk full")

    cut = evolution.RunResult(**{**vars(result), "stats": result.stats[:2] + [Unwritable()]})
    with pytest.raises(OSError):
        cli.write_run_outputs(cut, str(out))
    assert (out / "champion.json").exists()
    assert not (out / "generations.csv").exists()
    assert run_cli(*argv, "--resume") == 0  # the run is not refused as finished
    assert len((out / "generations.csv").read_text().splitlines()) == 5


def test_resume_after_interrupt(monkeypatch, tmp_path):
    full = tmp_path / "full"
    assert run_cli(*evolve_args(full, **{"--gens": "3", "--checkpoint-interval": "1"})) == 0
    full_log = (full / "generations.csv").read_bytes()

    # interrupt a second run as it starts generation 3, after generation 2's checkpoint
    out = tmp_path / "run"
    argv = evolve_args(out, **{"--gens": "3", "--checkpoint-interval": "1"})
    original = evolution.advance_generation
    started, interrupt_at = [], {3}

    def interruptible(pop, *args):
        started.append(pop.generation + 1)
        if started[-1] in interrupt_at:
            raise KeyboardInterrupt
        return original(pop, *args)

    monkeypatch.setattr(evolution, "advance_generation", interruptible)
    assert run_cli(*argv) == 3
    assert started == [1, 2, 3]
    assert not (out / "generations.csv").exists()
    assert json.loads((out / "checkpoint.json").read_text())["generation"] == 2

    started.clear()
    interrupt_at.clear()
    assert run_cli(*argv, "--resume") == 0
    assert started == [3]  # exactly one generation, the interrupted one
    assert (out / "generations.csv").read_bytes() == full_log


def interrupted_run(monkeypatch, out):
    """Interrupt a 3-generation run as it starts generation 3, after
    generation 2's checkpoint; return its arguments."""
    argv = evolve_args(out, **{"--gens": "3", "--checkpoint-interval": "1"})
    original = evolution.advance_generation

    def interrupt_at_3(pop, *args):
        if pop.generation == 2:
            raise KeyboardInterrupt
        return original(pop, *args)

    monkeypatch.setattr(evolution, "advance_generation", interrupt_at_3)
    assert run_cli(*argv) == 3
    monkeypatch.setattr(evolution, "advance_generation", original)
    return argv


@pytest.mark.parametrize("version", [ENGINE_VERSION - 1, None], ids=["older", "missing"])
def test_resume_under_another_engine_exits_2(monkeypatch, tmp_path, capsys, version):
    # an interrupted run's checkpoint holds its engine's fitnesses: resumed
    # under another engine it would mix two engines' in one population
    out = tmp_path / "run"
    argv = interrupted_run(monkeypatch, out)
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["engine_version"] == ENGINE_VERSION
    if version is None:
        del checkpoint["engine_version"]
    else:
        checkpoint["engine_version"] = version
    (out / "checkpoint.json").write_text(json.dumps(checkpoint))
    capsys.readouterr()
    assert run_cli(*argv, "--resume") == 2
    err = capsys.readouterr().err
    assert f"engine version {version}" in err and f"engine version {ENGINE_VERSION}" in err
    assert not (out / "generations.csv").exists()


@pytest.mark.parametrize("controller", ["fixed", "modular"])
def test_resumed_champion_equals_uninterrupted(monkeypatch, tmp_path, controller):
    # the champion keeps ageing while it survives, resumed or not; in the
    # fixed run it is born before the generation-4 checkpoint and survives
    # to 8. A modular run's resume also reads back every weight.
    def argv(out):
        return evolve_args(out, **{"--gens": "8", "--checkpoint-interval": "2", "--pop": "4", "--controller": controller})

    assert run_cli(*argv(tmp_path / "full")) == 0
    original = evolution.advance_generation

    def interrupt_after_4(pop, *args):
        if pop.generation == 4:
            raise KeyboardInterrupt
        return original(pop, *args)

    out = tmp_path / "run"
    monkeypatch.setattr(evolution, "advance_generation", interrupt_after_4)
    assert run_cli(*argv(out)) == 3
    monkeypatch.setattr(evolution, "advance_generation", original)
    assert run_cli(*argv(out), "--resume") == 0
    for name in ("champion.json", "generations.csv"):
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


@pytest.mark.parametrize("damage", ["truncated", "bad-base64", "wrong-count"])
def test_resume_from_an_unreadable_checkpoint_exits_2(monkeypatch, tmp_path, capsys, damage):
    out = tmp_path / "run"
    argv = interrupted_run(monkeypatch, out)
    path = out / "checkpoint.json"
    if damage == "truncated":
        path.write_text(path.read_text()[:100])
    else:
        checkpoint = json.loads(path.read_text())
        checkpoint["members"][1]["controller"][PARAMS_KEY] = "!!" if damage == "bad-base64" else "AAAAAAAAAAA="
        path.write_text(json.dumps(checkpoint))
    capsys.readouterr()
    assert run_cli(*argv, "--resume") == 2
    assert str(path) in capsys.readouterr().err
    assert not (out / "generations.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
