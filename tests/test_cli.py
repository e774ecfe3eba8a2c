"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.size_model import SizePredictionModel


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, tiny_size_model_module):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    tiny_size_model_module.save(path)
    return str(path)


@pytest.fixture(scope="module")
def tiny_size_model_module():
    from repro.core.size_model import build_observation_knees
    from tests.conftest import TINY_GRID

    knees = build_observation_knees(TINY_GRID, seed=0)
    return SizePredictionModel.fit(TINY_GRID, knees)


def test_predict_prints_size(model_path, capsys):
    rc = main(
        [
            "predict",
            "--model", model_path,
            "--size", "100",
            "--ccr", "0.1",
            "--parallelism", "0.6",
            "--regularity", "0.5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted RC size:" in out
    assert "predicted heuristic: mcp" in out


def test_predict_specs(model_path, capsys):
    rc = main(
        [
            "predict",
            "--model", model_path,
            "--size", "100",
            "--ccr", "0.1",
            "--parallelism", "0.6",
            "--regularity", "0.5",
            "--specs",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "--- vgDL ---" in out
    assert "--- ClassAd ---" in out
    assert "--- SWORD ---" in out
    assert "TightBagOf" in out  # ccr 0.1 -> tight connectivity


def test_predict_loose_for_low_ccr(model_path, capsys):
    main(
        [
            "predict",
            "--model", model_path,
            "--size", "100",
            "--ccr", "0.01",
            "--parallelism", "0.6",
            "--regularity", "0.5",
            "--specs",
        ]
    )
    assert "LooseBagOf" in capsys.readouterr().out


def test_train_writes_model(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    rc = main(["train", "--grid", "tiny", "--output", str(out_path), "--seed", "1"])
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert "planes" in data
    loaded = SizePredictionModel.load(out_path)
    assert loaded.predict(100, 0.1, 0.6, 0.5) >= 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ----------------------------------------------------------------------
# Missing / corrupt model files: one-line error, exit code 2
# ----------------------------------------------------------------------
_PREDICT_ARGS = [
    "--size", "100", "--ccr", "0.1", "--parallelism", "0.6", "--regularity", "0.5",
]


def test_predict_missing_model_exits_2(tmp_path, capsys):
    rc = main(["predict", "--model", str(tmp_path / "nope.json"), *_PREDICT_ARGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: size model file not found")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_predict_corrupt_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    rc = main(["predict", "--model", str(bad), *_PREDICT_ARGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load size model")
    assert "Traceback" not in err


def test_predict_wrong_schema_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps({"something": "else"}))
    rc = main(["predict", "--model", str(bad), *_PREDICT_ARGS])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot load size model")


def test_predict_corrupt_heuristic_model_exits_2(model_path, tmp_path, capsys):
    bad = tmp_path / "h.json"
    bad.write_text("garbage")
    rc = main(
        ["predict", "--model", model_path, "--heuristic-model", str(bad), *_PREDICT_ARGS]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot load heuristic model")


def test_train_unwritable_output_exits_2(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "m.json"
    rc = main(["train", "--grid", "tiny", "--output", str(missing_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: cannot write size model" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# experiments subcommand forwards cache and fault-policy flags
# ----------------------------------------------------------------------
def _forwarded_argv(monkeypatch, cli_args):
    from repro.experiments import runner

    seen = {}

    def fake_main(argv):
        seen["argv"] = argv
        return 0

    monkeypatch.setattr(runner, "main", fake_main)
    assert main(["experiments", "--chapter", "4", "--scale", "smoke", *cli_args]) == 0
    return seen["argv"]


def test_experiments_forwards_cache_dir(monkeypatch, tmp_path):
    cache_dir = str(tmp_path / "cache")
    argv = _forwarded_argv(monkeypatch, ["--cache-dir", cache_dir])
    assert argv[argv.index("--cache-dir") + 1] == cache_dir


def test_experiments_forwards_no_cache(monkeypatch):
    argv = _forwarded_argv(monkeypatch, ["--no-cache"])
    assert "--no-cache" in argv


def test_experiments_omits_cache_flags_by_default(monkeypatch):
    argv = _forwarded_argv(monkeypatch, [])
    assert "--cache-dir" not in argv  # runner's own default applies
    assert "--no-cache" not in argv


def test_experiments_forwards_fault_policy_flags(monkeypatch):
    argv = _forwarded_argv(
        monkeypatch,
        ["--max-retries", "5", "--cell-timeout", "30", "--on-error", "skip"],
    )
    assert argv[argv.index("--max-retries") + 1] == "5"
    assert argv[argv.index("--cell-timeout") + 1] == "30.0"
    assert argv[argv.index("--on-error") + 1] == "skip"


# ----------------------------------------------------------------------
# `repro lint` and `repro select --spec/--lint`.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    """A clean spec (three languages + JSON) and a contradictory ClassAd."""
    from repro.core.generator import ResourceSpecification

    d = tmp_path_factory.mktemp("lint")
    spec = ResourceSpecification(
        heuristic="mcp", size=24, min_size=20, clock_min_mhz=2000.0,
        clock_max_mhz=4000.0, connectivity="loose", threshold=0.001,
        dag_name="montage",
    )
    paths = {}
    for name, text in (
        ("ok.vgdl", spec.to_vgdl()),
        ("ok.classad", spec.to_classad()),
        ("ok.xml", spec.to_sword_xml()),
    ):
        p = d / name
        p.write_text(text)
        paths[name] = str(p)
    bad = d / "bad.classad"
    bad.write_text(
        '[\n  Type = "Job";\n  Ports = {\n    [\n      Label = cpu;\n'
        "      Count = 4;\n"
        "      Constraint = cpu.Clock >= 3000 && cpu.Clock <= 2000;\n"
        "      Rank = cpu.Clock\n    ]\n  }\n]\n"
    )
    paths["bad.classad"] = str(bad)
    spec_json = d / "spec.json"
    spec_json.write_text(json.dumps(spec.to_dict()))
    paths["spec.json"] = str(spec_json)
    unsat_json = d / "unsat.json"
    data = spec.to_dict()
    data.update(clock_min_mhz=99999.0, clock_max_mhz=99999.0)
    unsat_json.write_text(json.dumps(data))
    paths["unsat.json"] = str(unsat_json)
    return paths


def test_lint_clean_files_exit_0(spec_files, capsys):
    rc = main(["lint", spec_files["ok.vgdl"], spec_files["ok.classad"],
               spec_files["ok.xml"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("clean") == 3


def test_lint_contradiction_exit_1_with_code_and_span(spec_files, capsys):
    rc = main(["lint", spec_files["bad.classad"]])
    assert rc == 1
    out = capsys.readouterr().out
    assert "SPEC101" in out and "line 7" in out


def test_lint_json_output(spec_files, capsys):
    rc = main(["lint", "--json", spec_files["bad.classad"]])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    [entry] = data.values()
    assert entry["lang"] == "classad"
    assert entry["diagnostics"][0]["code"] == "SPEC101"
    assert entry["diagnostics"][0]["span"]["line"] == 7


def test_lint_json_spec_autodetects(spec_files, capsys):
    # A .json specification document lints without rendering: the JSON
    # frontend lowers ResourceSpecification.to_dict() output directly.
    rc = main(["lint", spec_files["spec.json"]])
    assert rc == 0
    assert "clean (json)" in capsys.readouterr().out


def test_lint_json_lang_can_be_forced(spec_files, capsys):
    rc = main(["lint", "--lang", "json", spec_files["spec.json"]])
    assert rc == 0
    assert "clean (json)" in capsys.readouterr().out


def test_lint_invalid_json_spec_exits_1(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"heuristic": "mcp", "size": -3}')
    rc = main(["lint", str(p)])
    assert rc == 1
    assert "SPEC001" in capsys.readouterr().out


def test_lint_json_with_platform_preflight(spec_files, capsys):
    rc = main(["lint", "--platform", "smoke", spec_files["spec.json"]])
    assert rc == 0
    assert "clean" in capsys.readouterr().out

    rc = main(["lint", "--platform", "smoke", spec_files["unsat.json"]])
    assert rc == 1
    out = capsys.readouterr().out
    assert "SPEC201" in out or "SPEC202" in out


def test_lint_with_platform_preflight(spec_files, capsys):
    rc = main(["lint", "--platform", "smoke", spec_files["ok.vgdl"]])
    assert rc == 0
    assert "clean" in capsys.readouterr().out


def test_lint_missing_file_exits_2(tmp_path, capsys):
    rc = main(["lint", str(tmp_path / "nope.vgdl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_select_user_spec_runs(model_path, spec_files, capsys):
    rc = main([
        "select", "--scale", "smoke", "--seed", "1",
        "--spec", spec_files["spec.json"], "--lint",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert "respecs_pruned=" in out


def test_select_montage_levels(spec_files, capsys):
    # --montage-levels N builds the N-image mosaic, as the benchmark does.
    base = ["select", "--scale", "smoke", "--seed", "1", "--spec", spec_files["spec.json"]]
    assert main(base + ["--montage-levels", "3"]) == 0
    assert "fulfilled via" in capsys.readouterr().out
    assert main(base + ["--montage-levels", "0"]) == 2
    assert "--montage-levels must be >= 1" in capsys.readouterr().err


def test_select_unsatisfiable_spec_exits_2(model_path, spec_files, capsys):
    rc = main([
        "select", "--scale", "smoke", "--seed", "1",
        "--spec", spec_files["unsat.json"],
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "statically unsatisfiable" in err
    assert "SPEC201" in err


def test_select_malformed_spec_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc = main(["select", "--scale", "smoke", "--spec", str(p)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# serve: the multi-tenant selection service, end to end
# ----------------------------------------------------------------------
def test_serve_end_to_end_smoke(capsys):
    rc = main(["serve", "--scale", "smoke", "--tenants", "4", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Service outcomes (4 requests)" in out
    assert "fulfilled:" in out
    assert "admitted=4 refused=0 shed=0 crashed=0 fulfilled=4" in out


def test_serve_with_request_file_and_outcome_out(tmp_path, capsys):
    reqs = tmp_path / "requests.json"
    reqs.write_text(json.dumps([
        {"tenant": 0, "arrival_s": 0.0, "size": 5},
        {"tenant": 1, "arrival_s": 0.0, "size": 6},
    ]))
    out_path = tmp_path / "outcomes.json"
    rc = main([
        "serve", "--scale", "smoke", "--seed", "3",
        "--requests", str(reqs), "--outcome-out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Service outcomes (2 requests)" in out
    dumped = json.loads(out_path.read_text())
    assert {o["tenant"] for o in dumped["outcomes"]} == {0, 1}
    assert all(o["admitted"] for o in dumped["outcomes"])
    assert "queue_wait_p99" in dumped["fairness"]


def test_serve_refusals_exit_2(capsys):
    # Admission-control refusals are an operator capacity problem and get
    # their own exit code (2), distinct from admitted-but-unfulfilled (1).
    rc = main([
        "serve", "--scale", "smoke", "--tenants", "6", "--seed", "0",
        "--max-inflight", "1", "--queue-capacity", "0",
    ])
    assert rc == 2
    assert "REFUSED" in capsys.readouterr().out


def test_serve_unfulfilled_exit_1(capsys):
    # A microscopic deadline lets everyone through admission but aborts
    # the ladders: admitted-yet-unfulfilled is exit code 1.
    rc = main([
        "serve", "--scale", "smoke", "--tenants", "4", "--seed", "3",
        "--deadline", "0.001",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "refused=0" in out
    assert "deadline_aborts=" in out


def test_serve_bad_faults_spec_exits_2(capsys):
    # Satellite guarantee: a malformed chaos key fails fast with one
    # readable line naming the key and the accepted set — no traceback.
    rc = main(["serve", "--scale", "smoke", "--faults", "fial=0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fial" in err
    assert "accepted keys" in err
    assert "Traceback" not in err


def test_serve_journal_and_resume_are_mutually_exclusive(tmp_path, capsys):
    rc = main([
        "serve", "--scale", "smoke",
        "--journal", str(tmp_path / "j.jsonl"),
        "--resume", str(tmp_path / "j.jsonl"),
    ])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_serve_malformed_request_file_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([{"tenant": 0}]))  # missing "size"
    rc = main(["serve", "--scale", "smoke", "--requests", str(p)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_serve_bad_churn_spec_exits_2(capsys):
    rc = main(["serve", "--scale", "smoke", "--churn", "nonsense=1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
