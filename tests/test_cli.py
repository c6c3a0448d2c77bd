import concurrent.futures
import io
import json
import os
import stat
import threading
from pathlib import Path

import pytest

import rootcons.harness as harness_mod
from rootcons.adversary import MAX_HORIZON, GenerationRetryError
from rootcons.cli import main
from rootcons.consensus import InvariantViolationError
from rootcons.graphs import lasso_from_json


@pytest.fixture()
def estable_lasso_file(tmp_path):
    path = tmp_path / "lasso.json"
    code = main(
        [
            "generate",
            "--adversary",
            "estable",
            "--n",
            "5",
            "--d",
            "2",
            "--rsr",
            "1",
            "--seed",
            "7",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


def run_cli(capsys, argv):
    capsys.readouterr()  # drop output buffered by fixtures or earlier calls
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if out else None


class TestGenerate:
    def test_round_trips_through_checker(self, capsys, estable_lasso_file):
        code, payload = run_cli(
            capsys, ["check", "--lasso", str(estable_lasso_file), "--adversary", "estable", "--d", "2"]
        )
        assert code == 0
        assert payload["ok"] and payload["certificate"]["r_sr"] == 1

    def test_infeasible_params_exit_2(self, capsys):
        code, payload = run_cli(capsys, ["generate", "--n", "5", "--d", "5"])
        assert code == 2
        assert "1 <= D <= n-1" in payload["error"]

    def test_more_processes_than_the_mask_layout_allows_exit_2(self, capsys):
        code, payload = run_cli(capsys, ["generate", "--n", "1025", "--d", "2"])
        assert code == 2
        assert "n <= 1024" in payload["error"]

    def test_same_flags_identical_files(self, tmp_path, capsys):
        args = ["generate", "--n", "4", "--d", "1", "--rsr", "3", "--seed", "5", "--out"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_outputs_parse_with_module_loaders(self, estable_lasso_file):
        l = lasso_from_json(estable_lasso_file.read_text())
        assert l.n == 5
        cert = json.loads((estable_lasso_file.parent / "lasso.json.cert.json").read_text())
        assert cert["kind"] == "estable"

    def test_altestable_prints_the_checkers_certificate(self, tmp_path, capsys):
        # the planted re-appearances of this lasso are [12], the checker's
        # [11]: stdout and the .cert.json file both carry what check prints
        path = tmp_path / "alt.json"
        code, generated = run_cli(
            capsys,
            ["generate", "--adversary", "altestable", "--n", "2", "--d", "1", "--seed", "3", "--out", str(path)],
        )
        assert code == 0
        code, checked = run_cli(capsys, ["check", "--lasso", str(path), "--adversary", "altestable", "--d", "1"])
        assert code == 0 and checked["certificate"]["reappearances"] == [11]
        assert generated["certificate"] == checked["certificate"]
        assert json.loads(Path(f"{path}.cert.json").read_text()) == checked["certificate"]

    def test_mad_generation(self, capsys):
        code, payload = run_cli(
            capsys,
            ["generate", "--adversary", "mad", "--n", "5", "--d", "2", "--seed", "4"],
        )
        assert code == 0
        assert payload["certificate"]["kind"] == "mad"
        assert payload["certificate"]["params"] == {"D": 2, "x": 2, "y": 2}

    def test_mad_generation_with_explicit_x_and_y(self, tmp_path, capsys):
        # x and y reach check_mad from the flags and from the params JSON alike
        params = tmp_path / "params.json"
        params.write_text('{"n": 5, "D": 2, "seed": 4, "x": 2, "y": 3}')
        for argv in (
            ["--n", "5", "--d", "2", "--seed", "4", "--x", "2", "--y", "3"],
            ["--params", str(params)],
        ):
            code, payload = run_cli(capsys, ["generate", "--adversary", "mad"] + argv)
            assert code == 0, payload
            assert payload["certificate"]["params"] == {"D": 2, "x": 2, "y": 3}

    def test_mad_unsupported_regime_exit_2(self, capsys):
        code, _ = run_cli(
            capsys,
            ["generate", "--adversary", "mad", "--n", "5", "--d", "2", "--x", "3", "--y", "1"],
        )
        assert code == 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mad_lasso_outside_the_requested_class_exit_2(self, capsys, seed):
        # alt_safety(0) needs a single root in the earliest common-root run; round 1 has several
        code, payload = run_cli(
            capsys,
            ["generate", "--adversary", "mad", "--n", "5", "--d", "2", "--x", "0", "--y", "0", "--seed", str(seed)],
        )
        assert code == 2
        assert payload == {"ok": False, "error": "generated lasso does not satisfy the requested mad(x, y)"}


class TestCheck:
    def test_unsatisfied_exit_1(self, tmp_path, capsys):
        # two isolated processes never stabilize to a single root
        path = tmp_path / "flat.json"
        path.write_text('{"n": 2, "prefix": [], "cycle": [[]]}')
        code, payload = run_cli(
            capsys, ["check", "--lasso", str(path), "--adversary", "estable", "--d", "1"]
        )
        assert code == 1
        assert payload["ok"] is False and payload["witness"]["failed"] == "liveness"

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, payload = run_cli(
            capsys, ["check", "--lasso", str(path), "--adversary", "estable", "--d", "1"]
        )
        assert code == 2

    def test_vsrc_and_diameter_subchecks(self, capsys, estable_lasso_file):
        code, payload = run_cli(
            capsys,
            ["check", "--lasso", str(estable_lasso_file), "--adversary", "vsrc", "--d", "2"],
        )
        assert code == 0 and payload["ok"]
        code, payload = run_cli(
            capsys,
            ["check", "--lasso", str(estable_lasso_file), "--adversary", "diameter", "--d", "2"],
        )
        assert code == 0 and payload["witness"] is None


    def test_horizon_below_one_exit_2(self, tmp_path, capsys):
        from rootcons.graphs import lasso_to_json
        from rootcons.harness import scenario_hop_fallacy

        path = tmp_path / "hop.json"
        path.write_text(lasso_to_json(scenario_hop_fallacy(5)))
        argv = ["check", "--lasso", str(path), "--adversary", "diameter", "--d", "2"]
        code, payload = run_cli(capsys, argv)
        assert code == 1 and payload["witness"]["process"] == 4
        for horizon in ("0", "-3"):
            code, payload = run_cli(capsys, argv + ["--horizon", horizon])
            assert code == 2
            assert payload["ok"] is False and "horizon" in payload["error"]

    def test_horizon_past_the_bound_exit_2(self, capsys, estable_lasso_file):
        # unbounded, this horizon unrolled a bitset per round and died of a
        # MemoryError traceback (exit 1, read as "not satisfied")
        argv = ["check", "--lasso", str(estable_lasso_file), "--d", "2"]
        code, payload = run_cli(capsys, argv + ["--horizon", str(MAX_HORIZON)])
        assert code == 0 and payload["ok"]
        for horizon in (MAX_HORIZON + 1, 99999999999):
            code, payload = run_cli(capsys, argv + ["--horizon", str(horizon)])
            assert code == 2
            assert payload == {"ok": False, "error": f"horizon must be in 1..{MAX_HORIZON}, got {horizon}"}

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("estable", ["--d", "0"]),
            ("altestable", ["--d", "0"]),
            ("mad", ["--d", "0"]),
            ("estable", ["--d", "9"]),
            ("altestable", ["--d", "9"]),
            ("altliveness", ["--d", "9"]),
            ("safety", ["--d", "2", "--x", "0"]),
            ("mad", ["--d", "2", "--y", "-1"]),
            ("vsrc", ["--d", "2", "--window", "0"]),
            ("vsrc", ["--d", "2", "--window", "-1"]),
        ],
    )
    def test_bad_parameters_exit_2_before_any_condition(self, tmp_path, capsys, kind, flags):
        # every process isolated: liveness and alt-safety fail, so a late
        # parameter check would report "not satisfied" instead
        path = tmp_path / "isolated.json"
        path.write_text('{"n": 5, "prefix": [], "cycle": [[]]}')
        code, payload = run_cli(capsys, ["check", "--lasso", str(path), "--adversary", kind] + flags)
        assert code == 2
        assert payload["ok"] is False and payload["error"]

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"n": 3, "prefix": null, "cycle": [[]]}', "'prefix' must be a list of edge lists"),
            ('{"n": 3, "cycle": {"0": []}}', "'cycle' must be a list of edge lists"),
            ('{"n": 3, "cycle": [7]}', "'cycle' must be a list of edge lists"),
            ('{"n": 3, "cycle": [[[1, 2.5]]]}', "edge [1, 2.5] is not a pair of integers"),
            ('{"n": 3, "cycle": [[[true, 2]]]}', "edge [true, 2] is not a pair of integers"),
            ('{"n": 3, "cycle": [[[1, 2, 3]]]}', "edge [1, 2, 3] is not a pair of integers"),
            ('{"n": 3, "cycle": [[[1]]]}', "edge [1] is not a pair of integers"),
            ('{"n": 3, "cycle": [[12]]}', "edge 12 is not a pair of integers"),
            ('{"n": 3, "cycle": [[[0, 2]]]}', "graph 0 invalid: endpoint out of range (0->2)"),
            ('{"n": 3, "prefix": [[]], "cycle": [[[2, 9]]]}', "graph 1 invalid: endpoint out of range (2->9)"),
            ('{"n": 3, "cycle": [[[2, 9], [0, 2]]]}', "graph 0 invalid: endpoint out of range (0->2)"),
            ('{"n": true, "cycle": [[]]}', "'n' must be an integer in 1..1024, got True"),
            ('{"n": 3.0, "cycle": [[]]}', "'n' must be an integer in 1..1024, got 3.0"),
            ('{"n": 1025, "cycle": [[]]}', "'n' must be an integer in 1..1024, got 1025"),
            ('{"n": 1000000000000, "cycle": [[]]}', "'n' must be an integer in 1..1024"),
            ("[1, 2]", "lasso JSON must be an object, got list"),
        ],
    )
    def test_malformed_lasso_exit_2_without_traceback(self, capsys, monkeypatch, text, error):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        capsys.readouterr()
        code = main(["check", "--lasso", "-", "--d", "1"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out.strip().splitlines()[-1])
        assert code == 2 and payload["ok"] is False
        assert error in payload["error"]
        assert "Traceback" not in captured.err


GOLDEN = Path(__file__).parent / "check_golden.json"
SCENARIO_GOLDEN = Path(__file__).parent / "scenario_golden.json"
RUN_GOLDEN = Path(__file__).parent / "run_golden.json"

# The golden file holds `check` output recorded before the checker table.  An
# unsatisfied kind that issues certificates now also names the condition that
# failed, with that condition's witness; every other field is unchanged.
NAMED_FAILURES = {
    ("eps2", "mad"): {"failed": "alt_safety", "detail": {"root": [1], "start": 1, "end": 2}},
    ("generated_estable", "mad"): {"failed": "alt_safety", "detail": {"root": [4], "start": 1, "end": 2}},
    ("stab_not_enough", "altestable"): {"failed": "alt_safety", "detail": {"root": [1], "start": 1, "end": 4}},
    ("stab_not_enough", "mad"): {"failed": "alt_safety", "detail": {"root": [1], "start": 1, "end": 4}},
    ("disconnected", "altestable"): {"failed": "alt_safety", "detail": {"root": [1], "start": 1, "end": None}},
    ("disconnected", "mad"): {"failed": "alt_safety", "detail": {"root": [1], "start": 1, "end": None}},
    ("disconnected", "liveness"): {"failed": "liveness", "detail": None},
    ("disconnected", "altliveness"): {"failed": "alt_liveness", "detail": None},
    ("hop_fallacy", "altestable"): {
        "failed": "dynamic_diameter",
        "detail": {"root": [1], "rounds": [1, 2], "process": 4},
    },
    ("hop_fallacy", "mad"): {
        "failed": "dynamic_diameter",
        "detail": {"root": [1], "rounds": [1, 2], "process": 4},
    },
}


def test_check_matches_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    for name, data in golden["lassos"].items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    named = set()
    for case in golden["cases"]:
        path = tmp_path / f"{case['lasso']}.json"
        code, payload = run_cli(capsys, ["check", "--lasso", str(path)] + case["argv"])
        expected = dict(case["payload"])
        key = (case["lasso"], expected["kind"])
        if key in NAMED_FAILURES and not expected["ok"]:
            assert expected["witness"] is None
            expected["witness"] = NAMED_FAILURES[key]
            named.add(key)
        assert (code, payload) == (case["exit"], expected), case["argv"]
    assert named == set(NAMED_FAILURES)


class TestRun:
    def test_successful_run_exit_0(self, capsys, estable_lasso_file, tmp_path):
        trace_out = tmp_path / "trace.jsonl"
        code, payload = run_cli(
            capsys,
            [
                "run",
                "--lasso",
                str(estable_lasso_file),
                "--inputs",
                "3,1,4,1,5",
                "--d",
                "2",
                "--trace-out",
                str(trace_out),
            ],
        )
        assert code == 0
        assert payload["ok"] and payload["latest_decision_round"] <= 5
        lines = trace_out.read_text().strip().splitlines()
        assert all(json.loads(line)["round"] == i + 1 for i, line in enumerate(lines))

    def test_bounded_mode_matches_full(self, capsys, estable_lasso_file):
        _, full = run_cli(
            capsys,
            ["run", "--lasso", str(estable_lasso_file), "--inputs", "3,1,4,1,5", "--d", "2"],
        )
        _, bounded = run_cli(
            capsys,
            [
                "run",
                "--lasso",
                str(estable_lasso_file),
                "--inputs",
                "3,1,4,1,5",
                "--d",
                "2",
                "--mode",
                "bounded:5",
            ],
        )
        assert full["decisions"] == bounded["decisions"]

    def test_static_chain_zeros_latest_round_five(self, tmp_path, capsys):
        from conftest import EPS1_EDGES
        from rootcons.graphs import lasso, lasso_to_json

        path = tmp_path / "eps1.json"
        path.write_text(lasso_to_json(lasso(5, cycle=[EPS1_EDGES])))
        code, payload = run_cli(
            capsys, ["run", "--lasso", str(path), "--inputs", "0,0,0,0,0", "--d", "2"]
        )
        assert code == 0
        assert payload["latest_decision_round"] == 5

    def test_agreement_failure_exit_1(self, tmp_path, capsys):
        # isolated head for 4 rounds, then a different head takes over
        from rootcons.harness import scenario_stab_not_enough
        from rootcons.graphs import lasso_to_json

        _, cfg2 = scenario_stab_not_enough(5, tau=4, D=1)
        path = tmp_path / "stab.json"
        path.write_text(lasso_to_json(cfg2.lasso))
        code, payload = run_cli(
            capsys, ["run", "--lasso", str(path), "--inputs", "1,0,0,0,0", "--d", "1"]
        )
        assert code == 1
        assert payload["oracle"]["agreement"] is False

    @pytest.mark.parametrize(
        "flags",
        [
            ["--d", "0"],
            ["--d", "9"],
            ["--d", "2", "--mode", "weird"],
            ["--d", "2", "--mode", "bounded:x"],
            ["--d", "2", "--horizon", "0"],
            ["--d", "2", "--mode", "bounded:4"],
        ],
    )
    def test_bad_config_exit_2(self, capsys, estable_lasso_file, flags):
        code, payload = run_cli(
            capsys, ["run", "--lasso", str(estable_lasso_file), "--inputs", "3,1,4,1,5"] + flags
        )
        assert code == 2
        assert payload["ok"] is False and payload["error"]

    def test_horizon_past_the_bound_exit_2(self, capsys, tmp_path):
        # a lasso that is not estable, so the run checks altestable to its
        # horizon; unbounded, that died of a MemoryError traceback
        path = tmp_path / "alt.json"
        assert main(["generate", "--adversary", "altestable", "--n", "5", "--d", "2", "--seed", "1", "--out", str(path)]) == 0
        horizon = MAX_HORIZON + 1
        code, payload = run_cli(capsys, ["run", "--lasso", str(path), "--inputs", "1,2,3,4,5", "--d", "2", "--horizon", str(horizon)])
        assert code == 2
        assert payload == {"ok": False, "error": f"horizon must be in 1..{MAX_HORIZON}, got {horizon}"}

    def test_lasso_past_the_horizon_bound_exit_2(self, capsys, tmp_path):
        # the altestable check scans at least to the lasso's default
        # horizon, whatever --horizon says, and this lasso's passes the bound
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"n": 2, "cycle": [[]] * (MAX_HORIZON // 2)}))
        code, payload = run_cli(capsys, ["run", "--lasso", str(path), "--inputs", "1,2", "--d", "1", "--horizon", "10"])
        assert code == 2
        assert payload == {"ok": False, "error": f"horizon must be in 1..{MAX_HORIZON}, got {MAX_HORIZON + 4}"}

    def test_seventeen_processes_run_and_pass(self, capsys, tmp_path):
        path = tmp_path / "n17.json"
        assert main(["generate", "--n", "17", "--d", "2", "--rsr", "1", "--out", str(path)]) == 0
        inputs = ",".join(str(p) for p in range(17))
        code, payload = run_cli(capsys, ["run", "--lasso", str(path), "--inputs", inputs, "--d", "2"])
        assert code == 0
        assert payload["ok"] and len(payload["decisions"]) == 17

    def test_more_processes_than_the_run_limit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "n65.json"
        assert main(["generate", "--n", "65", "--d", "2", "--rsr", "1", "--out", str(path)]) == 0
        code, payload = run_cli(
            capsys, ["run", "--lasso", str(path), "--inputs", ",".join(["0"] * 65), "--d", "2"]
        )
        assert code == 2
        assert payload["ok"] is False and "n must be <= 64, got 65" in payload["error"]

    @pytest.mark.parametrize("text", [None, '{"n": 3, "cycle": [[[1, 2.5]]]}', "{not json"])
    def test_unloadable_lasso_exit_2_without_traceback(self, capsys, tmp_path, text):
        # None: the path does not exist
        path = tmp_path / "lasso.json"
        if text is not None:
            path.write_text(text)
        capsys.readouterr()
        code = main(["run", "--lasso", str(path), "--inputs", "1,2,3", "--d", "1"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out.strip().splitlines()[-1])
        assert code == 2 and payload["ok"] is False
        assert payload["error"].startswith("cannot load lasso: ")
        assert "Traceback" not in captured.err

    def test_bad_inputs_exit_2(self, capsys, estable_lasso_file):
        code, payload = run_cli(capsys, ["run", "--lasso", str(estable_lasso_file), "--inputs", "1,x", "--d", "2"])
        assert code == 2
        assert payload["error"].startswith("bad inputs: ")

    def test_input_count_mismatch_exit_2(self, capsys, estable_lasso_file):
        code, _ = run_cli(
            capsys, ["run", "--lasso", str(estable_lasso_file), "--inputs", "1,2", "--d", "2"]
        )
        assert code == 2

    def test_invariant_violation_exit_3(self, capsys, estable_lasso_file, monkeypatch):
        step = harness_mod.core_step

        def failing(s, m, D):
            if (s.pid, m) == (2, 4):
                raise InvariantViolationError("synthetic failure")
            return step(s, m, D)

        monkeypatch.setattr(harness_mod, "core_step", failing)
        code, payload = run_cli(
            capsys, ["run", "--lasso", str(estable_lasso_file), "--inputs", "1,2,3,4,5", "--d", "2"]
        )
        assert code == 3
        assert (payload["pid"], payload["round"]) == (2, 4)
        assert payload["invariant_violation"] == "p2 round 4: synthetic failure"

    def test_invariant_violation_while_tracing_writes_nothing(self, capsys, estable_lasso_file, monkeypatch, tmp_path):
        # the trace lines are written as the run steps, to a temporary file
        # that becomes the trace only when the run ends: none is left
        step = harness_mod.core_step

        def failing(s, m, D):
            if (s.pid, m) == (2, 4):
                raise InvariantViolationError("synthetic failure")
            return step(s, m, D)

        monkeypatch.setattr(harness_mod, "core_step", failing)
        trace_out = tmp_path / "out" / "trace.jsonl"
        code, payload = run_cli(capsys, [
            "run", "--lasso", str(estable_lasso_file), "--inputs", "1,2,3,4,5", "--d", "2",
            "--trace-out", str(trace_out),
        ])
        assert code == 3
        assert (payload["pid"], payload["round"]) == (2, 4)
        assert not trace_out.exists() and not Path(f"{trace_out}.summary.json").exists()
        assert list(trace_out.parent.iterdir()) == []

    def test_dot_export(self, capsys, estable_lasso_file, tmp_path):
        dots = tmp_path / "dots"
        code, _ = run_cli(
            capsys,
            [
                "run",
                "--lasso",
                str(estable_lasso_file),
                "--inputs",
                "0,0,0,0,0",
                "--d",
                "2",
                "--dot-out",
                str(dots),
            ],
        )
        assert code == 0
        first = (dots / "round001.dot").read_text()
        assert first.startswith("digraph") and "doublecircle" in first

    def test_matches_golden(self, capsys, tmp_path):
        # stdout and --trace-out of the CI lassos (generate --n 6 --d 2 and
        # --n 24 --d 3, both --rsr 6 --seed 3) in full and bounded mode,
        # recorded byte for byte
        golden = json.loads(RUN_GOLDEN.read_text())
        for name, data in golden["lassos"].items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        trace_out = tmp_path / "trace.jsonl"
        for case in golden["cases"]:
            files = ["--lasso", str(tmp_path / f"{case['lasso']}.json"), "--trace-out", str(trace_out)]
            capsys.readouterr()
            code = main(case["argv"][:1] + files + case["argv"][1:])
            assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"]), case["argv"]
            assert trace_out.read_text() == case["trace"], case["argv"]


class TestScenario:
    def test_eps_pair_exit_0(self, capsys):
        code, payload = run_cli(capsys, ["scenario", "eps-pair", "--n", "5", "--d", "2"])
        assert code == 0
        assert payload["checks"]["p2_indistinguishable_through_2D"]

    def test_stab_not_enough_exit_0(self, capsys):
        code, payload = run_cli(
            capsys, ["scenario", "stab-not-enough", "--n", "6", "--tau", "4", "--d", "1"]
        )
        assert code == 0
        assert payload["checks"]["eps2_agreement_fails"]

    def test_hop_fallacy_exit_0(self, capsys):
        code, payload = run_cli(capsys, ["scenario", "hop-fallacy", "--n", "5"])
        assert code == 0
        assert payload["causal_distance"] == 4
        assert payload["per_round_distance"] == 2

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["scenario", "nope"]) == 2

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["eps-pair", "--n", "3"], "eps pair needs n >= 4"),
            (["eps-pair", "--n", "5", "--d", "3"], "1 <= D <= n-3"),
            (["eps-pair", "--rsr-prefix", "-1"], "r_sr_prefix must be >= 0"),
            (["stab-not-enough", "--n", "1"], "need n >= 2"),
            (["stab-not-enough", "--tau", "0"], "tau must be >= 1"),
            (["hop-fallacy", "--n", "3"], "need n >= 4"),
        ],
    )
    def test_bad_parameters_exit_2_without_traceback(self, capsys, argv, error):
        capsys.readouterr()
        code = main(["scenario", *argv])
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert code == 2 and len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["ok"] is False and error in payload["error"]
        assert "Traceback" not in captured.err

    def test_matches_golden(self, capsys):
        # stdout of the CI argument sets, recorded byte for byte
        for case in json.loads(SCENARIO_GOLDEN.read_text())["cases"]:
            capsys.readouterr()
            code = main(case["argv"])
            assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"]), case["argv"]


class TestFuzz:
    def test_exit_0_on_all_pass(self, capsys, tmp_path):
        report = tmp_path / "fuzz.json"
        code, payload = run_cli(
            capsys,
            ["fuzz", "--adversary", "estable", "--trials", "15", "--seed", "1", "--report-out", str(report)],
        )
        assert code == 0
        assert payload["passed"] == 15
        assert json.loads(report.read_text())["passed"] == 15

    @pytest.mark.parametrize("adversary", ["estable", "altestable"])
    def test_past_sixteen_processes_exit_0(self, capsys, adversary):
        code, payload = run_cli(
            capsys, ["fuzz", "--adversary", adversary, "--n-range", "17:24", "--trials", "3", "--d-cap", "3"]
        )
        assert code == 0
        assert payload["passed"] == 3

    def test_bad_range_exit_2(self, capsys):
        code, _ = run_cli(capsys, ["fuzz", "--n-range", "oops"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "weird"],
            ["--n-range", "65:65"],
            ["--d-cap", "0"],
            ["--n-range", "5:3"],
            ["--n-range", "1:1"],
            ["--mode", "bounded:3", "--d-cap", "3"],
        ],
    )
    def test_bad_config_exit_2_before_any_trial(self, capsys, flags):
        code, payload = run_cli(capsys, ["fuzz", "--trials", "2"] + flags)
        assert code == 2
        assert payload["ok"] is False and payload["error"]

    @pytest.mark.parametrize("jobs", ["0", "-3", "10000"])
    def test_jobs_outside_cpu_count_exit_2(self, capsys, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            pytest.fail(f"a process pool was started for --jobs {jobs}")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, payload = run_cli(capsys, ["fuzz", "--trials", "2", "--jobs", jobs])
        assert code == 2
        assert payload["ok"] is False and "jobs must be in 1.." in payload["error"]

    @pytest.mark.parametrize(
        "exc, code",
        [(ValueError("bad trial configuration"), 2), (GenerationRetryError("gave up"), 1)],
    )
    def test_exit_2_only_when_every_failure_is_config(self, capsys, monkeypatch, exc, code):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(harness_mod, "fuzz_trial", failing)
        got, payload = run_cli(capsys, ["fuzz", "--trials", "3"])
        assert got == code
        assert payload["passed"] == 0 and len(payload["failures"]) == 3

    def test_jobs_flag_same_results(self, capsys):
        _, serial = run_cli(capsys, ["fuzz", "--trials", "8", "--seed", "3"])
        _, parallel = run_cli(capsys, ["fuzz", "--trials", "8", "--seed", "3", "--jobs", "2"])
        assert serial == parallel


class TestGenerateParamsJson:
    def test_params_file(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"n": 5, "D": 2, "r_sr_target": 4, "seed": 11}')
        code, payload = run_cli(capsys, ["generate", "--params", str(params)])
        assert code == 0
        assert payload["certificate"]["r_sr"] == 4

    def test_flags_override_params(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"n": 5, "D": 2, "r_sr_target": 4}')
        code, payload = run_cli(
            capsys, ["generate", "--params", str(params), "--rsr", "2", "--seed", "1"]
        )
        assert code == 0
        assert payload["certificate"]["r_sr"] == 2

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"n": 5, "D": 2, "bogus": 1}')
        code, _ = run_cli(capsys, ["generate", "--params", str(params)])
        assert code == 2

    def test_missing_required_exit_2(self, capsys):
        code, _ = run_cli(capsys, ["generate", "--n", "5"])
        assert code == 2

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"n": "x", "D": 2}', "params field 'n' must be an integer or null, got 'x'"),
            ('{"n": 5.0, "D": 2}', "params field 'n' must be an integer or null, got 5.0"),
            ('{"n": 5, "D": 2, "seed": "abc"}', "params field 'seed' must be an integer or null"),
            ('{"n": 5, "D": true}', "params field 'D' must be an integer or null, got True"),
            ('{"n": 5, "D": 2, "x": [1]}', "params field 'x' must be an integer or null"),
            ('"hello"', "params JSON must be an object, got str"),
            ("[5, 2]", "params JSON must be an object, got list"),
        ],
        ids=["string-n", "float-n", "string-seed", "bool-D", "list-x", "string", "array"],
    )
    def test_badly_typed_params_exit_2(self, tmp_path, capsys, text, error):
        params = tmp_path / "params.json"
        params.write_text(text)
        code, payload = run_cli(capsys, ["generate", "--params", str(params)])
        assert code == 2
        assert payload["ok"] is False and error in payload["error"]

    def test_null_params_fall_back_to_defaults(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"n": 5, "D": 2, "seed": null, "r_sr_target": null}')
        code, payload = run_cli(capsys, ["generate", "--params", str(params)])
        assert code == 0 and payload["ok"]


class TestUsageErrors:
    """A command line the parser rejects is an input error: exit 2, one JSON
    error line on stdout, the usage on stderr.  ``--help`` is exit 0."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["run", "--lasso", "x.json", "--inputs", "1", "--d", "2", "--horizon", "x"],
             "rootcons run: argument --horizon: invalid int value: 'x'"),
            (["run", "--inputs", "1,2"], "rootcons run: the following arguments are required: --lasso, --d"),
            (["nope"], "rootcons: argument command: invalid choice: 'nope'"),
            ([], "rootcons: the following arguments are required: command"),
            (["fuzz", "--trials", "abc"], "rootcons fuzz: argument --trials: invalid int value: 'abc'"),
            (["check", "--lasso", "x.json", "--d", "1", "--adversary", "bogus"], "invalid choice: 'bogus'"),
            (["generate", "--n", "5", "--bogus"], "rootcons: unrecognized arguments: --bogus"),
        ],
    )
    def test_exit_2_with_one_json_error(self, capsys, argv, error):
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 2 and len(lines) == 1
        payload = json.loads(lines[0])
        assert sorted(payload) == ["error", "ok"] and payload["ok"] is False
        assert error in payload["error"]
        assert captured.err.startswith("usage: rootcons") and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["fuzz", "-h"]])
    def test_help_exit_0(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: rootcons")


class TestUnwritableOutputs:
    """An output path that cannot be written, here one under a regular file,
    is an input error: exit 2, one JSON error line on stdout, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--n", "4", "--d", "1", "--out", "{blocked}/x.json"],
            ["run", "--lasso", "{lasso}", "--inputs", "1,2,3,4,5", "--d", "2", "--trace-out", "{blocked}/t.jsonl"],
            ["run", "--lasso", "{lasso}", "--inputs", "1,2,3,4,5", "--d", "2", "--dot-out", "{blocked}/dot"],
            ["scenario", "hop-fallacy", "--n", "5", "--out-dir", "{blocked}/lassos"],
            ["fuzz", "--trials", "2", "--report-out", "{blocked}/report.json"],
        ],
        ids=["generate-out", "run-trace-out", "run-dot-out", "scenario-out-dir", "fuzz-report-out"],
    )
    def test_exit_2_with_one_json_error(self, capsys, tmp_path, estable_lasso_file, argv):
        blocked = tmp_path / "regular-file"
        blocked.write_text("")
        capsys.readouterr()
        code = main([a.format(blocked=blocked, lasso=estable_lasso_file) for a in argv])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 2 and len(lines) == 1
        payload = json.loads(lines[0])
        assert sorted(payload) == ["error", "ok"] and payload["ok"] is False
        assert payload["error"].startswith(f"cannot write {blocked}/")
        assert "Traceback" not in captured.err
        assert blocked.read_text() == ""


class TestOutputPathKinds:
    """Every output goes through one writer: a regular file is written whole
    or not at all, a link's target is written and the link stays, and a FIFO
    is written in place.  Every path here is under tmp_path."""

    def trace_argv(self, lasso, trace):
        return ["run", "--lasso", str(lasso), "--inputs", "1,2,3,4,5", "--d", "2", "--trace-out", str(trace)]

    def test_unwritable_summary_fails_before_round_one(self, capsys, estable_lasso_file, tmp_path, monkeypatch):
        # the summary is opened before the run steps: a directory in its
        # place fails the command with no round run and no trace written
        out = tmp_path / "out"
        summary = out / "t.jsonl.summary.json"
        summary.mkdir(parents=True)
        steps = []
        step = harness_mod.core_step
        monkeypatch.setattr(harness_mod, "core_step", lambda *args: steps.append(args[1]) or step(*args))
        code, payload = run_cli(capsys, self.trace_argv(estable_lasso_file, out / "t.jsonl"))
        assert code == 2 and payload["error"].startswith(f"cannot write {summary}: ")
        assert steps == [] and list(out.iterdir()) == [summary]

    def test_trace_through_a_symlink_writes_its_target(self, capsys, estable_lasso_file, tmp_path):
        plain, target, link = tmp_path / "plain.jsonl", tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        assert run_cli(capsys, self.trace_argv(estable_lasso_file, plain))[0] == 0
        target.write_text("old\n")
        link.symlink_to(target)
        assert run_cli(capsys, self.trace_argv(estable_lasso_file, link))[0] == 0
        assert link.is_symlink() and link.readlink() == target
        assert target.read_text() == plain.read_text() and plain.read_text().count("\n") > 0
        assert not any(p.name.startswith(".") for p in tmp_path.iterdir())  # no .part file is left

    def test_trace_replacing_a_file_keeps_its_permissions(self, capsys, estable_lasso_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("old\n")
        trace.chmod(0o600)
        assert run_cli(capsys, self.trace_argv(estable_lasso_file, trace))[0] == 0
        assert stat.S_IMODE(trace.stat().st_mode) == 0o600 and trace.read_text() != "old\n"

    def test_trace_into_a_fifo_reaches_its_reader(self, capsys, estable_lasso_file, tmp_path):
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with fifo.open() as pipe:
                received.extend(pipe.read().splitlines())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, payload = run_cli(capsys, self.trace_argv(estable_lasso_file, fifo))
        reader.join(timeout=30)
        assert not reader.is_alive(), "the FIFO's reader got no end of file"
        assert code == 0 and payload["ok"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        rounds = json.loads(Path(f"{fifo}.summary.json").read_text())["rounds"]
        assert [json.loads(line)["round"] for line in received] == list(range(1, rounds + 1))

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--lasso", "{lasso}", "--inputs", "1,2,3,4,5", "--d", "2", "--trace-out", "{target}"],
            ["fuzz", "--trials", "2", "--report-out", "{target}"],
        ],
        ids=["run-trace-out", "fuzz-report-out"],
    )
    def test_failed_rename_leaves_the_target_and_no_part_file(
        self, capsys, estable_lasso_file, tmp_path, monkeypatch, argv
    ):
        def failing(src, dst):
            raise OSError("synthetic rename failure")

        out = tmp_path / "out"
        out.mkdir()
        target = out / "target.json"
        target.write_text("old\n")
        monkeypatch.setattr(os, "replace", failing)
        code, payload = run_cli(capsys, [a.format(lasso=estable_lasso_file, target=target) for a in argv])
        assert code == 2
        assert payload == {"ok": False, "error": f"cannot write {target}: synthetic rename failure"}
        assert list(out.iterdir()) == [target] and target.read_text() == "old\n"
