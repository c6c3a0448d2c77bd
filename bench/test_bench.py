"""Self-tests of the benchmark at tiny sizes: ``python -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload, *extra, trace=0):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny", *extra)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


def digest_line(lines):
    return next(line.split()[1] for line in lines if line.strip().startswith("digest "))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, lines, result = tiny(workload)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name
        assert any(line.split()[:1] == [name] for line in lines), name
    assert any(line.split()[:1] == ["failed_share"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc, lines, result = tiny(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = {line.split()[0]: line for line in lines[:-1] if line.startswith("  ")}
    for name in expected:
        assert name in report, name
    monitor = report["harness.monitor.self_s"]
    if workload in ("run-full", "fuzz-altestable"):
        assert result["metrics"]["harness.monitor.calls"]["value"] > 0
    else:
        assert "absent" in monitor and result["metrics"]["harness.monitor.calls"]["value"] == 0


def test_wrong_expected_digest_counts_as_failure():
    proc, _, result = tiny("certify", "--expect-digest", "0" * 64)
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_full_and_bounded_runs_share_their_digest():
    _, full_lines, _ = tiny("run-full")
    _, bounded_lines, _ = tiny("run-bounded-long")
    assert digest_line(full_lines) == digest_line(bounded_lines)


def test_recorded_digests_cover_the_held_out_seed_and_agree_across_modes():
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    assert set(recorded) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert "1001" in recorded[workload], workload
    assert recorded["run-full"] == recorded["run-bounded-long"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_sweep_reports_every_point():
    proc = bench("--n", "5,6", "--r-sr", "4", "--long-horizon", "20", "--D", "2",
                 script=BENCH_DIR / "sweep.py")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert len(result["points"]) == 2 * 3
    assert {p["mode"] for p in result["points"]} == {"full", "bounded:5"}


def test_host_clock_normalises_each_unit_by_the_probes_around_it(monkeypatch):
    sys.path.insert(0, str(BENCH_DIR))
    import hostspeed

    probes = iter([0.002, 0.004, 0.008, 0.008])
    monkeypatch.setattr(hostspeed, "probe_s", lambda: next(probes))
    monkeypatch.setattr(hostspeed, "PROBE_GAP_S", 0.0)
    clock = hostspeed.HostClock()
    assert clock.time(lambda: 7) == 7
    with pytest.raises(ValueError):
        clock.time(lambda: int("x"))
    (wall_a, norm_a), (wall_b, norm_b) = clock.settle()
    assert norm_a == pytest.approx(wall_a * hostspeed.NOMINAL_PROBE_S / 0.003)
    assert norm_b == pytest.approx(wall_b * hostspeed.NOMINAL_PROBE_S / 0.006)
    assert clock.settle() == []
