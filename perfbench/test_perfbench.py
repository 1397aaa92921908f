"""The benchmark's own tests, at tiny scale.

They check the output contract (every end-to-end and per-layer name,
with its unit), that verification catches a corrupted output, and that
the benchmark refuses to run without the program under test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import offline  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> dict:
    argv = [
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        str(trace),
        "--scale",
        "tiny",
    ]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(capsys, workload):
    result = _run(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(capsys, workload):
    result = _run(capsys, workload, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.unexpected_spans"] == 0
    assert metrics["verify.checked"] >= 1
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def test_overhead_shows_a_slow_span(capsys, monkeypatch):
    """Tracing that slows the decision path must show in
    ``trace.overhead_frac``, on the open loop's virtual clock too."""
    import time

    import spans

    wrap = spans.SpanRecorder.wrap

    def slow_wrap(self, name, fn, count=None):
        if name != "router.choose_many":
            return wrap(self, name, fn, count)

        def slow(*args, **kwargs):
            time.sleep(0.001)
            return fn(*args, **kwargs)

        return wrap(self, name, slow, count)

    monkeypatch.setattr(spans.SpanRecorder, "wrap", slow_wrap)
    result = _run(capsys, "router-serve", 1)
    assert result["correct"] is True
    assert result["metrics"]["trace.overhead_frac"]["value"] > 1.0


def _corrupted_failures(workload, corrupt) -> int:
    workload.build()
    for phase in workload.phases:
        for index in range(2):
            workload.segment(phase, index)
    _, clean = workload.verify()
    assert clean == 0
    workload.build()
    for phase in workload.phases:
        for index in range(2):
            workload.segment(phase, index)
    corrupt(workload.kept[0])
    return workload.verify()[1]


@pytest.mark.parametrize(
    "cls", [offline.Figure1, offline.TorusOnline], ids=["fig1", "torus"]
)
def test_corrupt_final_load_is_caught(cls):
    def corrupt(kept):
        _, outcome, j = kept
        outcome.results[j].final_loads[0] += 1.0

    assert _corrupted_failures(cls(5, "tiny"), corrupt) >= 1


def test_corrupt_replay_final_load_is_caught():
    def corrupt(kept):
        kept[2].final_loads[0] += 1.0

    workload = offline.RouterReplay(5, "tiny")
    assert _corrupted_failures(workload, corrupt) >= 1


def test_corrupt_placement_is_caught():
    def corrupt(kept):
        resources = kept[3]
        resources[0] = (resources[0] + 1) % serve.SERVE["tiny"]["n"]

    workload = serve.RouterServe(5, "tiny", rate=2000.0)
    assert _corrupted_failures(workload, corrupt) >= 1


def test_cli_prints_result_as_last_line():
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "router-serve",
            "--seed",
            "2",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--scale",
            "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["setup_s"]["value"] > 0


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__*")
    )
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "figure1",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
