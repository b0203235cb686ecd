"""Self-tests of the benchmark on the seconds-long smoke sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import jobs
import run
import spans

HERE = Path(__file__).resolve().parent


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.fixture
def smoke(tmp_path, monkeypatch):
    """Generate a workload's smoke inputs into tmp_path/in and run there."""
    import adgraph.cli as cli

    monkeypatch.chdir(tmp_path)

    def make(workload: str, seed: int = 5) -> dict:
        return gen.generate(workload, seed, Path("in"), "smoke")

    return cli, make


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_seeded(tmp_path, workload):
    gen.generate(workload, 3, tmp_path / "a", "smoke")
    gen.generate(workload, 3, tmp_path / "b", "smoke")
    gen.generate(workload, 4, tmp_path / "c", "smoke")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_workload_passes_every_check(smoke, workload):
    cli, make = smoke
    truth = make(workload)
    result = run.measure(cli, truth, seconds=0, traced=True)
    assert result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_PASSES * len(jobs.jobs_for(truth))
    assert result["planted_recovery"] == 1.0
    assert set(result["layer"]) == set(spans.PER_LAYER)
    assert result["layer"]["trace.overhead_ratio"] > 0


def test_layer_time_is_self_time():
    # [name, start, end, parent index, job id, info]: load_snapshots spends
    # 3 of its 10 s inside a nested extractor call and 1 s in a trace hook.
    recorded = [
        ["job", 0.0, 12.0, None, "j", None],
        ["history.load_snapshots", 1.0, 11.0, 0, "j", None],
        ["extractor.load_profiles", 2.0, 5.0, 1, "j", None],
        ["trace.hook", 6.0, 7.0, 1, "j", None],
    ]
    m = spans.layer_metrics(recorded, {}, {"input_bytes": 0, "output_bytes": 0, "files": 0})
    assert m["history.load_s"] == 6.0
    assert m["extractor.load_s"] == 3.0
    assert m["cli.self_s"] == 2.0


def _drop_last_line(path: str):
    def corrupt():
        p = Path(path)
        p.write_text("".join(p.read_text(encoding="utf-8").splitlines(True)[:-1]), encoding="utf-8")
    return corrupt


def _leak_intermediary(truth: dict):
    def corrupt():
        with open("out/report/bipartite_publisher.csv", "a", encoding="utf-8") as fh:
            fh.write(f"leak.example,{truth['intermediary_keys'][0]},publisher\n")
    return corrupt


CORRUPTIONS = {
    "crawl_report": lambda truth: _drop_last_line("out/report/communities.csv"),
    "gn_planted": lambda truth: _drop_last_line("out/g0/communities.csv"),
    "history_snapshots": lambda truth: (lambda: Path("out/s00/manifest.json").unlink()),
}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_corrupted_output_counts_as_failure(smoke, workload):
    cli, make = smoke
    truth = make(workload)
    result = run.measure(cli, truth, seconds=0, traced=False, corrupt=CORRUPTIONS[workload](truth))
    assert result["failed"] == run.MIN_PASSES


def test_leaked_intermediary_key_counts_as_failure(smoke):
    cli, make = smoke
    truth = make("crawl_report")
    result = run.measure(cli, truth, seconds=0, traced=False, corrupt=_leak_intermediary(truth))
    assert result["failed"] == run.MIN_PASSES


def test_failing_job_counts_as_failure(smoke):
    cli, make = smoke
    make("gn_planted")
    Path("in/g0/metagraph.csv").write_text("not,a,metagraph\n", encoding="utf-8")
    job = jobs.jobs_for(json.loads(Path("in/truth.json").read_text()))[0]
    assert run.run_pass(cli, [job])["failed"] == [job.name]


def test_command_prints_one_result_line_per_contract():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{name}" for w in gen.WORKLOADS for name in run.END_TO_END}
    assert set(result["metrics"]) == expected
    for w in gen.WORKLOADS:
        assert f"{w} fail_ratio 0 ratio" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "gn_planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
