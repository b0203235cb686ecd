"""adgraph benchmark: seeded workloads through ``adgraph.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload crawl_report --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Set-up generates the workload's inputs from ``--seed`` in a child process
(which also imports adgraph), three times; ``setup_s`` is the median. This
process then imports adgraph from ``src/`` and runs passes over the
workload's jobs, one job at a time (a closed loop with one client), until
``--seconds`` have passed. Every job's outputs are checked, and every pass
must write the same bytes. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports per-layer metrics from the traced ones. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
WORK_DIR = ".perfbench_work"

# name -> (unit, better); fail_ratio is printed but travels in the result as
# attempted/failed, because a metric that is 0 at the baseline has no
# relative bound.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "planted_recovery": ("ratio", "higher"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(root: Path, args, threads_env: str | None, truth: dict) -> dict:
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    inputs = sorted(p for p in Path("in").rglob("*") if p.is_file())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": truth["size"],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "ADGRAPH_THREADS": "unset" if threads_env is None else f"removed (was {threads_env!r})",
        "input_files": len(inputs),
        "input_bytes": sum(p.stat().st_size for p in inputs),
        "repeated_page_share": truth.get("repeated_page_share"),
    }


def setup(root: Path, work: Path, args) -> list[float]:
    """Generate the inputs in a child process that then imports adgraph,
    several times; returns the wall time of each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(work / "in")]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work / "in", ignore_errors=True)
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchmarkError(f"input generation failed with exit code {done.returncode}")
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _output_digest() -> tuple[str, int, int]:
    """Digest, byte count and file count of everything under out/."""
    h = hashlib.sha256()
    total = files = 0
    for path in sorted(p for p in Path("out").rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path).encode() + b"\0" + data + b"\0")
        total += len(data)
        files += 1
    return h.hexdigest(), total, files


def run_pass(cli, job_list, tracer=None, corrupt=None) -> dict:
    """Run every job once and check its outputs.

    Returns the pass wall time (first job start to last job's checked
    outputs), the failed job names and the output digest. ``corrupt`` is
    called after the jobs and before the checks, by the self-tests.
    """
    shutil.rmtree("out", ignore_errors=True)
    failed: list[str] = []
    results = []
    t0 = time.perf_counter()
    for job in job_list:
        try:
            if tracer is not None:
                with tracer.job(job.name):
                    code = cli.run(job.argv)
            else:
                code = cli.run(job.argv)
        except Exception as exc:  # a crash is a failed job, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        results.append(code)
    if corrupt is not None:
        corrupt()
    for job, code in zip(job_list, results):
        problems = [f"exit code {code}"] if code != 0 else job.check()
        if problems:
            failed.append(job.name)
            print(f"perfbench: job {job.name} failed: {'; '.join(problems)}", file=sys.stderr)
    wall = time.perf_counter() - t0
    digest, out_bytes, files = _output_digest()
    return {"wall": wall, "failed": failed, "digest": digest,
            "output_bytes": out_bytes, "files": files}


def measure(cli, truth: dict, seconds: float, traced: bool, corrupt=None) -> dict:
    """Passes until ``seconds`` have elapsed (at least MIN_PASSES of each
    kind). Traced runs alternate untraced and traced passes."""
    job_list = jobs_mod.jobs_for(truth)
    input_bytes = sum(Path(f).stat().st_size for job in job_list for f in job.crawl_inputs)
    untraced, traced_passes, layer = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cli, job_list, corrupt=corrupt))
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                p = run_pass(cli, job_list, tracer, corrupt=corrupt)
            finally:
                tracer.uninstall()
            traced_passes.append(p)
            probes = spans.run_probes(tracer.spans)
            layer.append(spans.layer_metrics(tracer.spans, probes, {**p, "input_bytes": input_bytes}))
        if len(untraced) >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
    passes = untraced + traced_passes
    digests = {p["digest"] for p in passes}
    failed = sum(len(p["failed"]) for p in passes)
    if len(digests) > 1:
        print(f"perfbench: passes wrote {len(digests)} different output sets", file=sys.stderr)
        failed += sum(1 for p in passes if p["digest"] != passes[0]["digest"])
    out = {
        "attempted": len(job_list) * len(passes),
        "failed": failed,
        "pass_walls": [p["wall"] for p in untraced],
        "wall_s": median(p["wall"] for p in untraced),
        "digest": passes[0]["digest"],
        "planted_recovery": jobs_mod.planted_recovery(truth),
    }
    if traced:
        out["layer"] = spans.median_metrics(layer)
        out["layer"]["trace.overhead_ratio"] = (
            median(p["wall"] for p in traced_passes) / out["wall_s"])
    return out


def run_workload(root: Path, args) -> int:
    threads_env = os.environ.pop("ADGRAPH_THREADS", None)
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = setup(root, work, args)
        sys.path.insert(0, str(root / "src"))
        import adgraph.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
            raise BenchmarkError(f"imported adgraph from {cli.__file__}, not from {root / 'src'}")
        os.chdir(work)
        truth = json.loads(Path("in/truth.json").read_text(encoding="utf-8"))
        prov = provenance(root, args, threads_env, truth)
        # The interpreter, numpy and scipy hold most of the resident memory
        # before any job runs; peak_rss_mb counts only what the jobs add.
        import_rss_mb = _peak_rss_mb()
        result = measure(cli, truth, args.seconds, bool(args.trace))
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / WORK_DIR).iterdir()):
            (root / WORK_DIR).rmdir()

    prov["import_rss_mb"] = import_rss_mb
    prov["pass_wall_s"] = [round(w, 4) for w in result["pass_walls"]]
    prov["output_digest"] = result["digest"]
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": result["layer"][name], "unit": unit}
                   for name, (unit, _better) in spans.PER_LAYER.items()}
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": median(setup_times),
            "peak_rss_mb": _peak_rss_mb() - import_rss_mb,
            "planted_recovery": result["planted_recovery"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better) in END_TO_END.items()}
        print(f"{args.workload} fail_ratio {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} jobs)")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(f"{workload} exited with code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adgraph benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long inputs for self-tests")
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "adgraph" / "cli.py").is_file():
            raise BenchmarkError(f"{root} has no src/adgraph; run from the repository root")
        return run_all(args) if args.workload == "all" else run_workload(root, args)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
