"""mvpolar benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 mvbench/run.py --workload lattice --seed 1 --seconds 15 --trace 0

One client runs a closed loop in this process: each job is one
``mvpolar.cli.main(argv)`` call with stdout captured, and the next job
starts only after the previous one returned and its answer was checked
(outside the timed region).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs a fixed prefix of the same job list with a
span recorder around every module's public entry points and reports
per-layer self times and work counts.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from mvbench import baseline, inputs, trace, verify  # noqa: E402

PROGRAM_MODULES = ("errors", "algebra", "mvsets", "context", "frames", "syntax", "semantics",
                   "canonical", "fileio", "market", "sampling", "cli")


@dataclass(frozen=True)
class Sizes:
    warmup: int  # jobs run during set-up, from their own seed stream
    traced: int  # fixed prefix of the timed stream run by --trace 1


# A fixed traced prefix makes the traced counts repeat exactly for a seed.
WORKLOADS = {
    "lattice": Sizes(warmup=6, traced=80),
    "validity": Sizes(warmup=8, traced=80),
    "canonical": Sizes(warmup=8, traced=80),
    "interactive": Sizes(warmup=120, traced=2000),
}
SETUP_REPEATS = 3


def add_program_paths():
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_program():
    """Import mvpolar (and the test oracles) afresh; returns (prog, oracles).

    Dropping the modules first makes every call pay the package's import,
    so repeated set-ups each measure it.
    """
    for name in [k for k in sys.modules if k == "mvpolar" or k.startswith("mvpolar.") or k == "oracles"]:
        del sys.modules[name]
    importlib.import_module("mvpolar")
    prog = SimpleNamespace(**{m: importlib.import_module(f"mvpolar.{m}") for m in PROGRAM_MODULES})
    return prog, importlib.import_module("oracles")


def call(prog, argv):
    """One verdict: (exit code, stdout, stderr, seconds, escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = prog.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except prog.errors.MvpolarError:
            code = 2
        except Exception as e:  # the loop must go on; the job counts as failed
            code, exc = None, e
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds, exc


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def judge(job, result, prog, oracles):
    """Failure reason (or None) and the counts the answer shows."""
    code, out, err, _, exc = result
    if exc is not None:
        tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return f"{job.kind}: {tb} escaped", {}
    return verify.check(job, code, out, prog, oracles)


def fresh_heap():
    """Collect, then freeze the survivors out of later collections.

    Run before every call, outside the timed region: the call starts from
    an empty young generation as in a fresh process, and the collector
    never walks the benchmark's own objects (spans, job data) while the
    program runs.
    """
    gc.collect()
    gc.freeze()


def set_up(workload: str, seed: int, work: Path, repeats: int):
    """Import, write the inputs and warm up, `repeats` times; the last one is kept."""
    sizes = WORKLOADS[workload]
    times = []
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        start = perf_counter()
        prog, oracles = load_program()
        warmup, stream = inputs.job_streams(prog, workload, seed, inputs.Workspace(work), sizes.warmup)
        warm = [call(prog, job.argv) for job in warmup]
        times.append(perf_counter() - start)
    tally = Tally()
    for job, result in zip(warmup, warm):
        tally.add(judge(job, result, prog, oracles)[0])
    fresh_heap()
    return prog, oracles, stream, tally, times


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def throughput(latencies, cycle: int) -> float:
    """Jobs per second of a typical cycle of the stream.

    Every cycle holds the same mix of job kinds and sizes.  Each position
    in the cycle gets the median of its times over the run's complete
    cycles, so a burst of load from outside the process moves the result
    little; a run shorter than one cycle falls back to the plain ratio.
    """
    whole = len(latencies) // cycle
    if whole == 0:
        return len(latencies) / sum(latencies)
    typical = sum(statistics.median(latencies[k * cycle + slot] for k in range(whole)) for slot in range(cycle))
    return cycle / typical


def run_untraced(workload: str, seed: int, seconds: float, work: Path):
    prog, oracles, stream, tally, setup_times = set_up(workload, seed, work, SETUP_REPEATS)
    latencies = []
    timed = 0.0
    for job in stream:
        if timed >= seconds:
            break
        fresh_heap()
        result = call(prog, job.argv)
        timed += result[3]
        latencies.append(result[3])
        tally.add(judge(job, result, prog, oracles)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ordered = sorted(latencies)
    p90 = nearest_rank(ordered, 0.9)
    metrics = {
        "jobs_per_s": (throughput(latencies, inputs.CYCLES[workload]), "1/s"),
        "verdict_p50_ms": (nearest_rank(ordered, 0.5) * 1e3, "ms"),
        "verdict_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "samples": len(ordered),
        "samples_above_p90": sum(v > p90 for v in ordered),
        "timed_s": timed,
        "setup_runs_s": setup_times,
        "fail_ratio": tally.failed / tally.attempted,
    }
    return metrics, tally, notes


def run_traced(workload: str, seed: int, work: Path, jobs: int = 0, with_rows: bool = True):
    """Spans over a fixed prefix of the stream (`jobs`, by default the
    workload's own), the same jobs again untraced, and the probes."""
    prog, oracles, stream, tally, _ = set_up(workload, seed, work, 1)
    todo = list(itertools.islice(stream, jobs or WORKLOADS[workload].traced))
    rec = trace.Recorder()
    traced = []
    undo = trace.install(rec)
    try:
        for i, job in enumerate(todo):
            fresh_heap()
            rec.begin_job(i)
            root = rec.open("cli")
            traced.append(call(prog, job.argv))
            rec.close(root)
    finally:
        trace.uninstall(undo)
    plain = []
    for job in todo:
        fresh_heap()
        plain.append(call(prog, job.argv))
    for i, (job, a, b) in enumerate(zip(todo, traced, plain)):
        reason, shown = judge(job, b, prog, oracles)
        if reason is None and a[:3] != b[:3]:
            reason = f"{job.kind}: traced answer differs from the untraced one"
        if reason is None:
            spans = trace.job_counts(rec, i)
            if any(spans.get(k) != v for k, v in shown.items()):
                reason = f"{job.kind}: traced counts {spans} differ from the answer's {shown}"
        tally.add(reason)
    traced_s = sum(r[3] for r in traced)
    plain_s = sum(r[3] for r in plain)
    metrics = trace.layer_metrics(rec)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["context.closure_us"] = (baseline.closure_probe(prog, rec.contexts, seed), "us")
    metrics = dict(sorted(metrics.items()))
    split = {}
    for span, t in zip(rec.spans, rec.self_times()):
        split[span[0]] = split.get(span[0], 0.0) + t
    notes = {
        "traced_jobs": len(todo),
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "self_time_split": {k: round(v / traced_s, 4) for k, v in sorted(split.items(), key=lambda kv: -kv[1])},
        "baseline_rows": baseline.rows(workload, prog) if with_rows else [],
        "fail_ratio": tally.failed / tally.attempted,
    }
    return metrics, tally, notes


def provenance(seed: int, workload: str, trace_on: bool) -> dict:
    src = sorted((ROOT / "src" / "mvpolar").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            revision = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace_on),
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mvpolar" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.stderr.write("mvbench: src/mvpolar and tests/oracles.py must sit next to the benchmark directory\n")
        return 2
    add_program_paths()
    work = BENCH / "_work" / f"run-{os.getpid()}"
    try:
        if args.trace:
            metrics, tally, notes = run_traced(args.workload, args.seed, work)
        else:
            metrics, tally, notes = run_untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its inputs there
            pass
    print(json.dumps({"provenance": provenance(args.seed, args.workload, bool(args.trace)), **notes}, default=str))
    for reason in tally.reasons:
        print(f"failed: {reason}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6f}  {unit}")
    print(f"{'fail_ratio':<{width}}  {notes['fail_ratio']:>14.6f}  ratio")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
