"""Run one galelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; galelab is imported from ``./src``.  The
run is closed-loop: one client repeats the workload's job, one after
another in this process, for about ``S`` seconds (at least
``MIN_JOBS`` times), checking every job's outputs.  Inputs depend only
on the seed, so every job of a run must write the same artifact bytes
and counts.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
the median job wall time, the median of ``SETUP_SAMPLES`` set-ups each
in a fresh interpreter, this process's peak RSS and the share of output
checks that passed.  Both times are taken at reference speed: each is
divided by the time of a fixed loop (``refloop``) run next to it and
multiplied by ``refloop.NOMINAL_S``, which cancels most of the drift in
the host's CPU speed.  The raw times are printed on a ``#`` line.

``--trace 1`` runs the same untraced jobs, then one more job with spans
around every call into galelab, and reports the per-layer metrics (raw
times); spans go to ``perfbench/_work/``.

Every metric is printed by name and unit; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 when every check passed, 1 when one failed,
2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 15
MIN_JOBS = 3


def _setup_sample(workload: str, src_dir: str) -> tuple[float, float]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
        env=dict(os.environ, PYTHONPATH=src_dir),
        capture_output=True, text=True, timeout=120, check=True)
    elapsed, loop = map(float, done.stdout.split()[-2:])
    return elapsed, loop


def _metric_units(section: str) -> dict[str, str]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class Checks:
    """Output checks of every job, and the determinism checks between jobs."""

    def __init__(self, check_fn, fingerprint, seed: int):
        self.check_fn = check_fn
        self.fingerprint = fingerprint
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.first = None

    def record(self, job_index: int, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"job {job_index}: {name}")

    def evaluate(self, job_index: int, job: dict) -> None:
        for name, ok in self.check_fn(self.seed, job):
            self.record(job_index, name, ok)
        seen = (self.fingerprint(job), job["counts"])
        if self.first is None:
            self.first = seen
            return
        self.record(job_index, "artifact bytes and outcomes repeat the first job's",
                     seen[0] == self.first[0])
        self.record(job_index, "counts repeat the first job's", seen[1] == self.first[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src_dir = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src_dir, "galelab", "__init__.py")):
        print("perfbench: no galelab sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)
    import refloop
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    job_fn, check_fn = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = spans.Tracer(run_id, enabled=bool(args.trace))
    untraced = spans.Tracer(run_id, enabled=False)

    refs, setup_counts, valid = workloads.build_references(args.workload, tracer)
    setup = [_setup_sample(args.workload, src_dir) for _ in range(SETUP_SAMPLES)]

    # artifact paths are relative, so artifacts embed the same paths in every checkout
    work_root = os.path.relpath(os.path.join(HERE, "_work"))
    workdir = os.path.join(work_root, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    checks = Checks(check_fn, workloads.fingerprint, args.seed)
    checks.record(0, "reference gamblers are valid", valid)
    walls: list[float] = []
    cpus: list[float] = []
    loop_times = [refloop.reference_time(8)]
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_JOBS or time.perf_counter() + statistics.median(walls) <= deadline:
        gc.collect()  # each job starts from a clean heap, as a fresh CLI process would
        start, cpu = time.perf_counter(), time.process_time()
        job = job_fn(untraced, args.seed, refs, workdir)
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
        loop_times.append(refloop.reference_time(8))
        checks.evaluate(len(walls) - 1, job)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = statistics.median(walls)
    raw_setup = statistics.median(e for e, _ in setup)
    # each time over the reference loop's time next to it, in NOMINAL_S units
    wall_at_ref = refloop.NOMINAL_S * statistics.median(
        w / ((a + b) / 2) for w, a, b in zip(walls, loop_times, loop_times[1:]))
    setup_at_ref = refloop.NOMINAL_S * statistics.median(e / r for e, r in setup)

    if args.trace:
        gc.collect()
        with tracer.span("bench.job") as rec:
            job = job_fn(tracer, args.seed, refs, workdir)
        checks.evaluate(len(walls), job)
        trace_peak_mb = workloads.trace_memory_probe(args.workload, refs, workdir)
        tracer.dump(os.path.join(work_root, f"spans-{run_id}.jsonl"))
        units = _metric_units("per_layer")
        values = dict.fromkeys(units, 0.0)
        values.update(spans.span_totals(tracer.spans))
        values.update({f"{layer}.self_s": s for layer, s in spans.self_times(tracer.spans).items()})
        values.update(setup_counts)
        values.update(job["counts"])
        values["engine.trace_peak_mb"] = trace_peak_mb
        values["bench.trace_overhead_s"] = (rec["end"] - rec["start"]) - wall
        values["bench.unattributed_s"] = spans.unattributed(tracer.spans, rec["id"])
    else:
        values = {
            "wall_s": wall_at_ref,
            "setup_s": setup_at_ref,
            "peak_rss_mb": peak_rss_mb,
            "check_pass_frac": 1 - len(checks.failures) / checks.attempted,
        }
        units = _metric_units("end_to_end")
    shutil.rmtree(workdir)

    failed = len(checks.failures)
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {len(walls)} untraced jobs, raw wall "
          f"median {wall:.4f} s (min {min(walls):.4f}, max {max(walls):.4f}; "
          f"CPU median {statistics.median(cpus):.4f} s); {SETUP_SAMPLES} set-ups, raw "
          f"median {raw_setup:.4f} s; reference loop median "
          f"{statistics.median(loop_times):.5f} s (nominal {refloop.NOMINAL_S} s); "
          f"check_fail_frac {failed / checks.attempted:g} "
          f"({failed} failed of {checks.attempted} checks)")
    print("# job wall times, in order: " + " ".join(f"{w:.3f}" for w in walls))
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
