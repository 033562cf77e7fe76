#!/usr/bin/env python3
"""End-to-end benchmark of the syncword CLI, with a per-module traced run.

    python3 perfbench/run.py --workload cycle-words --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` and the CLI is run as `python -m syncword.cli` with that directory on
PYTHONPATH.  Each workload is a closed loop with one client (client.py):
sequential CLI subprocesses, no threads, interpreter start included in each
job's time.  Full passes over the workload's job list are repeated while the
next one still fits in --seconds (at least one pass).  Every output is
checked afterwards by check.py, outside the timed region.

The host's speed changes by up to 1.7 times from minute to minute, so times
are reported in reference seconds: a fixed calibration loop
(client.calibrate) runs right before every set-up, CLI job and traced pass,
and each raw time is multiplied by CAL_REF_S over the time of the sample
taken right before it.  Everything runs on one CPU, so the sample and the
timed work see the same slowdown.  The raw values and the calibration
samples are in the record.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the in-process traced run (traced.py).  The last stdout line is the result
object; the line before it is the environment.  A full record is written to
perfbench/_run/BENCH_<workload>_seed<seed>_trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import client

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = Path(HERE.name) / "_run"      # relative to ROOT
SETUP_REPEATS = 3
NOOP_REPEATS = 5
CAL_REF_S = 0.022   # calibration loop time that defines a reference second
CLIENT_TIMEOUT_S = 150


def set_up(workload, seed, inputs, generators):
    """Set up SETUP_REPEATS times into the same directory.  Returns the
    last Inputs, the set-up, generator and calibration times, and whether
    every repeat wrote byte-identical files."""
    directory = RUN_DIR / "inputs"
    times, gen_times, contents, cals = [], [], [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        cals.append(client.calibrate())
        start = time.perf_counter()
        built, gen_s = inputs.build(workload, seed, directory, generators)
        times.append(time.perf_counter() - start)
        gen_times.append(gen_s)
        contents.append({Path(p).name: Path(p).read_bytes() for p in built.files})
    identical = all(c == contents[0] for c in contents)
    return built, times, gen_times, cals, identical


def ref(seconds, cal):
    """Raw seconds measured right after a calibration sample of cal
    seconds, in reference seconds."""
    return seconds * CAL_REF_S / cal


def run_client(jobs, source, seconds, noops):
    """Run the closed loop in client.py; returns its passes (lists of job
    results, each with "ref_s") and the no-op job results."""
    names = [job.name for job in jobs]
    plan = {
        "python": sys.executable,
        "env": dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        "out_dir": str(RUN_DIR / "out"),
        "source": source,
        "jobs": [{"argv": job.argv,
                  "source": names.index(job.source) if job.source else None}
                 for job in jobs],
        "seconds": seconds,
        "noops": noops,
    }
    plan_path = RUN_DIR / "plan.json"
    results_path = RUN_DIR / "client.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run([sys.executable, "-S", str(HERE / "client.py"),
                    str(plan_path), str(results_path)],
                   check=True, timeout=CLIENT_TIMEOUT_S)
    done = json.loads(results_path.read_text(encoding="utf-8"))
    for results in done["passes"]:
        for job, res in zip(jobs, results):
            res.update(job=job.name, ref_s=ref(res["wall_s"], res["cal_s"]))
    return done["passes"], done["noop_s"]


def check_results(jobs, results, check):
    """Check every job output; identical outputs of one job share a
    verdict.  Returns the list of failure messages (one per failed job)."""
    by_name = {job.name: job for job in jobs}
    verdicts = {}
    failures = []
    for res in results:
        job = by_name[res["job"]]
        out = Path(res["out"]).read_text(encoding="utf-8", errors="replace")
        err = Path(res["err"]).read_text(encoding="utf-8", errors="replace")
        key = (job.name, res["exit"], out, "Traceback" in err)
        if key not in verdicts:
            verdicts[key] = verdict(job, res["exit"], out, err, check)
        res["ok"] = verdicts[key] is None
        if verdicts[key] is not None:
            failures.append(f"{job.name}: {verdicts[key]}")
    return failures


def verdict(job, code, out, err, check):
    if "Traceback" in err:
        return "traceback on stderr"
    if code != job.exit_code:
        return f"exit {code}, expected {job.exit_code}: {err.strip()[-200:]}"
    try:
        job.check(out)
    except (check.CheckError, ValueError, KeyError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def environment(args, syncword, jobs):
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds,
        "kernel_backend": syncword.KERNEL_BACKEND,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 client, sequential CLI subprocesses",
        "jobs": [job.record() for job in jobs],
    }


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "syncword" / "cli.py").is_file():
        print(f"error: no syncword sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # calibration samples and the work they scale share one CPU, so they
    # see the same slowdowns; child processes inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import syncword
    from syncword import generators

    import check
    import inputs
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    shutil.rmtree(RUN_DIR / "out", ignore_errors=True)
    (RUN_DIR / "out").mkdir(parents=True)
    built, setup_times, gen_times, cals, identical = set_up(
        args.workload, args.seed, inputs, generators)
    jobs = built.jobs
    failures = [] if identical else ["set-up: repeats wrote different files"]

    record = {}
    if args.trace == 0:
        passes, _ = run_client(jobs, inputs.SOURCE, args.seconds, 0)
        results = [res for results in passes for res in results]
        failures += check_results(jobs, results, check)
        walls = [sum(r["ref_s"] for r in results) for results in passes]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_s": (statistics.median(r["ref_s"] for r in results), "s"),
            "peak_rss_mb": (max(r["max_rss_kb"] for r in results) / 1024, "MB"),
            "setup_s": (statistics.median(map(ref, setup_times, cals)), "s"),
        }
        attempted = len(results)
        record.update(pass_walls_ref_s=walls)
    else:
        import traced
        deadline = time.perf_counter() + args.seconds
        passes, noops = run_client(jobs, inputs.SOURCE, None, NOOP_REPEATS)
        results = passes[0]
        failures += check_results(jobs, results, check)
        attempted = len(results)
        traced_passes = []
        while True:
            cal = client.calibrate()
            start = time.perf_counter()
            tracer, traced_failures = traced.traced_pass(jobs, inputs.SOURCE)
            traced_passes.append((time.perf_counter() - start, cal, tracer))
            failures += traced_failures
            attempted += len(jobs)
            longest = max(p[0] for p in traced_passes)
            if time.perf_counter() + longest > deadline:
                break
        parity_status, parity_failures = traced.parity(jobs)
        failures += parity_failures
        layer = []
        for _, cal, tracer in traced_passes:
            factor = ref(1.0, cal)
            layer.append({name: value * factor if unit_of(name) == "s" else
                          value / factor if unit_of(name) == "1/s" else value
                          for name, value in traced.metrics(tracer).items()})
        metrics = {name: (statistics.median(m[name] for m in layer), unit_of(name))
                   for name in layer[0]}
        metrics["cli.startup_s"] = (statistics.median(
            ref(r["wall_s"], r["cal_s"]) for r in noops), "s")
        metrics["generators.gen_s"] = (
            statistics.median(map(ref, gen_times, cals)), "s")
        metrics["trace.untraced_wall_s"] = (sum(r["ref_s"] for r in results), "s")
        record.update(parity=parity_status, noops=noops,
                      traced_passes=len(traced_passes),
                      spans_raw_s=traced.span_table(traced_passes[-1][2]))
    record.update(jobs=results, setup_calibration_s=cals)

    env = environment(args, syncword, jobs)
    if args.trace:
        env["parity"] = record["parity"]
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update(environment=env, setup_s=setup_times, failures=failures,
                  fail_ratio=failed / attempted, result=result)
    out = RUN_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
