"""Closed-loop client: runs the planned CLI jobs one after another.

    python3 -S perfbench/client.py PLAN.json RESULTS.json

Jobs are spawned from this small process, not from run.py, because Linux
reports a spawned child's max RSS as at least the peak RSS of the process
that spawned it; this one stays below the smallest CLI job.  Each job is a
`python -m syncword.cli` subprocess reaped with os.wait4 for its rusage,
right after one calibration sample of the host's speed.

The plan gives the interpreter, the environment, the output directory,
the number of no-op jobs to time first, the jobs (argv, plus the index of
an earlier job whose stdout replaces the SOURCE argument) and the seconds
to fill with full passes (null: one pass).
"""
import json
import os
import signal
import sys
import time

JOB_TIMEOUT_S = 60


def calibrate():
    """Time a fixed pure-Python loop of dict, set and int work, the kind of
    work the package does, on a small working set."""
    start = time.perf_counter()
    for rep in range(20):
        table = {}
        seen = set()
        for i in range(4000):
            table[i] = (i * 7 + rep) % 1000
            seen.add((i * 31) & 0x3FF)
        sum(v for v in table.values() if v & 1)
        {k for k in seen if k % 3}
    return time.perf_counter() - start


class Runner:
    """Runs one job at a time; a job still running after JOB_TIMEOUT_S is
    killed and reported with its signal as a negative exit code."""

    def __init__(self, python, env):
        self.python = python
        self.env = env
        self.pid = None
        signal.signal(signal.SIGALRM, self._timeout)

    def _timeout(self, signum, frame):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)

    def run(self, argv, out_path, err_path):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        cmd = [self.python, "-m", "syncword.cli", *argv]
        start = time.perf_counter()
        self.pid = os.posix_spawn(self.python, cmd, self.env,
                                  file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(self.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.pid = None
        return {"wall_s": time.perf_counter() - start,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "max_rss_kb": usage.ru_maxrss,
                "exit": os.waitstatus_to_exitcode(status)}


def run_pass(runner, plan, tag):
    results = []
    for i, job in enumerate(plan["jobs"]):
        out = os.path.join(plan["out_dir"], f"{tag}-{i:02d}.out")
        err = os.path.join(plan["out_dir"], f"{tag}-{i:02d}.err")
        argv = [results[job["source"]]["out"] if a == plan["source"] else a
                for a in job["argv"]]
        cal = calibrate()
        res = runner.run(argv, out, err)
        res.update(cal_s=cal, out=out, err=err)
        results.append(res)
    return results


def main(plan_path, results_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    runner = Runner(plan["python"], plan["env"])
    noop_out = os.path.join(plan["out_dir"], "noop.out")
    noop_err = os.path.join(plan["out_dir"], "noop.err")
    for _ in range(2):   # warm-up: bytecode cache and page cache
        runner.run(["--help"], noop_out, noop_err)
    noops = []
    for _ in range(plan["noops"]):
        cal = calibrate()
        noops.append(dict(runner.run(["--help"], noop_out, noop_err), cal_s=cal))

    passes = []
    start = time.perf_counter()
    deadline = start + (plan["seconds"] or 0)
    longest = 0.0
    while True:
        began = time.perf_counter()
        passes.append(run_pass(runner, plan, f"p{len(passes)}"))
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() + longest > deadline:
            break
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"noop_s": noops, "passes": passes}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
