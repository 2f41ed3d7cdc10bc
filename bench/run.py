"""Benchmark of the jensengap package.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from ``src/``.  This
process imports neither jensengap nor numpy and starts no threads: it
spawns fresh interpreters one at a time (CLI calls and ``worker.py``
processes), times them, checks their outputs and prints one JSON object
as the last line of standard output.  Times are process CPU time, user
plus system: on a shared host, wall time also counts the spells in which
the process waits for a CPU.

With ``--trace 0`` a run reports the end-to-end metrics of the workload's
own operations: ``SETUP_SAMPLES`` set-up-only workers for ``setup_s``, then
whole rounds of the workload for ``--seconds``, in one worker or, on
``cli_cold``, as CLI processes.  With ``--trace 1`` a run reports the
per-layer metrics: import self times from ``-X importtime`` and the span
and count metrics of the traced worker.  See README.md.
"""

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import checks
import inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH, "out")

END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}
IMPORTED_PACKAGES = ("numpy", "scipy", "jensengap")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
SHOWN_PROBLEMS = 20


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # one thread per process: the machine has two cores and runs one child
    # at a time
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


ENV = _env()


class Child:
    """A finished child process: exit code, stdout, CPU time and peak
    resident memory (KiB), the last two from wait4."""

    def __init__(self, argv):
        self.start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE)
        chunks = []
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    left = self.start + CHILD_TIMEOUT_S - time.monotonic()
                    if left <= 0 or not sel.select(left):
                        raise TimeoutError(f"{argv[:4]} ran past {CHILD_TIMEOUT_S} s")
                    data = os.read(proc.stdout.fileno(), 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        self.cpu = usage.ru_utime + usage.ru_stime
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.stdout = b"".join(chunks)
        self.rss_kib = usage.ru_maxrss


def worker(workload, seed, role, seconds=0.0):
    """Run worker.py; returns (its result dict, the Child)."""
    arg = json.dumps({"workload": workload, "seed": seed, "role": role, "seconds": seconds})
    child = Child([sys.executable, os.path.join(BENCH, "worker.py"), arg])
    if child.code != 0:
        raise RuntimeError(f"worker ({role}) exited with {child.code}")
    return json.loads(child.stdout.decode().strip().splitlines()[-1]), child


class Tally:
    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.problems = []
        self.errors = []

    def add(self, result):
        self.ops += result["ops"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        self.errors += result["errors"]


def cli_calls(rounds, seconds, tally):
    """`python -m jensengap.cli` processes, one at a time, in whole rounds
    until ``seconds`` of wall time pass; every output is checked.  Returns
    the CPU time of each call that exited 0, the largest peak RSS (KiB) and
    the digest of the first round's outputs."""
    start = time.monotonic()
    times, rss_kib, first = [], 0, hashlib.sha256()
    done = 0
    while done == 0 or time.monotonic() - start < seconds:
        for argv, spec in rounds[done % len(rounds)]:
            tally.ops += 1
            child = Child([sys.executable, "-m", "jensengap.cli", *argv])
            rss_kib = max(rss_kib, child.rss_kib)
            if child.code != 0:
                tally.failed += 1
                tally.errors.append(f"jensengap {' '.join(argv[:3])} exited with {child.code}")
                continue
            times.append(child.cpu)
            if done == 0:
                first.update(child.stdout)
            tally.problems += checks.cli_payload(spec, json.loads(child.stdout))
        done += 1
    return times, rss_kib, first.hexdigest()


def untraced(workload, seed, seconds, tally):
    """Set-up workers, then the workload's own kind for ``seconds``; see
    README.md."""
    setup = [worker(workload, seed, "setup")[0]["setup_s"] for _ in range(SETUP_SAMPLES)]
    if inputs.WORKLOAD_KIND[workload] == "cli":
        times, rss_kib, digest = cli_calls(inputs.build(workload, seed)["main"], seconds, tally)
        per_op, rounds = times, [[t, 1] for t in times]
    else:
        result, child = worker(workload, seed, "main", seconds)
        tally.add(result)
        rss_kib, digest = child.rss_kib, result["digest"]
        rounds = result["rounds"]
        per_op = [cpu / units for cpu, units in rounds if units]
    metrics = {"setup_s": statistics.median(setup),
               "cpu_ms_per_op": 1e3 * statistics.median(per_op),
               "peak_rss_mb": rss_kib / 1024.0}
    return ({name: (metrics[name], unit) for name, unit in END_TO_END.items()}, digest,
            {"setup_s": setup, "rounds": rounds})


def import_times():
    """Median self time (ms) of each package's modules under -X importtime."""
    samples = {pkg: [] for pkg in IMPORTED_PACKAGES}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import jensengap"],
                              cwd=ROOT, env=ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        totals = dict.fromkeys(IMPORTED_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(fields[0])
        for pkg, us in totals.items():
            samples[pkg].append(us / 1e3)
    return {f"import.{pkg}_ms": (statistics.median(v), "ms") for pkg, v in samples.items()}


def traced(workload, seed, seconds, tally):
    metrics = import_times()
    result, _ = worker(workload, seed, "trace", seconds)
    tally.add(result)
    metrics.update((name, tuple(v)) for name, v in result["metrics"].items())
    return metrics, result["digest"], {"variance_interval_share": result["variance_interval_share"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOAD_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "jensengap", "__init__.py")):
        sys.exit(f"bench: no jensengap package under {SRC}")

    tally = Tally()
    run = traced if args.trace else untraced
    metrics, digest, extra = run(args.workload, args.seed, args.seconds, tally)
    for line in tally.problems[:SHOWN_PROBLEMS] + tally.errors[:SHOWN_PROBLEMS]:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, digest=digest, problems=tally.problems, errors=tally.errors,
                       **extra), fh, indent=1)
    print(f"digest {args.workload} seed {args.seed}: {digest}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
