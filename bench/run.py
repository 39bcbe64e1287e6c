#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `bundleaut` command line.

    python3 bench/run.py --workload table-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md): `table-cold`, `lookup-cold`, `report-warm`.  A
run executes its seeded command list a whole number of passes, one command
at a time, then checks every output against `oracles`.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`.  Details go to `bench/out/`.

The process the user starts only orchestrates.  Each set-up sample is a
fresh `--role probe` or `--role worker` process that imports the package,
builds its inputs (and, for `report-warm`, fills the caches) and reports
when it is ready; the worker then runs the passes.  A cold command runs in
a child forked from the worker, which has run nothing else, and is timed
inside that child around `cli.main(argv)` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up samples per untraced run, each in a fresh process; the median is
# reported.  Warm set-up fills every cache (several seconds), so it gets fewer.
SETUP_SAMPLES = {"table-cold": 5, "lookup-cold": 5, "report-warm": 3}
TIME_LIMIT_S = 175.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


# ---------------------------------------------------------------------------
# worker: runs inside a fresh interpreter


class Worker:
    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        os.environ.pop("BUNDLEAUT_COLOR", None)
        from bundleaut import cli

        self.cli = cli
        self.cold = workload in workloads.COLD
        self.commands = workloads.commands(workload, seed)
        if not self.cold:
            for argv in self.commands:  # fill every cache the sweep uses
                self.run_inline(argv)

    def run_inline(self, argv: list[str]) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:
                rc = traceback.format_exc(limit=-1).strip()
            latency = time.perf_counter() - start
        return {"latency": latency, "rc": rc, "out": buf.getvalue()}

    def run_cold(self, argv: list[str], traced: bool) -> dict:
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                tracer = None
                if traced:
                    import layers

                    tracer = layers.Tracer()
                    tracer.install()
                record = self.run_inline(argv)
                record["peak_rss_kb"] = _peak_rss_kb()
                if tracer is not None:
                    record["layers"] = tracer.snapshot()
                    record["caches"] = layers.cache_counts()
                with os.fdopen(write_fd, "w") as pipe:
                    json.dump(record, pipe)
                status = 0
            except BaseException:  # the child reports and exits; it never
                traceback.print_exc()  # returns into the worker's loop
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"cold child for {argv} ended with status {status}")
        return json.loads(data)

    def run_passes(self, passes: int, trace: bool) -> dict:
        """Each pass runs the command list once; with `trace`, once untraced
        and then once traced.  Cold commands are traced in their child."""
        if trace:
            import layers
        tracer = layers.Tracer() if trace and not self.cold else None
        layer_total: dict = {}
        cache_total: dict[str, list[int]] = {}
        runs, outputs = [], [None] * len(self.commands)
        peak_kb = 0
        for p in range(passes):
            for traced in (False, True) if trace else (False,):
                if tracer is not None and traced:
                    before = layers.cache_counts()
                    tracer.install()
                for i, argv in enumerate(self.commands):
                    if self.cold:
                        rec = self.run_cold(argv, traced)
                        peak_kb = max(peak_kb, rec["peak_rss_kb"])
                        if traced:
                            _merge_layers(layer_total, rec["layers"])
                            _add_counts(cache_total, rec["caches"], {})
                    else:
                        rec = self.run_inline(argv)
                    ok = rec["rc"] == 0
                    runs.append([p, traced, i, rec["latency"], ok,
                                 _digest(rec["out"]), None if ok else str(rec["rc"])])
                    if p == 0 and not traced:
                        outputs[i] = rec["out"]
                if tracer is not None and traced:
                    tracer.uninstall()
                    _add_counts(cache_total, layers.cache_counts(), before)
        if tracer is not None:
            layer_total = tracer.snapshot()
        if not self.cold:
            peak_kb = _peak_rss_kb()
        return {"runs": runs, "outputs": outputs, "peak_rss_kb": peak_kb,
                "layers": layer_total, "caches": cache_total}


def _add_counts(total: dict, after: dict, before: dict) -> None:
    """Add the (hits, misses) taken between `before` and `after`."""
    for name, (hits, misses) in after.items():
        hits0, misses0 = before.get(name, (0, 0))
        bucket = total.setdefault(name, [0, 0])
        bucket[0] += hits - hits0
        bucket[1] += misses - misses0


def _merge_layers(total: dict, part: dict) -> None:
    for key in ("calls", "self_s", "total_s"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    edges = total.setdefault("edges", {})
    for edge, n in part["edges"].items():
        edges[edge] = edges.get(edge, 0) + n
    total["missing"] = part["missing"]


def worker_main(args) -> int:
    worker = Worker(args.workload, args.seed)
    print(json.dumps({"ready": time.perf_counter()}), flush=True)
    if args.role == "probe":
        return 0
    result = worker.run_passes(workloads.passes(args.workload, args.seconds), bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# orchestrator: the process the user starts


def spawn(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Start one fresh worker process; return its set-up time (interpreter
    start until ready, on the shared monotonic clock) and its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} process exceeded the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    lines = out.splitlines()
    ready = json.loads(lines[0])["ready"]
    return ready - start, (json.loads(lines[-1]) if role == "worker" else None)


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by the Beta((n+1)/2, (n+1)/2) density, integrated
    by the midpoint rule.  The plain sample median of lookup-cold falls in
    the gap between the rank-5 types (about 110 ms) and the rank-6 types
    (about 180 ms) and jumped between them: over ten runs its spread
    (IQR / median) read 0.12-0.27 for different passes of the same runs,
    against 0.07-0.09 for this estimate."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 16  # integration points per order statistic
    weights = [0.0] * n
    for k in range(n * steps):
        t = (k + 0.5) / (n * steps)
        weights[k // steps] += math.exp(log_norm + (a - 1) * (math.log(t) + math.log1p(-t)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(runs: list, setup: list[float], peak_kb: int, traced: bool) -> dict:
    pass_s: dict[int, float] = {}
    latencies = []
    for p, t, _, latency, _, _, _ in runs:
        if bool(t) == traced:
            pass_s[p] = pass_s.get(p, 0.0) + latency
            latencies.append(latency)
    return {
        "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
        "pass_s": {"value": statistics.median(pass_s.values()), "unit": "s"},
        "latency_p50_ms": {"value": 1000 * harrell_davis_median(latencies), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(result: dict, passes: int, overhead_pct: float) -> dict:
    import layers

    metrics = {}
    calls = result["layers"].get("calls", {})
    self_s = result["layers"].get("self_s", {})
    for name in layers.function_names():
        metrics[f"{name}.calls"] = {"value": calls.get(name, 0) / passes, "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": 1000 * self_s.get(name, 0.0) / passes,
                                      "unit": "ms"}
    for name, (hits, misses) in result["caches"].items():
        ratio = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"cache.{name}.hit_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


def verify(commands: list[list[str]], result: dict) -> tuple[list[str], dict]:
    """Check every output against the oracles, require the same bytes from
    every pass (traced or not), and self-test the checks."""
    sys.path.insert(0, str(SRC))
    import checks

    failures = []
    digests: dict[int, set] = {}
    first_ok = set()
    for p, traced, i, _, ok, digest, _ in result["runs"]:
        if ok:
            digests.setdefault(i, set()).add(digest)
            if p == 0 and not traced:
                first_ok.add(i)
    for i, found in sorted(digests.items()):
        if len(found) > 1:
            failures.append(f"{' '.join(commands[i])}: output differs between runs")
    outputs = [(checks.Command(tuple(commands[i])), text)
               for i, text in enumerate(result["outputs"]) if i in first_ok]
    for cmd, text in outputs:
        failures += checks.check_output(cmd, text)
    tried, problems = checks.self_test(outputs)
    report = {"corruptions_tried": tried, "problems": problems}
    return failures + [f"self-test: {p}" for p in problems], report


def orchestrate(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    missing = [p for p in (SRC / "bundleaut" / "__init__.py",
                           ROOT / "tables" / "corollary_b.golden") if not p.is_file()]
    if missing:
        print(f"error: {', '.join(str(p) for p in missing)} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    commands = workloads.commands(args.workload, args.seed)
    passes = workloads.passes(args.workload, args.seconds)
    samples = []
    for _ in range(0 if args.trace else SETUP_SAMPLES[args.workload] - 1):
        samples.append(spawn(args, "probe", deadline)[0])
    setup, result = spawn(args, "worker", deadline)
    samples.append(setup)
    print(f"{args.workload}: {len(commands)} commands x {passes} passes, "
          f"set-up samples {[round(s, 3) for s in samples]}", file=sys.stderr)

    runs = result["runs"]
    failed = sum(1 for r in runs if not r[4])
    failures, selftest = verify(commands, result)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    for r in runs:
        if not r[4]:
            print(f"FAILED {' '.join(commands[r[2]])}: {r[6]}", file=sys.stderr)
            break
    print(f"self-test: {selftest['corruptions_tried']} corruptions, "
          f"{len(selftest['problems'])} problems", file=sys.stderr)

    untraced = end_to_end(runs, samples, result["peak_rss_kb"], traced=False)
    if args.trace:
        traced = end_to_end(runs, [], 0, traced=True)
        overhead = 100 * (traced["pass_s"]["value"] / untraced["pass_s"]["value"] - 1)
        metrics = per_layer(result, passes, overhead)
    else:
        metrics = untraced
    summary = {"correct": not failures, "attempted": len(runs), "failed": failed,
               "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    detail = dict(summary, workload=args.workload, seed=args.seed, passes=passes,
                  python=sys.version.split()[0], setup_samples_s=samples,
                  failures=failures, selftest=selftest,
                  commands=[{"argv": " ".join(c), "sha256": sorted({r[5] for r in runs if r[2] == i})}
                            for i, c in enumerate(commands)],
                  runs=[{"pass": r[0], "traced": r[1], "command": r[2], "latency_s": r[3]}
                        for r in runs],
                  layers=result["layers"] if args.trace else None)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sets the number of whole passes; see workloads.NOMINAL_PASS_S")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "worker"), default="main",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role != "main":
        return worker_main(args)
    try:
        return orchestrate(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
