#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload warm_serve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds `specmatch_cli` and
`perfbench_driver` from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), starts `specmatch_cli serve --listen` as its own process
with every SPECMATCH_* variable removed from its environment, and drives it
from one closed-loop client process.

--trace 0 measures the end-to-end metrics of BENCHMARK.json and checks every
response against an in-process replay; --trace 1 runs the traced twin and
prints the per-layer metrics. The last line of stdout is the JSON result;
the exit code is non-zero when a check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SETUP_REPEATS = 3  # server boots per timing run; setup_s is their median
SUBPROCESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def clean_env(extra=None):
    """The caller's environment without any SPECMATCH_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECMATCH_")}
    env.update(extra or {})
    return env


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures once, then (re)builds both binaries; returns their paths."""
    for rel in ("src/CMakeLists.txt", "tools/specmatch_cli.cpp", "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            fail(f"not a repository checkout: {rel} is missing")
    out_dir = build_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs, "--target",
                  "specmatch_cli", "perfbench_driver"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed", 1)
    return out_dir / "specmatch_cli", out_dir / "perfbench_driver"


def steal_ticks():
    """Host CPU steal so far (clock ticks, all CPUs): a loaded VM host shows
    up here, and its figures are not comparable with a quiet one's."""
    return int(Path("/proc/stat").read_text().split()[8])


def driver(binary, *args, env=None):
    """Runs one driver subcommand; returns (json result, other stdout lines)."""
    proc = subprocess.run([str(binary), *map(str, args)], capture_output=True,
                          text=True, env=env or clean_env(),
                          timeout=SUBPROCESS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver {args[0]} exited with {proc.returncode}", 1)
    return json.loads(lines[-1]), lines[:-1]


class Server:
    """`specmatch_cli serve --listen 0` in its own process, clean env."""

    def __init__(self, cli, fingerprint, work, tag):
        self.store = work / f"store-{tag}"
        port_file = work / f"port-{tag}"
        args = [str(cli), "serve", "--listen", "0", "--port-file", str(port_file)]
        extra = {}
        if fingerprint["store"]:
            args += ["--store", str(self.store)]
        if fingerprint["mem_mb"] > 0:
            extra["SPECMATCH_SERVE_MEM_MB"] = str(fingerprint["mem_mb"])
        self.log = open(work / f"server-{tag}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(args, env=clean_env(extra),
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        while not port_file.is_file():
            if self.proc.poll() is not None or time.perf_counter() - start > 60:
                self.stop()
                fail("server did not start", 1)
            time.sleep(0.001)
        self.boot_s = time.perf_counter() - start
        self.port = int(port_file.read_text().strip())

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        fail("no VmHWM for the server", 1)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.store, ignore_errors=True)


def timing_run(cli, drv, args, fingerprint, work):
    setups = []
    result = None
    rss_mb = None
    for k in range(SETUP_REPEATS):
        server = Server(cli, fingerprint, work, f"t{k}")
        try:
            common = ["--workload", args.workload, "--seed", args.seed,
                      "--seconds", args.seconds, "--port", server.port,
                      "--server-pid", server.proc.pid]
            if k < SETUP_REPEATS - 1:
                setup, _ = driver(drv, "load", *common, "--setup-only", 1)
                setups.append(server.boot_s + setup["setup_s"])
                continue
            extra = ["--replay-store", work / "replay-store"]
            if args.plant:
                extra += ["--plant", args.plant]
            steal_before, start = steal_ticks(), time.perf_counter()
            result, _ = driver(drv, "load", *common, *extra)
            steal_share = ((steal_ticks() - steal_before) / os.sysconf("SC_CLK_TCK")
                           / (time.perf_counter() - start) / (os.cpu_count() or 1))
            setups.append(server.boot_s + result["setup_s"])
            rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
            shutil.rmtree(work / "replay-store", ignore_errors=True)

    metrics = {name: result[name] for name in (
        "throughput_rps", "mutation_p50_ms", "solve_p50_ms",
        "server_cpu_ms_per_req")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss_mb
    samples = {"mutation_p50_ms": result["mutation_samples"],
               "solve_p50_ms": result["solve_samples"],
               "setup_s": SETUP_REPEATS}
    print(f"window seconds={result['window_s']:.3f} answered={result['answered']}"
          f" failed_share={result['failed'] / result['attempted']:.6f}"
          f" transcript_mismatches={result['mismatches']}"
          f" stats_tail_ok={str(result['stats_ok']).lower()}"
          f" host_steal_share={steal_share:.4f}")
    # The tails are printed but not gated: with 45-110 samples on some
    # workloads they do not hold a regression bound (see README.md).
    for name, count in (("mutation_p90_ms", "mutation_samples"),
                        ("mutation_p99_ms", "mutation_samples"),
                        ("solve_p75_ms", "solve_samples"),
                        ("solve_p90_ms", "solve_samples"),
                        ("solve_p99_ms", "solve_samples")):
        print(f"figure {name} = {result[name]:.6g} ms (n={result[count]})")
    correct = (result["failed"] == 0 and result["mismatches"] == 0
               and result["stats_ok"])
    return metrics, samples, correct, result["attempted"], result["failed"]


def traced_run(cli, drv, args, fingerprint, work):
    server = Server(cli, fingerprint, work, "trace")
    try:
        result, lines = driver(drv, "trace", "--workload", args.workload,
                               "--seed", args.seed, "--seconds", args.seconds,
                               "--port", server.port, "--work", work)
    finally:
        server.stop()
    for line in lines:
        print(line)
    # Lane scaling: the cold_solve market solved at 1 engine lane and at the
    # default (nproc) lanes, each in its own process.
    one, _ = driver(drv, "lanes", "--seed", args.seed,
                    env=clean_env({"SPECMATCH_THREADS": "1"}))
    many, _ = driver(drv, "lanes", "--seed", args.seed)
    print(f"lanes 1 two_stage_ms={one['two_stage_ms']:.3f}; "
          f"lanes {many['lanes']} two_stage_ms={many['two_stage_ms']:.3f}")
    result["two_stage.lane_speedup"] = one["two_stage_ms"] / many["two_stage_ms"]
    print(f"twin solves={result['twin_solves']} "
          f"twin_mismatches={result['twin_mismatches']} "
          f"server_mismatches={result['server_mismatches']}")
    correct = (result["failed"] == 0 and result["twin_mismatches"] == 0
               and result["server_mismatches"] == 0 and result["twin_solves"] > 0)
    return result, {}, correct, result["attempted"], result["failed"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hook: corrupt one check to prove a failure exits non-zero.
    parser.add_argument("--plant", choices=("transcript", "stats"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli, drv = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    fingerprint, _ = driver(drv, "fingerprint", "--workload", args.workload)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    run = traced_run if args.trace else timing_run
    values, samples, correct, attempted, failed = run(cli, drv, args, fingerprint, work)
    for path in work.iterdir():  # snapshot stores; spans.jsonl and logs stay
        if path.is_dir():
            shutil.rmtree(path)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name not in values:
            fail(f"metric {name} was not measured", 1)
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"metric {name} = {values[name]:.6g} {entry['unit']}{count}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
