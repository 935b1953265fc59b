#!/usr/bin/env python3
"""The linksched benchmark: figure workloads through `linksched run`.

    python3 perfbench/run.py --workload fig2-util --seed 1 --seconds 30 --trace 0

Builds the release `linksched` binary (default features) from the
checkout, generates the workload's scenario from the seed, and runs
`linksched run <scenario> --threads N` repeatedly for `--seconds`,
checking every table it prints. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (medians over invocations);
`--trace 1` makes one untraced and one traced invocation
(`--metrics-out`), runs the per-layer probe binary (`perfbench/probes`)
at the workload's witness cell, and reports the per-layer metrics. The
line before the result is a JSON report of the run: seed, scenario,
source identity, build, host and the drift probe. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import tables  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_INVOCATIONS = 3
# Extra spawns before each full invocation that only time the way to the
# first stdout line, so setup_s is a median over many samples spread
# across the run.
SETUP_SPAWNS = 8
# Stop starting invocations past this point, so that a run on a slow
# host still ends within three minutes.
HARD_STOP_S = 120.0


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


def calibrate():
    """Milliseconds for a fixed pure-Python integer loop: a host-speed
    probe independent of the program under test."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t) * 1e3


def calibrate_median():
    return statistics.median(calibrate() for _ in range(3))


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def cargo_build(args, log):
    cmd = ["cargo", "build", "--release", "--offline", *args]
    with open(log, "w") as f:
        r = subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT,
                           env={**os.environ, "CARGO_TARGET_DIR": str(target_dir())})
    if r.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-20:]
        raise BenchError(f"`{' '.join(cmd)}` failed:\n" + "\n".join(tail))


def build(work, probes):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no linksched sources under {ROOT}")
    cargo_build(["--bin", "linksched"], work / "build-linksched.log")
    if probes:
        cargo_build(["--manifest-path", str(ROOT / "perfbench/probes/Cargo.toml")],
                    work / "build-probes.log")


def invoke(argv, stderr_path, first_line_only=False):
    """Runs one child; returns wall/cpu/RSS/time-to-first-line and its
    stdout. With `first_line_only`, kills it after the first line."""
    with open(stderr_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        first = proc.stdout.readline()
        t_first = time.perf_counter()
        if first_line_only:
            proc.kill()
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": t_first - t0 if first else None,
        "stdout": first + rest,
        "code": proc.returncode,
        "stderr": stderr[-2000:],
    }


def check_output(rec, shape):
    """Parses and checks one invocation. Returns (table, problems)."""
    if rec["code"] != 0:
        return None, [f"exit code {rec['code']}: {rec['stderr'].strip()}"]
    try:
        table = tables.parse(rec["stdout"])
    except tables.ParseError as e:
        return None, [f"unparseable output: {e}"]
    return table, tables.violations(table) + tables.shape_violations(table, shape)


def source_identity():
    """The git commit when there is one, and a digest of the sources
    (the benchmark also runs from plain exported checkouts)."""
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("src", "crates"):
        files += [p for p in (ROOT / d).rglob("*") if p.is_file() and "target" not in p.parts]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def e2e_run(bin_path, scenario_path, flags, shape, seconds, work):
    """Times invocations for `seconds` (at least MIN_INVOCATIONS).
    Returns (metrics, report fields, correct, attempted, failed)."""
    argv = [str(bin_path), "run", str(scenario_path), *flags]
    stderr_path = work / "stderr.txt"
    setups = []
    start = time.perf_counter()
    deadline = start + seconds
    runs, problems, outputs = [], [], set()
    failed_runs = 0
    table = None
    while True:
        now = time.perf_counter()
        if len(runs) >= MIN_INVOCATIONS:
            typical = statistics.median(r["wall_s"] for r in runs)
            if now + typical > deadline or now - start > HARD_STOP_S:
                break
        setups += [invoke(argv, stderr_path, first_line_only=True)["setup_s"]
                   for _ in range(SETUP_SPAWNS)]
        rec = invoke(argv, stderr_path)
        runs.append(rec)
        setups.append(rec["setup_s"])
        t, probs = check_output(rec, shape)
        problems += probs
        if t is None:
            failed_runs += 1
        else:
            table = t
            outputs.add(rec["stdout"])
    if len(outputs) > 1:
        problems.append(f"{len(outputs)} different outputs from identical invocations")
    if table is None:
        raise BenchError("no invocation produced a table:\n" + "\n".join(problems[:5]))
    ops, cells_failed = tables.operations(table)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(s for s in setups if s is not None), "s"),
        "ok_share": (1.0 - cells_failed / ops, "share"),
        "bound_geomean_ms": (tables.bound_geomean(table), "ms"),
    }
    summary = {
        "invocations": len(runs),
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": sorted(s for s in setups if s is not None),
        "operations_per_invocation": ops,
        "failed_cells_per_invocation": cells_failed,
        "failed_share": cells_failed / ops,
        "problems": problems[:20],
    }
    # A failed operation here is one in an invocation that crashed or
    # printed no table; `-` cells are reported through ok_share.
    return metrics, summary, not problems, ops * len(runs), ops * failed_runs


def trace_run(bin_path, probes_path, scenario_path, flags, shape, witness, seed, seconds, work):
    """Alternating untraced and traced (`--metrics-out`) invocations for
    `seconds` (at least one pair), then the probes. Returns the same
    tuple as `e2e_run`, with the per-layer metrics."""
    argv = [str(bin_path), "run", str(scenario_path), *flags]
    stderr_path = work / "stderr.txt"
    deadline = time.perf_counter() + seconds
    pairs, exports, problems = [], [], []
    table = None
    while not pairs or (time.perf_counter() + sum(pairs[-1][i]["wall_s"] for i in (0, 1))
                        <= deadline):
        prom = work / f"metrics-{len(pairs)}.prom"
        prom.unlink(missing_ok=True)
        pair = (invoke(argv, stderr_path),
                invoke([*argv, "--metrics-out", str(prom)], stderr_path))
        pairs.append(pair)
        for rec in pair:
            t, probs = check_output(rec, shape)
            problems += probs
            table = table or t
        if table is None:
            raise BenchError("no invocation produced a table:\n" + "\n".join(problems[:5]))
        if pair[0]["stdout"] != pair[1]["stdout"]:
            problems.append("tracing changed the program's output")
        if not prom.is_file():
            raise BenchError("the traced invocation wrote no metrics:\n" + "\n".join(problems[:5]))
        exports.append(layers.Counters(prom.read_text()))
    if any(e.counts() != exports[0].counts() for e in exports):
        problems.append("program counters differ between identical traced invocations")
    counters = exports[-1]
    untraced = {"wall_s": statistics.median(p[0]["wall_s"] for p in pairs)}
    traced = {"wall_s": statistics.median(p[1]["wall_s"] for p in pairs),
              "cpu_s": statistics.median(p[1]["cpu_s"] for p in pairs)}

    probe_argv = [str(probes_path), "--scenario", str(scenario_path)]
    for prefix, cell in (("", witness), ("sim-", workloads.simulator_witness(seed))):
        for key, value in cell.items():
            probe_argv += [f"--{prefix}{key.replace('_', '-')}", str(value)]
    r = subprocess.run(probe_argv, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError(f"probes failed: {r.stderr.strip()}")
    probes = json.loads(r.stdout.strip().splitlines()[-1])
    if not probes.pop("witness_ok"):
        problems.append("Eq. (38) kernel re-solved at the witness disagrees with the bound")
    threads = int(flags[flags.index("--threads") + 1])
    metrics = layers.per_layer(counters, probes, table, traced, untraced, threads)
    ops, _ = tables.operations(table)
    summary = {"pairs": len(pairs),
               "untraced_wall_s": [p[0]["wall_s"] for p in pairs],
               "traced_wall_s": [p[1]["wall_s"] for p in pairs],
               "probe_witness": witness, "probes": probes, "problems": problems[:20]}
    return metrics, summary, not problems, 2 * ops * len(pairs), 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    calib_start = calibrate_median()
    work = target_dir() / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    build(work, probes=args.trace == 1)
    bin_path = target_dir() / "release" / "linksched"
    scenario, flags, shape, witness = workloads.generate(args.workload, args.seed)
    scenario_path = work / f"{args.workload}-{args.seed}.json"
    scenario_path.write_text(json.dumps(scenario, indent=1) + "\n")

    if args.trace == 0:
        metrics, summary, correct, attempted, failed = e2e_run(
            bin_path, scenario_path, flags, shape, args.seconds, work)
    else:
        probes_path = target_dir() / "release" / "linksched-probes"
        metrics, summary, correct, attempted, failed = trace_run(
            bin_path, probes_path, scenario_path, flags, shape, witness, args.seed, args.seconds,
            work)
    calib_end = calibrate_median()
    if args.trace == 1:
        metrics["host.calib_ms"] = (statistics.mean([calib_start, calib_end]), "ms")

    commit, digest = source_identity()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scenario": scenario,
        "flags": flags,
        "commit": commit,
        "source_digest": digest,
        "build": {"profile": "release", "features": "default"},
        "nproc": os.cpu_count(),
        "host.calib_ms": {"start": calib_start, "end": calib_end},
        **summary,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
