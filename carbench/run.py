#!/usr/bin/env python3
"""The CAR recovery benchmark.

    python3 carbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The script

  1. builds carbench/ (the repository's libraries, `carctl` and the
     `car_bench` driver) into $CARGO_TARGET_DIR/carbench, default
     .bench_build/carbench;
  2. estimates the workload's memory footprint and refuses, naming the
     workload, when it exceeds MemAvailable;
  3. runs `carctl` once on the same inputs and keeps its answers;
  4. runs the driver for --seconds of measured iterations;
  5. checks the driver's correctness gate, the determinism of the virtual
     metrics and their agreement with `carctl`;
  6. prints every metric by name with its unit and sample count, then, as
     the last line, one JSON object: correct, attempted, failed, metrics.
     --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

It exits 0 only when every check passed.  Workloads, metrics and why each
was chosen are described in carbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402

GIB = float(1 << 30)

# Shape of each workload.  The driver and the carctl cross-check are both
# built from these entries, so the two always see the same inputs.
WORKLOADS = {
    "meta-rack-1m": {
        "mode": "emulate",
        "num_racks": 100, "rack_size": 100, "k": 6, "m": 3,
        "stripes": 1_000_000, "chunk_kib": 1024, "slice_kib": 0,
        "metadata_only": True, "sample": 8, "iterations": 50, "shards": 4,
    },
    "real-rack-20x20": {
        "mode": "emulate",
        "num_racks": 20, "rack_size": 20, "k": 6, "m": 3,
        "stripes": 500, "chunk_kib": 256, "slice_kib": 64,
        "metadata_only": False, "sample": 0, "iterations": 50,
        # One payload shard: four are slower here (0.38-0.49 s against
        # 0.23-0.25 s per execute on a 4-core host) and their run-to-run
        # spread alone exceeds the recovery_s bound.
        "shards": 1,
    },
    "rebuild-rolling-faults": {
        "mode": "rebuild",
        "num_racks": 10, "rack_size": 10, "k": 6, "m": 3,
        "stripes": 20_000, "chunk_kib": 256, "slice_kib": 64,
        "metadata_only": True, "sample": 16,
        # One scan and populate shard: with four, every census scan waits
        # for its slowest thread, and on a shared 4-core host the run-to-run
        # spread of recovery_s exceeded its bound.
        "shards": 1,
        "crash_times": (0.0, 2.5, 12.0),
        "batch_stripes": 16, "concurrency": 4,
        "drop_prob": 0.02, "blackout": (1.0, 3.0),
        "timeout": 5.0, "max_attempts": 5,
    },
}

# (name, unit).  Host times are medians over a run's measured iterations;
# the virtual metrics are exact for a seed.
END_TO_END = [
    ("wall_s", "s"),
    ("recovery_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("virtual_makespan_s", "s"),
    ("cross_rack_gib", "GiB"),
    ("balance_lambda", "ratio"),
]

PER_LAYER = [
    ("cluster.place_s", "s"),
    ("recovery.scan_s", "s"),
    ("recovery.affected_stripes", "count"),
    ("recovery.balance_s", "s"),
    ("recovery.lower_s", "s"),
    ("recovery.plan_steps", "count"),
    ("recovery.template_misses", "count"),
    ("recovery.template_hit_ratio", "ratio"),
    ("emul.execute_s", "s"),
    ("emul.sliced_steps", "count"),
    ("emul.steps_per_s", "1/s"),
    ("emul.payload_gib_per_s", "GiB/s"),
    ("emul.populate_s", "s"),
    ("emul.populate_gib_per_s", "GiB/s"),
    ("gf.roofline_gib_per_s", "GiB/s"),
    ("rebuild.run_s", "s"),
    ("rebuild.scan_s", "s"),
    ("rebuild.plan_s", "s"),
    ("rebuild.driver_s", "s"),
    ("rebuild.batches", "count"),
    ("rebuild.batches_cancelled", "count"),
    ("rebuild.stripes_requeued", "count"),
    ("rebuild.at_risk_stripe_s", "s"),
    ("inject.attempts", "count"),
    ("inject.retries", "count"),
    ("inject.useful_attempt_ratio", "ratio"),
    ("inject.wasted_wire_gib", "GiB"),
    ("verify.check_s", "s"),
    ("verify.outputs_checked", "count"),
    ("residual_s", "s"),
    ("trace_overhead_s", "s"),
]

# Footprint model, fitted on a 4-core 16 GiB host: real bytes are held
# about three times (stored replicas, the originals kept for verification,
# execution staging), metadata costs under 1 KiB per stripe (placement,
# censuses, plan arena), plus a fixed process base.
BYTES_PER_STRIPE = 1024
BASE_BYTES = 256 * (1 << 20)


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail_without_result(message):
    log("carbench: " + message)
    sys.exit(2)


# ------------------------------------------------------------------ build

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "carbench"


def build(bdir):
    """Configure and build carbench/ into bdir; return the binaries."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(bdir), "-j", jobs,
             "--target", "car_bench", "carctl"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return bdir / "car_bench", bdir / "carctl"


def source_digest():
    """SHA-256 over the sources the benchmark builds: the commit stand-in
    for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    files = []
    for top in ("src", "tools", "carbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ----------------------------------------------------------------- memory

def footprint_bytes(workload):
    """Estimated peak resident bytes of one driver process."""
    chunk = workload["chunk_kib"] * 1024
    chunks = workload["k"] + workload["m"]
    materialised = (workload["sample"] if workload["metadata_only"]
                    else workload["stripes"])
    return (3 * materialised * chunks * chunk +
            BYTES_PER_STRIPE * workload["stripes"] + BASE_BYTES)


def mem_available_bytes():
    with open("/proc/meminfo") as meminfo:
        for line in meminfo:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def memory_refusal(name, workload, available):
    """None when the workload fits, else the refusal message."""
    need = footprint_bytes(workload)
    if need <= available:
        return None
    return (f"workload {name} refused: estimated footprint "
            f"{need / GIB:.2f} GiB exceeds MemAvailable "
            f"{available / GIB:.2f} GiB")


# ----------------------------------------------------------------- inputs

def rebuild_spec(workload, seed):
    """The rolling-failure spec for `seed`: three crashes in three distinct
    racks, and a blackout of a fourth rack's uplink."""
    rng = random.Random(seed)
    racks = rng.sample(range(workload["num_racks"]), 4)
    size = workload["rack_size"]
    nodes = [rack * size + rng.randrange(size) for rack in racks[:3]]
    start, end = workload["blackout"]
    lines = [
        "name rebuild-rolling-faults",
        "racks " + ",".join([str(size)] * workload["num_racks"]),
        f"k {workload['k']}",
        f"m {workload['m']}",
        f"stripes {workload['stripes']}",
        f"chunk-kib {workload['chunk_kib']}",
        f"slice-kib {workload['slice_kib']}",
        f"seed {seed}",
        "strategy car",
        "data-mode metadata",
        f"sample {workload['sample']}",
        f"timeout {workload['timeout']}",
        f"max-attempts {workload['max_attempts']}",
        f"batch-stripes {workload['batch_stripes']}",
        f"concurrency {workload['concurrency']}",
        f"fault drop attempts=1 prob={workload['drop_prob']}",
        f"fault link side=rack-up id={racks[3]} start={start} end={end} "
        "factor=0",
    ]
    lines += [f"crash node={node} at={at}"
              for node, at in zip(nodes, workload["crash_times"])]
    return "\n".join(lines) + "\n"


def emulate_args(workload):
    return ["--num-racks", str(workload["num_racks"]),
            "--rack-size", str(workload["rack_size"]),
            "--k", str(workload["k"]), "--m", str(workload["m"]),
            "--stripes", str(workload["stripes"]),
            "--iterations", str(workload["iterations"])]


def driver_command(binary, workload, spec, args, shards, out, event_log):
    cmd = [str(binary), "--mode", workload["mode"], "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shards", str(shards), "--out", str(out)]
    if workload["mode"] == "rebuild":
        cmd += ["--spec", str(spec), "--log-out", str(event_log)]
    else:
        cmd += emulate_args(workload)
        cmd += ["--chunk-kib", str(workload["chunk_kib"]),
                "--slice-kib", str(workload["slice_kib"])]
        if workload["metadata_only"]:
            cmd += ["--metadata-only", "--sample", str(workload["sample"])]
    if args.corrupt_one:
        cmd.append("--corrupt-one")
    return cmd


def carctl_command(binary, workload, spec, seed, shards, event_log):
    if workload["mode"] == "rebuild":
        return [str(binary), "rebuild-run", "--spec", str(spec),
                "--shards", str(shards), "--log-out", str(event_log)]
    cmd = [str(binary), "emulate"] + emulate_args(workload)
    cmd += ["--chunk-mib", repr(workload["chunk_kib"] / 1024.0),
            "--shards", str(shards), "--fail-rack", "--seed", str(seed),
            "--json"]
    if workload["slice_kib"]:
        cmd += ["--slice-kib", str(workload["slice_kib"])]
    if workload["metadata_only"]:
        cmd += ["--metadata-only", "--sample", str(workload["sample"])]
    return cmd


# ----------------------------------------------------------- cross-check

REBUILD_PATTERNS = {
    "events": r"^\s*events: (.*)$",
    "scans": r"control plane: (\d+) scans",
    "batches": r"scans, (\d+) batches",
    "cancelled": r"batches \((\d+) cancelled",
    "requeued": r"cancelled, (\d+) stripes re-queued",
    "attempts": r"\| (\d+) transfer attempts",
    "retries": r"attempts \((\d+) retries\)",
    "rebuilt": r"recovery: (\d+) chunks rebuilt",
}


def log_totals(event_log):
    """The exact makespan and cross-rack bytes of a rebuild event log: the
    run-complete event's time and the bytes of every completed cross-rack
    transfer."""
    makespan, cross = None, 0
    with open(event_log, "rb") as lines:
        for line in lines:
            if b'"kind":"transfer-complete"' in line:
                if b'"detail":"cross-rack' in line:
                    cross += int(re.search(rb'"bytes":(\d+)', line).group(1))
            elif b'"kind":"run-complete"' in line:
                makespan = re.search(rb'"t":"([0-9.]+)"', line).group(1)
    return {"makespan_s": makespan and makespan.decode(),
            "cross_rack_bytes": str(cross)}


def parse_carctl(workload, stdout, event_log):
    """carctl's answers as {field: text}, in the driver's field names."""
    if workload["mode"] == "rebuild":
        fields = {}
        for key, pattern in REBUILD_PATTERNS.items():
            match = re.search(pattern, stdout, re.MULTILINE)
            fields[key] = match.group(1).strip() if match else None
        fields.update(log_totals(event_log))
        return fields
    report = json.loads(stdout)
    return {
        "affected_stripes": str(report["affected_stripes"]),
        "plan_steps": str(report["plan_steps"]),
        "outputs": str(report["outputs"]),
        "makespan_s": repr(float(report["makespan_s"])),
        "cross_rack_bytes": str(report["cross_rack_bytes"]),
    }


def compare_crosscheck(workload, cli, driver):
    """Mismatch messages between carctl's fields and the driver's."""
    problems = []
    for key, expected in cli.items():
        got = driver.get(key)
        if workload["mode"] == "emulate" and key == "makespan_s" and got:
            got = repr(float(got))
        if expected is None or got != expected:
            problems.append(f"carctl {key}={expected!r} but driver {got!r}")
    return problems


def compare_event_logs(cli_log, driver_log):
    """None when the two rebuild event logs are byte-identical, else the
    mismatch message.  The log holds every event's virtual time (to the
    nanosecond) and byte count, so equal logs mean equal runs."""
    try:
        cli, ours = cli_log.read_bytes(), driver_log.read_bytes()
    except OSError as error:
        return f"event log missing: {error}"
    if cli == ours:
        return None
    line = cli[:next((i for i, (a, b) in enumerate(zip(cli, ours)) if a != b),
                     min(len(cli), len(ours)))].count(b"\n") + 1
    return (f"event log differs from carctl's at line {line} "
            f"({len(cli)} vs {len(ours)} bytes)")


# -------------------------------------------------------------- metrics

def measured(iterations, traced=False):
    """Timed iterations: all but the warm-up one, of the given kind."""
    return [it for it in iterations
            if it["index"] > 0 and it["traced"] == traced]


def end_to_end(report):
    runs = measured(report["iterations"])
    first = report["iterations"][0]["virtual"]
    return {
        "wall_s": [it["wall_s"] for it in runs],
        "recovery_s": [it["recovery_s"] for it in runs],
        "setup_s": [it["setup_s"] for it in runs],
        "peak_rss_mib": [report["peak_rss_mib"]],
        "virtual_makespan_s": [first["makespan_s"]],
        "cross_rack_gib": [first["cross_rack_bytes"] / GIB],
        "balance_lambda": [first["balance_lambda"]],
    }


def per_layer(report):
    """Per-layer samples from the traced iterations: span self times, the
    driver's counts and the layer-internal timers."""
    traced = measured(report["iterations"], traced=True)
    plain = measured(report["iterations"], traced=False)
    own = summary.self_time_by_iteration(report["spans"])
    samples = {name: [] for name, _ in PER_LAYER}

    def span(it, name):
        return own.get(it["index"], {}).get(name, 0.0)

    for it in traced:
        layer = it["layer"]
        count = lambda key: layer.get(key, 0.0)  # noqa: E731
        execute = span(it, "emul.execute")
        populate = span(it, "emul.populate")
        run = span(it, "rebuild.run")
        rebuild_scan = count("rebuild.scan_s")
        rebuild_plan = count("rebuild.plan_s")
        values = {
            "cluster.place_s": span(it, "cluster.place"),
            # Inside RebuildCoordinator::run the census scans are the
            # coordinator's own timer; elsewhere the scan is its own call.
            "recovery.scan_s": (span(it, "recovery.scan") if run == 0.0
                                else rebuild_scan),
            "recovery.affected_stripes": count("recovery.affected_stripes"),
            "recovery.balance_s": span(it, "recovery.balance"),
            "recovery.lower_s": span(it, "recovery.lower"),
            "recovery.plan_steps": count("recovery.plan_steps"),
            "recovery.template_misses": count("recovery.template_misses"),
            "recovery.template_hit_ratio": count(
                "recovery.template_hit_ratio"),
            "emul.execute_s": execute,
            "emul.sliced_steps": count("emul.sliced_steps"),
            "emul.steps_per_s": (count("emul.sliced_steps") / execute
                                 if execute > 0 else 0.0),
            "emul.payload_gib_per_s": (count("emul.payload_bytes") / execute /
                                       GIB if execute > 0 else 0.0),
            "emul.populate_s": populate,
            "emul.populate_gib_per_s": (count("emul.populated_bytes") /
                                        populate / GIB
                                        if populate > 0 else 0.0),
            "gf.roofline_gib_per_s": report["gf_roofline_gib_per_s"],
            "rebuild.run_s": run,
            "rebuild.scan_s": rebuild_scan,
            "rebuild.plan_s": rebuild_plan,
            "rebuild.driver_s": (run - rebuild_scan - rebuild_plan
                                 if run > 0 else 0.0),
            "rebuild.batches": count("rebuild.batches"),
            "rebuild.batches_cancelled": count("rebuild.batches_cancelled"),
            "rebuild.stripes_requeued": count("rebuild.stripes_requeued"),
            "rebuild.at_risk_stripe_s": it["virtual"]["at_risk_stripe_s"],
            "inject.attempts": count("inject.attempts"),
            "inject.retries": count("inject.retries"),
            "inject.useful_attempt_ratio": count(
                "inject.useful_attempt_ratio"),
            "inject.wasted_wire_gib": count("inject.wasted_wire_bytes") / GIB,
            "verify.check_s": span(it, "verify"),
            "verify.outputs_checked": count("verify.outputs_checked"),
            "residual_s": span(it, "recovery"),
        }
        for name, value in values.items():
            samples[name].append(value)
    if traced and plain:
        overhead = (summary.median([it["wall_s"] for it in traced]) -
                    summary.median([it["wall_s"] for it in plain]))
        samples["trace_overhead_s"] = [overhead]
    return samples, own


# ---------------------------------------------------------------- output

def print_table(title, samples, units):
    log(f"{title}:")
    log(f"  {'metric':<30} {'unit':<6} {'n':>3} {'median':>14} "
        f"{'q1':>14} {'q3':>14}  tail")
    for name, unit in units:
        values = samples.get(name, [])
        if not values:
            log(f"  {name:<30} {unit:<6} {0:>3} {'-':>14}")
            continue
        row = summary.describe(values)
        tail = row["tail"]
        tail_text = (f"p{tail[0]:g}={tail[1]:.6g}" if tail
                     else "none (<10 samples beyond any percentile)")
        log(f"  {name:<30} {unit:<6} {row['n']:>3} {row['median']:>14.6g} "
            f"{row['q1']:>14.6g} {row['q3']:>14.6g}  {tail_text}")


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


def describe_exit(returncode):
    if returncode < 0:
        return "killed by signal " + signal.Signals(-returncode).name
    return f"exit code {returncode}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-one", action="store_true",
                        help="gate self-test: corrupt one recovered chunk "
                             "after execute (the run must fail)")
    args = parser.parse_args()

    if args.workload not in WORKLOADS:
        fail_without_result(f"unknown workload {args.workload!r}; choose "
                            "from " + ", ".join(WORKLOADS))
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "carctl.cc").is_file():
        fail_without_result(f"the CAR sources are missing under {ROOT}; "
                            "run from a full checkout")
    workload = WORKLOADS[args.workload]

    refusal = memory_refusal(args.workload, workload, mem_available_bytes())
    if refusal:
        log("carbench: " + refusal)
        emit(False, 1, 1, {})
        return 1

    bdir = build_dir()
    try:
        driver_bin, carctl_bin = build(bdir)
    except subprocess.CalledProcessError as error:
        fail_without_result(f"build failed ({describe_exit(error.returncode)})")

    shards = max(1, min(workload["shards"], os.cpu_count() or 1))
    work = bdir / "runs"
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    spec = work / f"{tag}.spec"
    out = work / f"{tag}.json"
    cli_log = work / f"{tag}.carctl-log.json"
    driver_log = work / f"{tag}.driver-log.json"
    if workload["mode"] == "rebuild":
        spec.write_text(rebuild_spec(workload, args.seed))

    problems = []
    try:
        # The same inputs through the CLI users run, outside the timed part.
        cli_cmd = carctl_command(carctl_bin, workload, spec, args.seed, shards,
                                 cli_log)
        cli = subprocess.run(cli_cmd, capture_output=True, text=True,
                             timeout=60)
        if cli.returncode != 0:
            problems.append(f"carctl {describe_exit(cli.returncode)}: "
                            + cli.stderr.strip()[-500:])
            cli_fields = {}
        else:
            cli_fields = parse_carctl(workload, cli.stdout, cli_log)

        cmd = driver_command(driver_bin, workload, spec, args, shards, out,
                             driver_log)
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=args.seconds + 100)
        if proc.returncode not in (0, 1) or not out.exists():
            log(f"carbench: workload {args.workload} FAILED: driver "
                f"{describe_exit(proc.returncode)}")
            emit(False, 1, 1, {})
            return 1
        report = json.loads(out.read_text())
        log_compared = workload["mode"] == "rebuild" and bool(cli_fields)
        mismatch = (compare_event_logs(cli_log, driver_log)
                    if log_compared else None)
        if mismatch:
            problems.append(mismatch)
    except subprocess.TimeoutExpired as error:
        log(f"carbench: workload {args.workload} FAILED: {error.cmd[0]} "
            f"killed after {error.timeout:g} s")
        emit(False, 1, 1, {})
        return 1
    finally:
        for path in (spec, out, cli_log, driver_log):
            path.unlink(missing_ok=True)

    checks = report["checks"]
    # One op per compared carctl field, and one for the event log.
    attempted = checks["attempted"] + max(1, len(cli_fields)) + log_compared
    failed = checks["failed"] + len(problems)
    problems += checks["messages"]
    if cli_fields:
        mismatches = compare_crosscheck(workload, cli_fields,
                                        report["crosscheck"])
        failed += len(mismatches)
        problems += mismatches

    context = dict(report["context"])
    commit = git_commit()
    context.update({"workload": args.workload, "seconds": args.seconds,
                    "trace": args.trace, "git_commit": commit})
    if commit is None:
        context["source_sha256"] = source_digest()
    log("context: " + json.dumps(context, sort_keys=True))
    log(f"workload {args.workload}: {json.dumps(workload)}")

    if args.trace:
        samples, own = per_layer(report)
        units = PER_LAYER
        traced_ids = {it["index"] for it in report["iterations"]
                      if it["traced"]}
        every_span = sorted({name for i in traced_ids
                             for name in own.get(i, {})})
        span_samples = {f"span {name} (self)":
                        [own[i].get(name, 0.0) for i in sorted(traced_ids)]
                        for name in every_span}
        print_table("per-layer (traced iterations)", samples, units)
        print_table("all spans, self time", span_samples,
                    [(name, "s") for name in span_samples])
    else:
        samples = end_to_end(report)
        units = END_TO_END
        print_table("end-to-end (untraced iterations)", samples, units)
    frac = failed / attempted
    log(f"  {'ops_failed_frac':<30} {'ratio':<6} {1:>3} {frac:>14.6g}  "
        f"({failed} failed of {attempted} checks)")
    if report["iterations"][0]["virtual"]["at_risk_stripe_s"] > 0:
        log(f"  {'at_risk_stripe_s':<30} {'s':<6} {1:>3} "
            f"{report['iterations'][0]['virtual']['at_risk_stripe_s']:>14.6g}")
    for problem in problems:
        log("  FAILED: " + problem)

    metrics = {}
    for name, unit in units:
        values = samples.get(name) or [0.0]
        value = summary.median(values)
        if not math.isfinite(value):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
