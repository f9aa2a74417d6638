#!/usr/bin/env python3
"""Structural diff between two recovery-bench JSON baselines.

CI runs `micro_recovery --json` on the PR build and compares the result
against the committed BENCH_recovery.json with this tool.  Host timing is
noisy and machine-specific, so absolute times are deliberately ignored —
what must match is the *structure*:

  - the schema string (car-recovery-bench/1);
  - the fabric and workload constants (these define the experiment; a drift
    here silently changes what the baseline means);
  - the set of measured points, keyed by (config, core_scale), and each
    point's integer/config fields (k, m, racks);
  - the set of scale_sweep rows, keyed by (stripes, nodes, failure), and
    each row's config fields (racks, shards, metadata_only);
  - the set of rebuild rows (the rolling-two-rack control-plane sweep),
    keyed by (scenario, strategy, concurrency), each row's batch_stripes,
    and its bit_exact flag (a non-bit-exact rebuild is a correctness
    regression, not timing noise);
  - the set of host_results benchmark names and their non-timing fields
    (op, chunk_bytes, slice_bytes).

Makespans on the virtual clock are deterministic per build, but they may
legitimately move when the planner or emulator changes; the only value
checks are directional: every default-fabric (core_scale == 1) point must
keep speedup >= --min-speedup (default 1.3, the acceptance bar), every
scale_sweep row must report a positive makespan and step count (and a
positive end_to_end_s when it carries one), every full-rack scale_sweep
row that carries the template-cache timing columns must keep plan_speedup
(classic plan+lowering over template-cached arena build, a within-run
host-time ratio that divides out the machine) >= --min-plan-speedup
(default 5, the acceptance bar), and every full-rack row that carries the
heap-oracle timing column must keep replay_heap1_s / replay_s (the bare
test-oracle heap replay over the production replay, the same kind of
within-run ratio) >= --min-replay-speedup (default 0.75).  Both sides
drain a binary heap with the same per-event work, so this bar bounds the
production loop's own overhead — its drain-frontier check, payload-pass
bookkeeping and shared event type — at 1.33x the bare oracle heap.  When
a bar fails and the row carries its per-repetition paired ratios
(plan_speedup_reps, replay_speedup_reps), the message lists them, so a
failure at the bar can be told from a failure of every repetition; the
gated statistic stays the min-of-repetitions ratio.
One value must match exactly: a scale_sweep row's replay_digest,
the order-sensitive hash of every committed replay event, must equal the
baseline's whenever the baseline carries one — event order is
deterministic, so a moved digest means the replay changed.

Malformed input is a diagnostic, not a traceback: a missing section, a row
without its key fields, or a zero makespan in a speedup ratio all produce a
clear message and a nonzero exit instead of KeyError/ZeroDivisionError.

Usage:
  bench_schema_diff.py BASELINE CANDIDATE [--min-speedup 1.3]
      [--min-plan-speedup 5.0] [--min-replay-speedup 0.75]

Exits 0 when the candidate matches, 1 with a report on stderr otherwise,
2 when an input file cannot be read or parsed at all.
"""

import argparse
import json
import sys

POINT_KEY = ("config", "core_scale")
POINT_FIELDS = ("k", "m", "racks")
SWEEP_KEY = ("stripes", "nodes", "failure")
SWEEP_FIELDS = ("racks", "shards", "metadata_only")
REBUILD_KEY = ("scenario", "strategy", "concurrency")
REBUILD_FIELDS = ("batch_stripes", "bit_exact")
RESULT_FIELDS = ("op", "chunk_bytes", "slice_bytes")


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        sys.exit(f"bench_schema_diff: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        sys.exit(f"bench_schema_diff: {path} is not valid JSON: {exc}")


def keyed(rows, key_fields, section, errors):
    """Index rows by key_fields; rows missing a key field become errors
    instead of a KeyError traceback."""
    out = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"{section}[{i}]: expected an object, got {row!r}")
            continue
        missing = [k for k in key_fields if k not in row]
        if missing:
            errors.append(
                f"{section}[{i}]: row is missing key field(s) {missing}"
            )
            continue
        out[tuple(row[k] for k in key_fields)] = row
    return out


def section_rows(doc, which, section, required, errors):
    """Fetch doc[section] as a list; a missing-but-required section or a
    non-list value is a diagnostic."""
    rows = doc.get(section)
    if rows is None:
        if required:
            errors.append(f"section {section!r} missing from {which} JSON")
        return []
    if not isinstance(rows, list):
        errors.append(f"section {section!r} in {which} is not a list")
        return []
    return rows


def check_speedup(key, point, min_speedup, errors):
    """Directional check on a fig9 point, recomputing the ratio with a
    zero-makespan guard (a zero baseline row used to ZeroDivisionError)."""
    if point.get("core_scale") != 1:
        return
    unsliced = point.get("unsliced_makespan_s", 0)
    sliced = point.get("sliced_makespan_s", 0)
    if not sliced or sliced <= 0:
        errors.append(
            f"point {key}: sliced makespan is {sliced!r}; cannot form a "
            "speedup ratio (zero/missing makespan in a measured row means "
            "the benchmark did not actually run)"
        )
        return
    speedup = unsliced / sliced
    if speedup < min_speedup:
        errors.append(
            f"point {key}: sliced speedup {speedup:.3f} fell below the "
            f"{min_speedup}x acceptance bar"
        )


def spread(row, field):
    """The per-repetition paired ratios behind a gated ratio, as a message
    suffix; empty when the row does not carry them."""
    reps = row.get(field)
    if not isinstance(reps, list) or not reps:
        return ""
    try:
        shown = ", ".join(f"{float(r):.3f}" for r in reps)
    except (TypeError, ValueError):
        return f" ({field} is not a list of numbers: {reps!r})"
    return f" ({field}: {shown})"


def diff_section(base_rows, cand_rows, key_fields, fields, section, errors):
    base = keyed(base_rows, key_fields, f"baseline {section}", errors)
    cand = keyed(cand_rows, key_fields, f"candidate {section}", errors)
    for key in sorted(set(base) - set(cand), key=repr):
        errors.append(f"{section} row missing from candidate: {key}")
    for key in sorted(set(cand) - set(base), key=repr):
        errors.append(f"unexpected new {section} row in candidate: {key}")
    for key in sorted(set(base) & set(cand), key=repr):
        for field in fields:
            if base[key].get(field) != cand[key].get(field):
                errors.append(
                    f"{section} row {key} field {field!r}: baseline "
                    f"{base[key].get(field)!r} vs candidate "
                    f"{cand[key].get(field)!r}"
                )
    return base, cand


def diff(baseline, candidate, min_speedup, min_plan_speedup,
         min_replay_speedup):
    errors = []

    for field in ("schema", "fabric", "workload"):
        if baseline.get(field) != candidate.get(field):
            errors.append(
                f"{field} mismatch: baseline {baseline.get(field)!r} "
                f"vs candidate {candidate.get(field)!r}"
            )

    base_points = section_rows(baseline, "baseline", "points", True, errors)
    cand_points = section_rows(candidate, "candidate", "points", True, errors)
    _, cand_by_key = diff_section(
        base_points, cand_points, POINT_KEY, POINT_FIELDS, "points", errors
    )
    for key, point in sorted(cand_by_key.items()):
        check_speedup(key, point, min_speedup, errors)

    # The scale sweep is required exactly when the baseline carries one, so
    # old baselines keep diffing cleanly.
    sweep_required = "scale_sweep" in baseline
    base_sweep = section_rows(
        baseline, "baseline", "scale_sweep", sweep_required, errors
    )
    cand_sweep = section_rows(
        candidate, "candidate", "scale_sweep", sweep_required, errors
    )
    base_sweep_by_key, cand_sweep_by_key = diff_section(
        base_sweep, cand_sweep, SWEEP_KEY, SWEEP_FIELDS, "scale_sweep", errors
    )
    for key, row in sorted(cand_sweep_by_key.items(), key=repr):
        makespan = row.get("makespan_s", 0)
        if not makespan or makespan <= 0:
            errors.append(
                f"scale_sweep row {key}: makespan_s is {makespan!r}; a "
                "non-positive makespan means the emulated recovery did not run"
            )
        elif row.get("stripes", 0) / makespan <= 0:
            errors.append(f"scale_sweep row {key}: zero recovery throughput")
        if not row.get("plan_steps"):
            errors.append(f"scale_sweep row {key}: plan_steps is missing/zero")
        if "end_to_end_s" in row and not row.get("end_to_end_s", 0) > 0:
            errors.append(
                f"scale_sweep row {key}: end_to_end_s is "
                f"{row.get('end_to_end_s')!r}; the phase timers did not run"
            )
        # Template-cache acceptance: full-rack rows are where hundreds of
        # thousands of stripes share a handful of structural signatures, so
        # the cached build must beat classic plan+lowering by the bar.  The
        # ratio is host time over host time in one process, so machine
        # speed divides out.
        if row.get("failure") == "full-rack" and "plan_speedup" in row:
            plan_speedup = row.get("plan_speedup") or 0
            if plan_speedup < min_plan_speedup:
                errors.append(
                    f"scale_sweep row {key}: plan_speedup "
                    f"{plan_speedup:.3f} fell below the "
                    f"{min_plan_speedup}x template-cache acceptance bar"
                    + spread(row, "plan_speedup_reps")
                )
            misses = row.get("template_cache_misses", 0)
            affected = row.get("affected_stripes", 0)
            if affected and misses * 10 > affected:
                errors.append(
                    f"scale_sweep row {key}: {misses} template-cache "
                    f"misses for {affected} affected stripes — the "
                    "signature space is exploding instead of collapsing"
                )
        base_row = base_sweep_by_key.get(key, {})
        # Replay-loop acceptance: full-rack rows replay hundreds of
        # thousands to millions of events, where the production loop must
        # stay within the bar of the bare oracle heap doing the same
        # per-event work.  Same within-run host-ratio construction as
        # plan_speedup.  A candidate may not drop the comparator column the
        # baseline gates on.
        if row.get("failure") == "full-rack" and (
            "replay_heap1_s" in row or "replay_heap1_s" in base_row
        ):
            heap1 = row.get("replay_heap1_s") or 0
            replay = row.get("replay_s") or 0
            if heap1 <= 0 or replay <= 0:
                errors.append(
                    f"scale_sweep row {key}: replay_heap1_s {heap1!r} / "
                    f"replay_s {replay!r} is not a measured ratio"
                )
            elif heap1 / replay < min_replay_speedup:
                errors.append(
                    f"scale_sweep row {key}: replay_heap1_s / replay_s "
                    f"{heap1 / replay:.3f} fell below the "
                    f"{min_replay_speedup}x replay-loop acceptance bar"
                    + spread(row, "replay_speedup_reps")
                )
        if "replay_digest" in base_row and (
            row.get("replay_digest") != base_row["replay_digest"]
        ):
            errors.append(
                f"scale_sweep row {key}: replay_digest "
                f"{row.get('replay_digest')!r} != baseline "
                f"{base_row['replay_digest']!r} — the replay committed a "
                "different event sequence"
            )

    # Like the scale sweep, the rebuild section is required exactly when
    # the baseline carries one.
    rebuild_required = "rebuild" in baseline
    base_rebuild = section_rows(
        baseline, "baseline", "rebuild", rebuild_required, errors
    )
    cand_rebuild = section_rows(
        candidate, "candidate", "rebuild", rebuild_required, errors
    )
    _, cand_rebuild_by_key = diff_section(
        base_rebuild, cand_rebuild, REBUILD_KEY, REBUILD_FIELDS, "rebuild",
        errors,
    )
    for key, row in sorted(cand_rebuild_by_key.items(), key=repr):
        makespan = row.get("makespan_s", 0)
        if not makespan or makespan <= 0:
            errors.append(
                f"rebuild row {key}: makespan_s is {makespan!r}; a "
                "non-positive makespan means the rebuild did not actually run"
            )
        if row.get("bit_exact") is not True:
            errors.append(
                f"rebuild row {key}: bit_exact is "
                f"{row.get('bit_exact')!r}; recovered bytes diverged from "
                "the original encoding"
            )
        if not row.get("chunks_recovered"):
            errors.append(
                f"rebuild row {key}: chunks_recovered is missing/zero"
            )
        if not row.get("scans"):
            errors.append(f"rebuild row {key}: scans is missing/zero")

    base_runs = section_rows(
        baseline, "baseline", "host_results", True, errors
    )
    cand_runs = section_rows(
        candidate, "candidate", "host_results", True, errors
    )
    diff_section(
        base_runs, cand_runs, ("name",), RESULT_FIELDS, "host_results", errors
    )

    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--min-speedup", type=float, default=1.3)
    parser.add_argument("--min-plan-speedup", type=float, default=5.0)
    parser.add_argument(
        "--min-replay-speedup", type=float, default=0.75,
        help="floor on replay_heap1_s / replay_s: bounds the production "
        "replay loop's overhead against the bare oracle heap")
    args = parser.parse_args()

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    for which, doc in (("baseline", baseline), ("candidate", candidate)):
        if not isinstance(doc, dict):
            sys.exit(f"bench_schema_diff: {which} JSON is not an object")

    errors = diff(
        baseline, candidate, args.min_speedup, args.min_plan_speedup,
        args.min_replay_speedup
    )
    if errors:
        print(f"bench_schema_diff: {len(errors)} mismatch(es):", file=sys.stderr)
        for err in errors:
            print(f"  - {err}", file=sys.stderr)
        return 1
    print("bench_schema_diff: candidate matches the baseline structure")
    return 0


if __name__ == "__main__":
    sys.exit(main())
