#!/usr/bin/env python3
"""Perf-regression gate over the bench JSON artifacts.

Compares fresh BENCH_plan.json / BENCH_strategy.json / BENCH_batch.json
/ BENCH_refactor.json artifacts against the committed baselines in
ci/baselines/ and fails (exit 1) when a gated throughput ratio regressed
by more than the tolerance (default 15%, override with --tolerance or
PDX_PERF_GATE_TOLERANCE).

CI runners differ wildly in absolute speed, so the gate never compares
microseconds. It compares *ratios measured within one run* — numbers
that already divide out the machine:

  plan.speedup          unplanned / planned per-solve time (plan_reuse)
  plan.layout_speedup   csr-view / packed per-solve time (plan_reuse)
  strategy.layout_speedup   csr-view / packed for the Auto pick
                            (strategy_matrix, auto rows)
  strategy.auto_vs_best     best measured concrete strategy / auto
                            per-solve time per CALIBRATED (matrix,
                            threads) cell — how close the calibrated
                            Auto pick runs to the in-run best strategy
                            (1.0 = Auto IS the best; the gate also
                            enforces an absolute per-cell floor,
                            default 0.8 i.e. within 25% of best,
                            override PDX_AUTO_BEST_FLOOR). A cell counts
                            as calibrated when its strategy race or its
                            serial walk-order race locked in, so the
                            one-thread cells are gated too; cells with
                            budget 0 carry the heuristic pick and are
                            not gated.
  batch.speedup_ilv     sequential / batched-wavefront-interleaved
                        per-RHS time (batch_solve)
  batch.cg_lockstep_gain    lockstep CG at k = 1 / at k in {8, 16, 32}
                            per-column time to convergence at one
                            thread (batch_solve) — what solving k
                            systems as the lanes of one strip buys in
                            the Krylov layer
  batch.cg_lane_split_gain  one BatchDriver drain of 24 systems on a
                            settled serial plan, width-1 pool time /
                            width-2 pool time (batch_solve) — what
                            running the lanes as two lane groups buys.
                            Skipped, with the reason printed, when the
                            fresh artifact's machine block shows fewer
                            than 2 usable CPUs (affinity mask and cgroup
                            cpu.max quota): the groups cannot run
                            concurrently there
  batch.wavefront_gain  source-order / wavefront-walk best time of a
                        single-RHS solve() on a serial plan over ILU(0) of
                        the 64x64 timestep operator, read from the plan's
                        order race (batch_solve) — what walking the
                        inspector's level order on one thread buys.
                        Additionally carries an absolute floor of 1.2x
                        (WAVEFRONT_FLOOR): a baseline captured after the
                        walk regressed would otherwise ratchet the promise
                        away
  refactor.factor_speedup   sequential ilu0 / planned parallel numeric
                            factorization time (refactor_loop)
  refactor.refresh_speedup  full TrisolvePlan rebuild / value-only
                            refresh_speedup time (refactor_loop)
  service.batch_gain    open-loop burst jobs/sec / one-at-a-time jobs/sec
                        through the same solve::Service (service_load) —
                        what the scheduler's same-matrix strip packing
                        buys over serial request handling, measured
                        within one run. The threads-1 row additionally
                        carries an absolute 1.5x floor: a served strip
                        is one lockstep CG solve, and a relative compare
                        alone would let a baseline captured without
                        lockstep ratchet that promise away. The gate
                        also re-checks the artifact's overload
                        accounting verdict: every flooded job must have
                        landed in exactly one terminal state.
  kernel.lane_speedup   scalar-table / vector-table time per row with
                        k >= lane_min (kernel_micro; both solve-level
                        and kernel-only *_kern rows). The spilled_kern
                        widest-k row — the lane-parallel kernel itself
                        on a past-LLC factor — additionally carries an
                        absolute floor (default 1.5x, override
                        PDX_KERNEL_LANE_FLOOR). Artifacts whose
                        dispatched isa is "scalar" have no vector table
                        to measure and are skipped entirely.

Per-row jitter is absorbed by aggregating each metric class with a
geometric mean before comparing; rows present only on one side (e.g. a
different thread-count sweep on a wider runner) contribute nothing
rather than failing the gate.

Baselines must be captured WITHOUT oversubscription (PDX_THREADS no
larger than the physical core count, or threads rows stripped): a
ratio whose in-run reference was pathologically slowed by busy-wait
oversubscription commits an inflated bar that spuriously fails every
honest runner. When regenerating on wider hardware, prefer it — rows
the narrow machine could not measure honestly start being gated only
then.

Usage:
  python3 ci/perf_gate.py \
      --plan BENCH_plan.json ci/baselines/BENCH_plan.json \
      --strategy BENCH_strategy.json ci/baselines/BENCH_strategy.json \
      --batch BENCH_batch.json ci/baselines/BENCH_batch.json \
      --refactor BENCH_refactor.json ci/baselines/BENCH_refactor.json
"""

import argparse
import json
import math
import os
import sys

# Absolute floor on the threads-1 service.batch_gain row.
SERVICE_GAIN_FLOOR = 1.5
# Absolute floor on every batch.wavefront_gain row.
WAVEFRONT_FLOOR = 1.2


def geomean(values):
    vals = [v for v in values if v > 0]
    if not vals:
        return None
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def load(path):
    with open(path) as f:
        return json.load(f)


def plan_metrics(doc):
    """Metric-class -> {row_key: ratio} for a plan_reuse artifact."""
    speed, layout = {}, {}
    for row in doc.get("results", []):
        key = (row.get("threads"), row.get("solves"))
        if row.get("speedup", 0) > 0:
            speed[key] = row["speedup"]
        if row.get("layout_speedup", 0) > 0:
            layout[key] = row["layout_speedup"]
    return {"plan.speedup": speed, "plan.layout_speedup": layout}


def strategy_metrics(doc):
    """Metric-class -> {row_key: ratio} for a strategy_matrix artifact."""
    rows = doc.get("results", [])
    # Best measured concrete strategy per cell (the auto row carries a
    # rationale; concrete rows do not).
    best_us = {}
    for row in rows:
        if row.get("rationale") or row.get("us_per_solve", 0) <= 0:
            continue
        key = (row.get("matrix"), row.get("threads"))
        best_us[key] = min(best_us.get(key, float("inf")),
                           row["us_per_solve"])
    layout, auto_vs_best = {}, {}
    for row in rows:
        key = (row.get("matrix"), row.get("threads"))
        if "layout_speedup" in row and row["layout_speedup"] > 0:
            layout[key] = row["layout_speedup"]
        # Only calibrated cells are gated: a cell without a race
        # (calibration disabled) carries the heuristic pick, which makes
        # no measured-best promise. One-thread cells race the walk order.
        if (row.get("rationale") and row.get("calibrated")
                and row.get("us_per_solve", 0) > 0 and key in best_us):
            auto_vs_best[key] = best_us[key] / row["us_per_solve"]
    return {
        "strategy.layout_speedup": layout,
        "strategy.auto_vs_best": auto_vs_best,
    }


def usable_cpus(doc):
    """CPUs an artifact's run could use, from its machine block (None when
    the artifact has none): the affinity mask, capped by the cgroup v2
    cpu.max quota."""
    machine = doc.get("machine")
    if not machine:
        return None
    usable = float(machine.get("affinity_cpus") or machine.get("nproc") or 0)
    quota = (machine.get("cgroup_cpu_max") or "max").split()
    if len(quota) == 2 and quota[0] != "max" and float(quota[1]) > 0:
        usable = min(usable, float(quota[0]) / float(quota[1]))
    return usable


def batch_metrics(doc):
    """Metric-class -> {row_key: ratio} for a batch_solve artifact."""
    ilv, cg, split, wave = {}, {}, {}, {}
    for row in doc.get("results", []):
        key = (row.get("threads"), row.get("k"))
        if row.get("speedup_ilv", 0) > 0:
            ilv[key] = row["speedup_ilv"]
    for row in doc.get("cg_lockstep", []):
        # k = 1 is the reference the gain divides by (1.0 by definition).
        if row.get("k", 1) > 1 and row.get("cg_lockstep_gain", 0) > 0:
            cg[(row.get("threads"), row.get("k"))] = row["cg_lockstep_gain"]
    for row in doc.get("cg_lane_split", []):
        if row.get("cg_lane_split_gain", 0) > 0:
            split[(row.get("threads"), row.get("k"))] = \
                row["cg_lane_split_gain"]
    for row in doc.get("wavefront", []):
        if row.get("wavefront_gain", 0) > 0:
            wave[(row.get("threads"), row.get("grid"))] = \
                row["wavefront_gain"]
    return {"batch.speedup_ilv": ilv, "batch.cg_lockstep_gain": cg,
            "batch.cg_lane_split_gain": split,
            "batch.wavefront_gain": wave}


def refactor_metrics(doc):
    """Metric-class -> {row_key: ratio} for a refactor_loop artifact."""
    factor, refresh = {}, {}
    for row in doc.get("results", []):
        key = (row.get("threads"),)
        if row.get("factor_speedup", 0) > 0:
            factor[key] = row["factor_speedup"]
        if row.get("refresh_speedup", 0) > 0:
            refresh[key] = row["refresh_speedup"]
    return {
        "refactor.factor_speedup": factor,
        "refactor.refresh_speedup": refresh,
    }


def service_metrics(doc):
    """Metric-class -> {row_key: ratio} for a service_load artifact."""
    gain = {}
    for row in doc.get("results", []):
        key = (row.get("threads"), row.get("tenants"))
        if row.get("batch_gain", 0) > 0:
            gain[key] = row["batch_gain"]
    return {"service.batch_gain": gain}


def kernel_metrics(doc):
    """Metric-class -> {row_key: ratio} for a kernel_micro artifact."""
    # A scalar dispatch (no AVX2/NEON, or PDX_KERNEL=scalar) times the
    # scalar table against itself; every ratio is 1.0 by construction
    # and gating it would only measure noise.
    if doc.get("isa", "scalar") == "scalar":
        return {"kernel.lane_speedup": {}}
    lane_min = doc.get("lane_min", 4)
    lanes = {}
    for row in doc.get("results", []):
        if row.get("k", 0) < lane_min:
            continue  # no-lane control rows
        if row.get("lane_speedup", 0) > 0:
            lanes[(row.get("factor"), row.get("k"))] = row["lane_speedup"]
    return {"kernel.lane_speedup": lanes}


def compare(name, fresh, baseline, tolerance):
    """Return (ok, message) for one metric class."""
    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        return True, f"{name}: no shared rows — skipped"
    f = geomean(fresh[k] for k in shared)
    b = geomean(baseline[k] for k in shared)
    if f is None or b is None:
        return True, f"{name}: no positive samples — skipped"
    ratio = f / b
    verdict = "OK" if ratio >= 1.0 - tolerance else "REGRESSED"
    msg = (f"{name}: geomean fresh {f:.3f} vs baseline {b:.3f} over "
           f"{len(shared)} rows -> {ratio:.3f}x ({verdict})")
    return ratio >= 1.0 - tolerance, msg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--plan", nargs=2, metavar=("FRESH", "BASELINE"))
    ap.add_argument("--strategy", nargs=2, metavar=("FRESH", "BASELINE"))
    ap.add_argument("--batch", nargs=2, metavar=("FRESH", "BASELINE"))
    ap.add_argument("--refactor", nargs=2, metavar=("FRESH", "BASELINE"))
    ap.add_argument("--kernel", nargs=2, metavar=("FRESH", "BASELINE"))
    ap.add_argument("--service", nargs=2, metavar=("FRESH", "BASELINE"))
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PDX_PERF_GATE_TOLERANCE", "0.15")),
        help="allowed fractional slowdown (default 0.15)")
    args = ap.parse_args()
    if not (args.plan or args.strategy or args.batch or args.refactor
            or args.kernel or args.service):
        ap.error("nothing to gate: pass --plan, --strategy, --batch, "
                 "--refactor, --kernel and/or --service")

    classes = {}
    extractors = [
        (args.plan, plan_metrics),
        (args.strategy, strategy_metrics),
        (args.batch, batch_metrics),
        (args.refactor, refactor_metrics),
        (args.kernel, kernel_metrics),
        (args.service, service_metrics),
    ]
    for paths, extract in extractors:
        if not paths:
            continue
        fresh = extract(load(paths[0]))
        baseline = extract(load(paths[1]))
        for name, m in fresh.items():
            classes[name] = (m, baseline.get(name, {}))

    if args.batch:
        usable = usable_cpus(load(args.batch[0]))
        if usable is not None and usable < 2:
            print(f"batch.cg_lane_split_gain: skipped — the fresh run had "
                  f"{usable:g} usable CPU(s), so its two lane groups could "
                  f"not run concurrently")
            classes.pop("batch.cg_lane_split_gain", None)

    ok = True
    for name, (fresh, baseline) in sorted(classes.items()):
        good, msg = compare(name, fresh, baseline, args.tolerance)
        print(msg)
        ok = ok and good

    # Absolute per-cell floor for the calibrated Auto pick: a mispick the
    # baseline also contains would slip through the relative compare, so
    # every fresh cell must independently land within 25% (by default) of
    # that cell's best measured strategy.
    if "strategy.auto_vs_best" in classes:
        floor = float(os.environ.get("PDX_AUTO_BEST_FLOOR", "0.8"))
        for key, v in sorted(classes["strategy.auto_vs_best"][0].items()):
            if v < floor:
                print(f"strategy.auto_vs_best: cell {key} = {v:.3f} below "
                      f"floor {floor:.2f} — the Auto pick runs "
                      f"{1.0 / v:.2f}x slower than the best measured "
                      f"strategy for that cell")
                ok = False

    # Absolute floor on the wavefront walk: the relative compare alone
    # would let a baseline captured on a regressed walk lower the bar.
    if "batch.wavefront_gain" in classes:
        for key, v in sorted(classes["batch.wavefront_gain"][0].items()):
            if v < WAVEFRONT_FLOOR:
                print(f"batch.wavefront_gain: row {key} = {v:.3f} below "
                      f"floor {WAVEFRONT_FLOOR:.2f} — the wavefront walk "
                      f"no longer beats the source-order walk on the "
                      f"timestep operator")
                ok = False

    if args.service:
        # The bench exits non-zero when overload accounting breaks;
        # re-checking the artifact keeps the gate honest against a stale
        # or hand-edited file.
        if not load(args.service[0]).get("accounting_exact", False):
            print("service: fresh artifact reports accounting_exact=false — "
                  "an overloaded job ended in no (or more than one) "
                  "terminal state")
            ok = False
        # Absolute floor on the one-thread row, where the gain is pure
        # lockstep amortization (no thread-count effects to argue about).
        for key, v in sorted(classes["service.batch_gain"][0].items()):
            if key[0] == 1 and v < SERVICE_GAIN_FLOOR:
                print(f"service.batch_gain: row {key} = {v:.3f} below "
                      f"floor {SERVICE_GAIN_FLOOR:.2f} — served strips no longer "
                      f"amortize one lockstep solve over their jobs")
                ok = False

    if args.kernel:
        fresh_doc = load(args.kernel[0])
        # The bench binary already exits non-zero on a bitwise mismatch;
        # re-checking here keeps the gate honest against a stale or
        # hand-edited artifact.
        if not fresh_doc.get("bitwise_exact", False):
            print("kernel: fresh artifact reports bitwise_exact=false — "
                  "the vector batch kernels diverged from the scalar "
                  "reference")
            ok = False
        # Absolute floor on the headline acceptance row: the lane-parallel
        # kernel itself (spilled_kern, widest k) on a past-LLC factor.
        # Relative compare alone would let a regressed baseline ratchet
        # the promise away. Skipped on scalar-dispatch machines, which
        # have no vector table to hold to it.
        if fresh_doc.get("isa", "scalar") != "scalar":
            floor = float(os.environ.get("PDX_KERNEL_LANE_FLOOR", "1.5"))
            kern = {k: v
                    for k, v in classes["kernel.lane_speedup"][0].items()
                    if k[0] == "spilled_kern"}
            if kern:
                key = max(kern, key=lambda kk: kk[1])
                if kern[key] < floor:
                    print(f"kernel.lane_speedup: row {key} = "
                          f"{kern[key]:.3f} below floor {floor:.2f} — the "
                          f"k={key[1]} lane-parallel kernel no longer "
                          f"clears its vector-vs-scalar bar on the "
                          f"spilled factor")
                    ok = False
    if not ok:
        print(f"perf gate FAILED (tolerance {args.tolerance:.0%})")
        return 1
    print(f"perf gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
