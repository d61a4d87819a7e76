#!/usr/bin/env python3
"""Gates ratios of bench_micro_kernels timings (google-benchmark JSON).

Usage:
  python3 tools/check_microbench.py speedup bench.json \\
      [--baseline=BM_QueryGemm/portable/f64] [--candidate=auto] \\
      [--min-speedup=2.0]
  python3 tools/check_microbench.py overhead enabled.json disabled.json \\
      [--tolerance=0.05] [--filter=SUBSTRING]
  python3 tools/check_microbench.py overhead enabled.json --paired \\
      [--tolerance=0.15] [--filter=SUBSTRING]

speedup: the dispatched SIMD f32 query GEMM (the float serving tier's hot
loop) must be at least --min-speedup times faster than the portable f64
baseline on the same shape, single-threaded. --candidate=auto picks the
fastest non-portable f32 BM_QueryGemm entry, i.e. whatever the dispatcher
selects on that machine; with none (a CPU without a SIMD ISA) the gate
cannot run.

overhead: every benchmark shared by the stats-enabled build and the
-DCSRPLUS_OBS_DISABLED=ON build may be at most --tolerance slower when
enabled. --paired compares within one binary instead: each benchmark whose
last argument is 1 (recording on) against its .../0 sibling (recording off).
Two separately linked binaries can differ by 5-10% from code layout alone;
the paired variants share one layout, so their ratio isolates the cost of
recording.

Every JSON argument may be a comma-separated list of files. The gates read
the minimum real_time per benchmark across files and repetitions: noise on
a shared runner only ever adds time, so the minimum is the stable estimate.

Exit status: 0 pass, 1 a gate failed, 2 the gate could not be evaluated.
"""

import argparse
import json
import sys


def load(paths, name_filter=""):
    """Minimum real_time per benchmark name across files and repetitions."""
    best = {}
    for path in paths.split(","):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("run_name", bench["name"])
            if name_filter and name_filter not in name:
                continue
            t = float(bench["real_time"])
            if name not in best or t < best[name]:
                best[name] = t
    return best


def cannot_run(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def speedup(args):
    times = load(args.bench_json)
    if args.baseline not in times:
        cannot_run(f"baseline benchmark {args.baseline!r} not found "
                   f"(names: {sorted(times)})")
    candidate = args.candidate
    if candidate == "auto":
        simd_f32 = {n: t for n, t in times.items()
                    if n.startswith("BM_QueryGemm/") and n.endswith("/f32")
                    and "/portable/" not in n}
        if not simd_f32:
            cannot_run("no SIMD f32 BM_QueryGemm entries in the file: this "
                       "machine compiled or executed no SIMD ISA, so the "
                       "speedup gate cannot run")
        candidate = min(simd_f32, key=simd_f32.get)
    elif candidate not in times:
        cannot_run(f"candidate benchmark {candidate!r} not found")

    ratio = times[args.baseline] / times[candidate]
    passed = ratio >= args.min_speedup
    print(f"{candidate}: {times[candidate]:.0f} ns vs baseline "
          f"{args.baseline}: {times[args.baseline]:.0f} ns -> {ratio:.2f}x "
          f"(need >= {args.min_speedup:.2f}x) {'ok' if passed else 'FAIL'}")
    return passed


def overhead(args):
    if args.paired:
        times = load(args.enabled_json, args.filter)
        enabled = {n[:-2]: t for n, t in times.items() if n.endswith("/1")}
        disabled = {n[:-2]: t for n, t in times.items() if n.endswith("/0")}
    else:
        if not args.disabled_json:
            cannot_run("overhead: disabled_json is required unless --paired")
        enabled = load(args.enabled_json, args.filter)
        disabled = load(args.disabled_json, args.filter)
    shared = sorted(set(enabled) & set(disabled))
    if not shared:
        cannot_run("no shared benchmark names between the two sides")

    failures = []
    for name in shared:
        ratio = enabled[name] / disabled[name]
        passed = ratio <= 1.0 + args.tolerance
        print(f"{name}: enabled {enabled[name]:.0f} ns vs disabled "
              f"{disabled[name]:.0f} ns -> {ratio:.3f}x "
              f"{'ok' if passed else 'FAIL'}")
        if not passed:
            failures.append(name)
    if failures:
        print(f"{len(failures)} of {len(shared)} benchmarks exceed the "
              f"{args.tolerance:.0%} overhead budget: {', '.join(failures)}")
    return not failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    gates = parser.add_subparsers(dest="gate", required=True)

    p = gates.add_parser("speedup")
    p.add_argument("bench_json")
    p.add_argument("--baseline", default="BM_QueryGemm/portable/f64")
    p.add_argument("--candidate", default="auto")
    p.add_argument("--min-speedup", type=float, default=2.0)
    p.set_defaults(run=speedup)

    p = gates.add_parser("overhead")
    p.add_argument("enabled_json")
    p.add_argument("disabled_json", nargs="?", default="")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--filter", default="")
    p.add_argument("--paired", action="store_true")
    p.set_defaults(run=overhead)

    args = parser.parse_args()
    passed = args.run(args)
    print(f"{args.gate} gate: {'PASS' if passed else 'FAIL'}")
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
