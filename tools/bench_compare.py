#!/usr/bin/env python3
"""Compare a bench JSON sidecar against its committed baseline.

Two formats, auto-detected:

  * serving  -- serving_throughput --json output: serving_cells /
    retrieval_cells / live_cells / open_loop_cells arrays. Throughput
    metrics (queries_per_second, cycles_per_second, ingest_docs_per_second)
    are higher-is-better; open-loop latency percentiles are
    lower-is-better and gated at a widened threshold (wall-clock noise);
    shed_rate is informational (printed, never gated -- it tracks offered
    load, not code quality).
  * micro    -- Google Benchmark --benchmark_out=json output (the fallback
    harness emits the same shape): benchmarks[].real_time in time_unit,
    lower-is-better.

A cell present in both files whose gated metric regressed by more than
--threshold (default 10%, scaled by the cell's noise multiplier) fails the
run with exit 1 and a per-cell report. A cell present in only ONE of the
two files is a hard failure in BOTH directions: baseline-only means a
bench was renamed/removed, current-only means a bench was added -- either
way the committed baseline must be refreshed in the same PR (run the bench
with --json and re-commit via --update). A cell object missing an expected
metric key is likewise a hard failure naming the file and key, never a
bare KeyError traceback. Use --update to overwrite the baseline with the
current run instead of comparing.
"""

import argparse
import json
import sys

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Wall-clock latency percentiles jitter far more than throughput on shared
# CI runners; their gate threshold is scaled by this factor.
_LATENCY_NOISE_MULT = 3.0


class BenchFormatError(Exception):
    """A bench JSON is structurally wrong (missing key, bad shape)."""


class Cell(object):
    """One gateable metric: value + direction + noise allowance.

    higher_is_better None means informational: printed for trend-watching
    but never gated (e.g. shed_rate, which tracks offered load).
    """

    def __init__(self, value, higher_is_better, noise_mult=1.0):
        self.value = value
        self.higher_is_better = higher_is_better
        self.noise_mult = noise_mult


def load(path):
    with open(path) as f:
        return json.load(f)


def metric(c, key, path, where):
    """c[key], or a clear failure naming the file and the missing key."""
    if key not in c:
        raise BenchFormatError(
            "%s: %s cell %r has no %r key (format drift between the bench "
            "binary and this script -- regenerate the JSON and update both "
            "sides in the same PR)" % (path, where, c.get("strategy", "?"),
                                       key))
    return c[key]


def serving_cells(doc, path):
    """name -> Cell for a serving_throughput run."""
    cells = {}
    for c in doc.get("serving_cells", []):
        key = "serving/{}/threads{}".format(
            metric(c, "strategy", path, "serving"),
            metric(c, "threads", path, "serving"))
        cells[key + "/qps"] = Cell(
            metric(c, "queries_per_second", path, "serving"), True)
        cells[key + "/cps"] = Cell(
            metric(c, "cycles_per_second", path, "serving"), True)
    for c in doc.get("retrieval_cells", []):
        key = "retrieval/{}".format(
            metric(c, "strategy", path, "retrieval"))
        cells[key + "/qps"] = Cell(
            metric(c, "queries_per_second", path, "retrieval"), True)
    for c in doc.get("live_cells", []):
        key = "live/{}/threads{}".format(
            metric(c, "strategy", path, "live"),
            metric(c, "threads", path, "live"))
        cells[key + "/qps"] = Cell(
            metric(c, "queries_per_second", path, "live"), True)
        cells[key + "/ingest_dps"] = Cell(
            metric(c, "ingest_docs_per_second", path, "live"), True)
    for c in doc.get("open_loop_cells", []):
        key = "open_loop/{}/{}".format(
            metric(c, "strategy", path, "open_loop"),
            metric(c, "load", path, "open_loop"))
        cells[key + "/cps"] = Cell(
            metric(c, "cycles_per_second", path, "open_loop"), True)
        for pct in ("p50", "p95", "p99"):
            cells[key + "/" + pct] = Cell(
                metric(c, pct + "_latency_ms", path, "open_loop"), False,
                _LATENCY_NOISE_MULT)
        cells[key + "/shed_rate"] = Cell(
            metric(c, "shed_rate", path, "open_loop"), None)
    return cells


def micro_cells(doc, path):
    """name -> Cell (ns, lower-is-better) for a Google Benchmark run."""
    cells = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        unit = _TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        cells[metric(b, "name", path, "micro")] = Cell(
            metric(b, "real_time", path, "micro") * unit, False)
    return cells


def extract(doc, path):
    if "benchmarks" in doc:
        return "micro", micro_cells(doc, path)
    return "serving", serving_cells(doc, path)


def schema_version(doc):
    """The emitter's schema_version, wherever the format keeps it.

    serving_throughput writes it at the top level; the micro harnesses
    write it in Google Benchmark's context object. Absent (pre-versioning
    baselines) -> None.
    """
    if "schema_version" in doc:
        return doc["schema_version"]
    context = doc.get("context")
    if isinstance(context, dict):
        return context.get("schema_version")
    return None


def warn_on_schema_skew(base_doc, cur_doc, base_path, cur_path):
    """Version skew is a heads-up, never a failure: the cell-level
    one-side-only check below is what actually gates format drift."""
    base_v, cur_v = schema_version(base_doc), schema_version(cur_doc)
    if base_v != cur_v:
        print("bench_compare: WARNING: schema_version skew — %s has %r, "
              "%s has %r (comparing anyway; refresh the baseline with "
              "--update to silence this)" %
              (base_path, base_v, cur_path, cur_v))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly generated JSON")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional regression that fails (default 0.10)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite baseline with current and exit 0")
    args = parser.parse_args()

    if args.update:
        with open(args.current) as src, open(args.baseline, "w") as dst:
            dst.write(src.read())
        print("bench_compare: baseline %s updated from %s" %
              (args.baseline, args.current))
        return 0

    base_doc, cur_doc = load(args.baseline), load(args.current)
    warn_on_schema_skew(base_doc, cur_doc, args.baseline, args.current)
    try:
        base_fmt, base = extract(base_doc, args.baseline)
        cur_fmt, cur = extract(cur_doc, args.current)
    except BenchFormatError as e:
        print("bench_compare: FAIL — %s" % e, file=sys.stderr)
        return 2
    if base_fmt != cur_fmt:
        print("bench_compare: FAIL — %s is a %r baseline but %s is a %r run"
              % (args.baseline, base_fmt, args.current, cur_fmt),
              file=sys.stderr)
        return 2

    missing, regressions, compared = [], [], 0
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            missing.append("%s exists in baseline %s but is missing from %s"
                           % (name, args.baseline, args.current))
            continue
        if name not in base:
            missing.append("%s exists in %s but is missing from baseline %s"
                           % (name, args.current, args.baseline))
            continue
        b, c = base[name], cur[name]
        if b.higher_is_better is None:
            print("%-52s base=%12.4f cur=%12.4f  (informational)" %
                  (name, b.value, c.value))
            continue
        if b.value <= 0:
            continue
        compared += 1
        # Regression fraction, positive = worse.
        delta = ((b.value - c.value) / b.value if b.higher_is_better
                 else (c.value - b.value) / b.value)
        gate = args.threshold * b.noise_mult
        marker = ""
        if delta > gate:
            regressions.append((name, delta, gate))
            marker = "  <-- REGRESSION"
        print("%-52s base=%12.2f cur=%12.2f  %+6.1f%%%s" %
              (name, b.value, c.value,
               -delta * 100.0 if b.higher_is_better else delta * 100.0,
               marker))

    if missing:
        print("\nbench_compare: FAIL — %d cell(s) present on one side only "
              "(a bench was added, renamed or removed; refresh the committed "
              "baseline in the same PR: rerun the bench with --json and "
              "apply --update):" % len(missing), file=sys.stderr)
        for line in missing:
            print("  " + line, file=sys.stderr)
        return 1
    if compared == 0:
        print("bench_compare: WARNING: no overlapping cells; nothing gated")
    if regressions:
        print("\nbench_compare: FAIL — %d cell(s) regressed past their gate:"
              % len(regressions), file=sys.stderr)
        for name, delta, gate in regressions:
            print("  %s: %.1f%% worse (gate %.0f%%)" %
                  (name, delta * 100.0, gate * 100.0), file=sys.stderr)
        return 1
    print("bench_compare: OK (%d cells gated at base threshold %.0f%%)" %
          (compared, args.threshold * 100.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
