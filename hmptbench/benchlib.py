"""Input generators, reductions and gates of the hmpt benchmark.

run.py is the command; this module holds the parts worth testing on
their own (test_benchlib.py): the seeded input generators, the tail
percentile rule, metric-name validation, the byte-identity gate and the
trace self-time table. Standard library only.
"""

import json
import math
import os
import random
import re
import statistics

WORKLOADS = ("campaign-packed", "tune-k3")

# ------------------------------------------------------------------ inputs


def _unique(rng, seen, make):
    """Draw from make(rng) until the value is new."""
    while True:
        value = make(rng)
        if value not in seen:
            seen.add(value)
            return value


def _campaign_matrix(rng, per_kind):
    """k=2 matrix on xeon-max: per_kind scaled mg, scaled bt and sized
    stream workloads x {exhaustive, estimator} x 3 seeded budgets."""
    seen = set()
    lines = []
    for kind in ("mg", "bt"):
        for _ in range(per_kind):
            lines.append("workload " + _unique(
                rng, seen, lambda r: "%s:scale=%.4f" % (kind, r.uniform(0.5, 2.0))))
    for _ in range(per_kind):
        lines.append("workload " + _unique(
            rng, seen, lambda r: "stream:array_gb=%.3f,iterations=%d"
            % (r.uniform(1.0, 24.0), r.randint(2, 8))))
    lines += ["platform xeon-max", "strategy exhaustive", "strategy estimator"]
    lines += ["budget-gb %d" % gb
              for gb in sorted(rng.sample([0, 8, 16, 24, 32, 48], 3))]
    lines.append("reps 2")
    return {"matrix.campaign": "\n".join(lines) + "\n"}


def _tune_k3(rng):
    """8-group bt/sp/ua on spr-cxl at k=3: 24 exhaustive scenarios plus 8
    online/estimator ones."""
    seen = set()

    def names(count):
        return ["workload " + _unique(
            rng, seen, lambda r: "%s:scale=%.4f"
            % (r.choice(("bt", "sp", "ua")), r.uniform(0.5, 2.0)))
            for _ in range(count)]

    tail = ["platform spr-cxl", "tiers 3", "reps 2"]
    return {
        "a-exhaustive.campaign":
            "\n".join(names(24) + ["strategy exhaustive"] + tail) + "\n",
        "b-search.campaign":
            "\n".join(names(4) + ["strategy online", "strategy estimator"]
                      + tail) + "\n",
    }


def generate(workload, seed):
    """The input files of `workload` for `seed`, as {name: text}. The same
    seed gives byte-identical files."""
    rng = random.Random("hmptbench:%s:%d" % (workload, seed))
    if workload == "campaign-packed":
        return _campaign_matrix(rng, 28)
    if workload == "tune-k3":
        return _tune_k3(rng)
    raise ValueError("unknown workload %r (known: %s)"
                     % (workload, ", ".join(WORKLOADS)))


def write_inputs(workload, seed, directory):
    os.makedirs(directory, exist_ok=True)
    for name, text in generate(workload, seed).items():
        with open(os.path.join(directory, name), "w") as out:
            out.write(text)


# -------------------------------------------------------------- reductions

TAIL_LADDER = (50, 75, 90, 95, 97.5, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond it; None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    low = int(math.floor(pos))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def windowed(samples, window):
    """Median over consecutive full windows of `window` samples of each
    window's p50 and tail percentile. Fewer samples than a window make one
    window of all of them."""
    window = min(window, len(samples))
    p = tail_percentile(window)
    if p is None:
        raise ValueError("%d samples: too few for a tail" % window)
    chunks = [samples[i:i + window]
              for i in range(0, len(samples) - window + 1, window)]
    return {
        "p50": statistics.median(percentile(c, 50) for c in chunks),
        "tail": statistics.median(percentile(c, p) for c in chunks),
        "percentile": p,
        "window": window,
        "windows": len(chunks),
    }


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def valid_name(name):
    """Metric and workload names: a letter or digit, then at most 63 of
    letters, digits, '_', '.' and '-'."""
    return bool(NAME.match(name))


def latency_names(base):
    """'scenario_ms' -> ('scenario_p50_ms', 'scenario_tail_ms')."""
    stem, unit = base.rsplit("_", 1)
    return stem + "_p50_" + unit, stem + "_tail_" + unit


def reduce(raw):
    """Metric values from the document hmptbench prints: medians of series,
    windowed latency, exact values. Returns (metrics, notes)."""
    metrics = {}
    notes = []
    for name, values in raw["series"].items():
        metrics[name] = statistics.median(values)
        notes.append("%s: median of %d" % (name, len(values)))
    for base, entry in raw["latency"].items():
        result = windowed(entry["samples"], entry["window"])
        p50, tail = latency_names(base)
        metrics[p50] = result["p50"]
        metrics[tail] = result["tail"]
        beyond = result["window"] * (100 - result["percentile"]) / 100
        notes.append("%s is p%g of %d samples (%g beyond), median of %d "
                     "windows" % (tail, result["percentile"], result["window"],
                                  beyond, result["windows"]))
    metrics.update(raw["values"])
    return metrics, notes


# ------------------------------------------------------------------- gates


def gate(identity, checks):
    """Failures of the correctness gate: file pairs whose bytes differ (or
    that are missing) and checks that did not hold."""
    failures = []
    for pair in identity:
        try:
            with open(pair["a"], "rb") as a, open(pair["b"], "rb") as b:
                same = a.read() == b.read()
        except OSError as e:
            failures.append("%s: %s" % (pair["name"], e))
            continue
        if not same:
            failures.append("%s: %s and %s differ"
                            % (pair["name"], pair["a"], pair["b"]))
    for check in checks:
        if not check["ok"]:
            failures.append("%s: %s" % (check["name"], check["detail"]))
    return failures


# ------------------------------------------------------------------- trace


def self_times(trace):
    """Per (category, name): span count, total and self time in ms, from a
    Chrome trace document's balanced B/E events. Self time is a span's
    duration minus what its child spans cover."""
    table = {}
    stacks = {}
    for event in trace["traceEvents"]:
        ph = event.get("ph")
        if ph not in ("B", "E"):
            continue
        stack = stacks.setdefault((event.get("pid"), event.get("tid")), [])
        if ph == "B":
            stack.append([event.get("cat", ""), event["name"], event["ts"], 0.0])
            continue
        cat, name, start, children = stack.pop()
        duration = event["ts"] - start
        row = table.setdefault((cat, name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration / 1e3
        row[2] += (duration - children) / 1e3
        if stack:
            stack[-1][3] += duration
    return table


def unattributed_share(table):
    """Share of campaign scenario wall time that no layer span inside the
    program covers: the self time of the campaign/scenario and
    campaign/attempt wrappers over the scenarios' total time."""
    total = table.get(("campaign", "scenario"), [0, 0.0, 0.0])[1]
    if total <= 0:
        raise ValueError("trace has no campaign/scenario spans")
    uncovered = sum(table.get(("campaign", name), [0, 0.0, 0.0])[2]
                    for name in ("scenario", "attempt"))
    return uncovered / total


def format_table(table):
    rows = sorted(table.items(), key=lambda item: -item[1][2])
    total_self = sum(row[2] for _, row in rows) or 1.0
    lines = ["%-12s %-26s %8s %12s %12s %7s"
             % ("layer", "span", "count", "total_ms", "self_ms", "self%")]
    for (cat, name), (count, total, own) in rows:
        lines.append("%-12s %-26s %8d %12.3f %12.3f %6.1f%%"
                     % (cat, name, count, total, own, 100 * own / total_self))
    return lines


def load_json(path):
    with open(path) as f:
        return json.load(f)
