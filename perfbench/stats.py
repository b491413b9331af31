"""Arithmetic of the benchmark: sample summaries, span self times and the
per-layer ledger. Pure functions; `test_perfbench.py` covers them."""

import statistics
from collections import defaultdict

# Percentiles a timing may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)

# Span name -> the per-layer metric its self time is charged to. `run`
# and `request` are the replay's own bookkeeping: their self time is the
# part of the traced total no layer accounts for.
LAYER_OF_SPAN = {
    "spec.parse": "spec.parse_s",
    "spec.expand": "spec.expand_s",
    "spec.print": "spec.expand_s",
    "compile": "compile.s",
    "decode": "decode.s",
    "engine.new": "engine.new_s",
    "engine.run": "engine.run_s",
    "gen": "gen.s",
    "analyze": "analyze.s",
    "oracle": "oracle.s",
    "oracle.compare": "oracle.compare_s",
    "jobs.key": "jobs.keys_s",
    "jobs.digest": "jobs.keys_s",
    "journal.append": "journal.append_s",
    "emit": "emit.s",
    "trace.open": "trace.file_s",
    "trace.close": "trace.file_s",
    "trace.read": "trace.read_s",
    "trace.attribute": "trace.attribute_s",
    "trace.render": "trace.render_s",
    "run": "unaccounted_s",
    "request": "unaccounted_s",
}

# Every self-time metric, in report order; with `unaccounted_s` they sum to
# the traced total.
SELF_TIME_METRICS = sorted(set(LAYER_OF_SPAN.values()) - {"unaccounted_s"})


def percentile(values, p):
    """The `p`-th percentile of `values`, interpolating between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def top_percentile(n):
    """The highest reportable percentile for `n` samples: the largest in
    PERCENTILES with at least ten samples beyond it, or None."""
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            return p
    return None


def summarize(values):
    """Median, quartiles, sample count and the highest percentile with ten
    samples beyond it (when there is one) of a list of samples."""
    xs = list(values)
    if not xs:
        raise ValueError("summary of no samples")
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    out = {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}
    p = top_percentile(len(xs))
    if p is not None and p != 50.0:
        out["p%g" % p] = percentile(xs, p)
    return out


def best(groups, higher=False):
    """The mean over `groups` (the samples of each input) of each group's
    best sample: the lowest, or the highest when `higher`. Other tenants of
    the host only ever slow a sample down, for seconds at a time, so the
    best sample of an input is the one they disturbed least; the median
    moves with how busy the host was during the run. 0.0 without samples."""
    picks = [(max if higher else min)(g) for g in groups if g]
    return statistics.fmean(picks) if picks else 0.0


def spread(values):
    """Interquartile range as a share of the median."""
    xs = list(values)
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med


def _covered(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. `spans` holds (id, parent, request, name, start,
    end) rows with parent -1 for a root; times are integers."""
    children = defaultdict(list)
    for sid, parent, _req, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children[sid], start, end)
        for sid, _parent, _req, _name, start, end in spans
    }


def layer_ledger(spans):
    """Charges every span's self time to its layer. Returns (per-layer
    nanoseconds, traced total nanoseconds, span counts by name). Raises if
    a span has no layer or the layers do not add up to the total."""
    own = self_times(spans)
    layers = defaultdict(int)
    calls = defaultdict(int)
    total = 0
    for sid, parent, _req, name, start, end in spans:
        if name not in LAYER_OF_SPAN:
            raise ValueError("span `%s` belongs to no layer" % name)
        layers[LAYER_OF_SPAN[name]] += own[sid]
        calls[name] += 1
        if parent < 0:
            total += end - start
    residual = total - sum(layers.values())
    if residual != 0:
        raise ValueError("layers miss the traced total by %d ns" % residual)
    return dict(layers), total, dict(calls)


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted."""
    return num / den if den else 0.0
