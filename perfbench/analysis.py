"""Arithmetic of the DeepCAM benchmark.

deepcam_perfbench prints raw measurements (per-repeat timings, per-request
records, trace spans, per-layer work counts); this module reduces them to
named metrics. Everything here is a pure function of that document, which
is what perfbench/tests/test_analysis.py exercises.
"""

import statistics

# Percentiles considered for a distribution's tail, highest first. A
# percentile is reported only when at least MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

KERNEL_STAGES = ("hash", "cam_write", "cam_search", "postproc")
# Serve steps that make up the offered-load ladder; "warmup", and the traced
# runs' "mid-untraced" and "top-traced" steps, are extra.
LADDER_ROLES = ("ladder", "mid")
SAMPLE_SPAN = "sample"


def percentile(values, p):
    """Linear-interpolated percentile `p` (0..100) of `values`."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(values):
    """Highest percentile in TAIL_PERCENTILES with at least MIN_BEYOND of
    the samples beyond it, as (p, value); None when even the median lacks
    that support."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p, percentile(values, p)
    return None


def summarize(name, unit, values):
    """One schema entry: median, best-supported tail percentile and n."""
    values = list(values)
    entry = {"name": name, "unit": unit, "n": len(values),
             "median": statistics.median(values) if values else None,
             "tail_pct": None, "tail": None}
    tail = supported_percentile(values) if values else None
    if tail is not None:
        entry["tail_pct"], entry["tail"] = tail
    return entry


# --- self-time ledger ------------------------------------------------------

def self_times(spans):
    """Self (exclusive) time of each span: its duration minus the part of
    its interval covered by its direct children.

    `spans` is a list of (begin, end) pairs from one thread of execution
    (properly nested or disjoint). A child is the innermost enclosing span's
    child; a child running past its parent's end is clipped to the parent;
    of two spans with the same interval the earlier in input order is the
    parent. Returns the self times in input order.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], -spans[i][1]))
    selfs = [end - begin for begin, end in spans]
    stack = []
    for i in order:
        begin, end = spans[i]
        while stack and spans[stack[-1]][1] <= begin:
            stack.pop()
        if stack:
            parent = stack[-1]
            selfs[parent] -= min(end, spans[parent][1]) - begin
        stack.append(i)
    return selfs


def ledger(span_rows):
    """Per-stage self time of engine samples from collected span rows
    ([name, begin_ns, end_ns, rid, batch, value, repeat]).

    Spans of one engine sample share (repeat, rid, batch); the `sample` span
    is the root and the kernel stages its children. Returns a dict with the
    sample count and total, the self time of each stage (overall and per
    CAM-layer index), `other` (sample time outside kernel spans), the
    per-sample rid list, and `residual_ns`, which is 0 exactly when stage
    self times plus `other` sum to the sample total.
    """
    groups = {}
    for row in span_rows:
        name, begin, end, rid, batch, value, repeat = row
        if name != SAMPLE_SPAN and name not in KERNEL_STAGES:
            continue
        groups.setdefault((repeat, rid, batch), []).append((name, begin, end, value))
    for members in groups.values():
        # Samples first, so a sample is the parent of a same-interval stage.
        members.sort(key=lambda m: m[0] != SAMPLE_SPAN)
    out = {"samples": 0, "sample_ns": 0, "other_ns": 0, "orphan_ns": 0,
           "stage_ns": {s: 0 for s in KERNEL_STAGES}, "layer_ns": {},
           "sample_rids": []}
    for (_repeat, rid, _batch), members in groups.items():
        selfs = self_times([(b, e) for _n, b, e, _v in members])
        roots = [(b, e) for n, b, e, _v in members if n == SAMPLE_SPAN]
        for (name, begin, end, value), own in zip(members, selfs):
            if name == SAMPLE_SPAN:
                out["samples"] += 1
                out["sample_ns"] += end - begin
                out["other_ns"] += own
                out["sample_rids"].append(rid)
            elif any(rb <= begin and end <= re for rb, re in roots):
                out["stage_ns"][name] += own
                key = (name, value)
                out["layer_ns"][key] = out["layer_ns"].get(key, 0) + own
            else:
                out["orphan_ns"] += end - begin
    out["residual_ns"] = (out["sample_ns"] - out["other_ns"]
                          - sum(out["stage_ns"].values()))
    return out


# --- open-loop serving -----------------------------------------------------

def request_rows(doc):
    cols = doc["request_columns"]
    return [dict(zip(cols, row)) for row in doc["requests"]]


def latency_ms(req):
    """End-to-end latency measured from the request's scheduled send time,
    so generator lag counts against the request it delayed."""
    return (req["done_ns"] - req["scheduled_ns"]) / 1e6


def gen_lag_ms(req):
    return (req["sent_ns"] - req["scheduled_ns"]) / 1e6


def refused(req):
    return req["admission"] != "accepted"


def step_stats(reqs, seconds):
    """Requests sent, deadlines met, goodput and failures (refused, shed,
    expired or errored) of one ladder step."""
    met = sum(1 for r in reqs if r["slo_met"])
    return {
        "sent": len(reqs),
        "met": met,
        "goodput_rps": met / seconds if seconds > 0 else 0.0,
        "failed": sum(1 for r in reqs if refused(r) or not r["ok"]),
    }


def max_rate(steps, stats, min_met_frac=0.99):
    """Highest offered rate at which at least `min_met_frac` of the requests
    sent (pooled over every ladder step at that rate) met their class
    deadline, refused and failed requests counting as misses; 0 when no rate
    qualifies."""
    sent, met = {}, {}
    for step, st in zip(steps, stats):
        if step["role"] in LADDER_ROLES:
            rate = step["rate_rps"]
            sent[rate] = sent.get(rate, 0) + st["sent"]
            met[rate] = met.get(rate, 0) + st["met"]
    ok = [rate for rate in sent if sent[rate] and met[rate] / sent[rate] >= min_met_frac]
    return max(ok, default=0.0)


# --- metric assembly -------------------------------------------------------

class Metrics:
    """Ordered schema entries of one run, keyed by metric name."""

    def __init__(self):
        self.entries = {}

    def add(self, name, unit, values):
        if not isinstance(values, (list, tuple)):
            values = [values]
        self.entries[name] = summarize(name, unit, values)

    def median(self, name):
        entry = self.entries.get(name)
        return None if entry is None else entry["median"]


def _median(doc, series):
    values = doc["series"].get(series, [])
    return statistics.median(values) if values else None


def _stage_metrics(m, doc, rid_tier=None):
    """Per-layer self-time ledger, work counts and rates from the spans."""
    spans = doc["spans"]
    m.add("obs.spans_dropped", "count", spans["dropped"])
    led = ledger(spans["rows"])
    n = led["samples"]
    if n == 0:
        return
    tiers = {t["name"]: t["layers"] for t in doc["tiers"]}
    # Work per sample: each sample weighs in with its own tier's layer table
    # (serve mixes tiers; offline and paper have one).
    counts = {}
    for rid in led["sample_rids"]:
        tier = rid_tier.get(rid) if rid_tier else next(iter(tiers))
        if tier in tiers:
            counts[tier] = counts.get(tier, 0) + 1
    weighed = sum(counts.values()) or 1

    def work(field):
        return sum(c * sum(l[field] for l in tiers[t]) for t, c in counts.items()) / weighed

    layer_names = next(iter(tiers.values())) if tiers else []
    per_sample_ms = lambda ns: ns / n / 1e6
    m.add("core.sample_ms", "ms", per_sample_ms(led["sample_ns"]))
    m.add("core.other_self_ms", "ms", per_sample_ms(led["other_ns"]))
    m.add("core.ledger_residual_ms", "ms", per_sample_ms(led["residual_ns"]))
    for stage in KERNEL_STAGES:
        m.add(f"{stage}.self_ms", "ms", per_sample_ms(led["stage_ns"][stage]))
    for (stage, idx), ns in sorted(led["layer_ns"].items()):
        if 0 <= idx < len(layer_names):
            m.add(f"{stage}.{layer_names[idx]['name']}.self_ms", "ms", per_sample_ms(ns))
    units = {"hash": ("macs", "hash.macs"), "cam_search": ("searches", "cam_search.searches"),
             "cam_write": ("rows", "cam_write.rows"), "postproc": ("dots", "postproc.dots")}
    for stage, (field, name) in units.items():
        m.add(name, "count", work(field))
    stage_s = lambda s: led["stage_ns"][s] / n / 1e9
    if stage_s("hash") > 0:
        m.add("hash.gmac_per_s", "GMAC/s", work("macs") / stage_s("hash") / 1e9)
    for stage, field, name in (("cam_search", "searches", "cam_search.ns_per_search"),
                               ("cam_write", "rows", "cam_write.ns_per_row"),
                               ("postproc", "dots", "postproc.ns_per_dot")):
        if work(field) > 0:
            m.add(name, "ns", stage_s(stage) * 1e9 / work(field))


def _layer_cycles(m, doc):
    tiers = doc["tiers"]
    for tier in tiers:
        prefix = f"{tier['name']}." if len(tiers) > 1 else ""
        for layer in tier["layers"]:
            m.add(f"core.sim_cycles.{prefix}{layer['name']}", "cycles", layer["sim_cycles"])
            m.add(f"plan.est_cycles.{prefix}{layer['name']}", "cycles", layer["est_cycles"])
    m.add("plan.cycles_abs_err", "cycles", doc["scalars"].get("plan.cycles_abs_err", 0.0))


def offline_metrics(doc):
    m = Metrics()
    s = doc["series"]
    m.add("setup_s", "s", s["setup_s"])
    m.add("peak_rss_mb", "MB", doc["scalars"]["peak_rss_mb"])
    m.add("samples_per_s", "1/s", s["samples_per_s"])
    m.add("latency_ms", "ms", s["ms_per_sample"])
    for name, unit in (("sim_cycles_per_sample", "cycles"), ("sim_energy_nj_per_sample", "nJ"),
                       ("top1_agreement", "frac")):
        m.add(name, unit, doc["scalars"][name])
    m.add("logit_rel_err", "frac", s["logit_rel_err"])
    m.add("nn.build_s", "s", s["nn.build_s"])
    m.add("core.compile_s", "s", s["core.compile_s"])
    _layer_cycles(m, doc)
    if doc["trace"]:
        _stage_metrics(m, doc)
        m.add("codelet.project_cols.gmac_per_s", "GMAC/s", s["codelet.project_cols.gmac_per_s"])
        traced, plain = _median(doc, "traced.samples_per_s"), _median(doc, "samples_per_s")
        m.add("obs.trace_overhead_frac", "frac", 1.0 - traced / plain)
    return m


def paper_metrics(doc):
    m = Metrics()
    s = doc["series"]
    m.add("setup_s", "s", s["setup_s"])
    m.add("peak_rss_mb", "MB", doc["scalars"]["peak_rss_mb"])
    m.add("plan_s", "s", s["plan_s"])
    m.add("compare_s", "s", s["compare_s"])
    m.add("latency_ms", "ms", s["paper_ms"])
    for name, unit in (("sim_cycles_per_sample", "cycles"), ("sim_energy_nj_per_sample", "nJ")):
        m.add(name, unit, doc["scalars"][name])
    m.add("nn.build_s", "s", s["nn.build_s"])
    _layer_cycles(m, doc)
    if doc["trace"]:
        _stage_metrics(m, doc)
        for name, unit in (("plan.cold_ms", "ms"), ("plan.warm_us", "us"),
                           ("plan.accuracy_ms", "ms"), ("core.compile_s", "s")):
            m.add(name, unit, s[name])
        m.add("plan.configs_evaluated", "count", doc["scalars"]["plan.configs_evaluated"])
        m.add("codelet.project_cols.gmac_per_s", "GMAC/s", s["codelet.project_cols.gmac_per_s"])
        for series in sorted(s):
            if series.startswith("sim.") and series.endswith(".ms"):
                m.add(series, "ms", s[series])
        traced, plain = _median(doc, "traced.paper_ms"), _median(doc, "paper_ms")
        m.add("obs.trace_overhead_frac", "frac", 1.0 - plain / traced)
    return m


def serve_metrics(doc):
    m = Metrics()
    s = doc["series"]
    steps = doc["steps"]
    reqs = request_rows(doc)
    by_step = [[r for r in reqs if r["step"] == i] for i in range(len(steps))]
    stats = [step_stats(rs, st["seconds"]) for rs, st in zip(by_step, steps)]
    role = lambda *roles: [i for i, st in enumerate(steps) if st["role"] in roles]
    pooled = lambda idx: [r for i in idx for r in by_step[i]]
    ladder, mids = role(*LADDER_ROLES), role("mid")
    # Latency is always taken from untraced passes at the mid rate.
    plain_mids = role("mid-untraced") or mids
    top = max(ladder, key=lambda i: steps[i]["rate_rps"])

    m.add("setup_s", "s", s["setup_s"])
    m.add("peak_rss_mb", "MB", doc["scalars"]["peak_rss_mb"])
    lat = [latency_ms(r) for r in pooled(plain_mids) if r["ok"]]
    m.add("latency_ms", "ms", statistics.median(lat))
    m.add("latency_p50_ms", "ms", statistics.median(lat))
    m.add("latency_p99_ms", "ms", percentile(lat, 99.0))
    m.add("latency_mid_rate_rps", "1/s", steps[mids[0]]["rate_rps"])
    m.add("goodput_rps", "1/s", stats[top]["goodput_rps"])
    m.add("max_rate_rps", "1/s", max_rate(steps, stats))
    sent = sum(stats[i]["sent"] for i in ladder)
    m.add("failed_frac", "frac", sum(stats[i]["failed"] for i in ladder) / sent)
    for rate in sorted({steps[i]["rate_rps"] for i in ladder}):
        at = pooled(i for i in ladder if steps[i]["rate_rps"] == rate)
        if any(r["ok"] for r in at):
            m.add(f"latency_ms.at_{rate:g}rps", "ms", [latency_ms(r) for r in at if r["ok"]])
        m.add(f"met_frac.at_{rate:g}rps", "frac", sum(r["slo_met"] for r in at) / len(at))
    m.add("nn.build_s", "s", s["nn.build_s"])
    m.add("core.compile_s", "s", s["core.compile_s"])
    _layer_cycles(m, doc)
    if not doc["trace"]:
        return m

    ladder_reqs = pooled(ladder)
    accepted = [r for r in ladder_reqs if not refused(r)]
    mid_ok = [r for r in pooled(mids) if r["ok"]]
    m.add("serve.admit_us_p50", "us", statistics.median(r["admit_ns"] / 1e3 for r in pooled(mids)))
    waits = [r["queue_s"] * 1e3 for r in mid_ok]
    m.add("serve.queue_wait_ms_p50", "ms", statistics.median(waits))
    m.add("serve.queue_wait_ms_p99", "ms", percentile(waits, 99.0))
    service_ms = lambda rs: statistics.median((r["total_s"] - r["queue_s"]) * 1e3
                                              for r in rs if r["ok"])
    m.add("serve.service_ms_p50", "ms", service_ms(mid_ok))
    m.add("serve.batch_size_mean", "count", statistics.mean(r["batch_size"] for r in mid_ok))
    m.add("serve.downgraded_frac", "frac", sum(r["downgraded"] for r in ladder_reqs) / sent)
    m.add("serve.shed_frac", "frac",
          sum(r["admission"] == "rejected-shed" for r in ladder_reqs) / sent)
    m.add("serve.expired_frac", "frac", sum(r["expired"] for r in ladder_reqs) / sent)
    m.add("serve.useful_frac", "frac", sum(r["slo_met"] for r in accepted) / len(accepted))
    m.add("serve.gen_lag_ms_p99", "ms", percentile([gen_lag_ms(r) for r in ladder_reqs], 99.0))

    traced = [i for i, st in enumerate(steps) if st["traced"]]
    # Sessions are named <model>-<tier>; layer tables are keyed by tier.
    rid_tier = {r["id"]: r["tier"].split("-")[-1] for r in pooled(traced) if r["tier"]}
    _stage_metrics(m, doc, rid_tier)
    # Engine occupancy per tier over the traced top-rate step: sample-span
    # time of the tier's requests over the step's wall time.
    top_reqs = pooled(role("top-traced"))
    top_ids = {r["id"] for r in top_reqs if r["tier"]}
    wall_ns = (max(r["done_ns"] for r in top_reqs if r["done_ns"] >= 0)
               - min(r["scheduled_ns"] for r in top_reqs))
    busy = {}
    for row in doc["spans"]["rows"]:
        name, begin, end, rid = row[:4]
        if name == SAMPLE_SPAN and rid in top_ids:
            busy[rid_tier[rid]] = busy.get(rid_tier[rid], 0) + end - begin
    for t in doc["tiers"]:
        m.add(f"serve.engine_busy_frac.{t['name']}", "frac", busy.get(t["name"], 0) / wall_ns)
    m.add("codelet.project_cols.gmac_per_s", "GMAC/s", s["codelet.project_cols.gmac_per_s"])
    m.add("obs.trace_overhead_frac", "frac",
          1.0 - service_ms(pooled(plain_mids)) / service_ms(mid_ok))
    return m


WORKLOAD_METRICS = {
    "offline-vgg11-k1024": offline_metrics,
    "offline-wide-k256": offline_metrics,
    "serve-lenet5-slo": serve_metrics,
    "paper-vgg11": paper_metrics,
}
