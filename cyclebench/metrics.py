"""Metrics, output checks and ledger checks over a cyclebench record.

A record is the JSON the `cyclebench` harness writes for one run: run
metadata, the workload configuration, the set-up probes, an optional
one-thread smoke repetition and the timed repetitions. Each repetition holds
the post-analysis hook times and posterior-mean hashes, the runner's
per-cycle rows, exact work counters and (traced repetitions only) the spans
the benchmark's decorators recorded around each layer's public interface.

Times in a repetition are seconds since its system construction started.
"""

import json
import statistics
from pathlib import Path

# Child-layer spans, by decorator name. Everything else inside a cycle body
# is the runner's own work (QC, checkpoint, ensemble copies, increments,
# RMSE bookkeeping).
FORECAST = "sqg.forecast_batch"
PRODUCE = "stream.produce"
COLLECT = "stream.collect"
CHILD_SPANS = (FORECAST, PRODUCE, COLLECT, "da.letkf.analyze", "da.ensf.analyze",
               "da.letkf.prepare", "da.ensf.prepare")
LETKF_PHASES = ("select", "gather", "gram", "eigh", "weights", "combine")
LETKF_METRICS = ("da.letkf.prepare_ms", "da.letkf.analysis_wall_ms", "da.letkf.columns",
                 "da.letkf.groups", "da.letkf.groups_per_column", "da.letkf.lane_occupancy",
                 "da.letkf.plan_worker_ms", *(f"da.letkf.{p}_worker_ms" for p in LETKF_PHASES),
                 "da.letkf.phase_efficiency")
ENSF_METRICS = ("da.ensf.analysis_wall_ms", "da.ensf.score_evals")

def _declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them (the one place
    metric names and units are written down)."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")


def _as_declared(values, declared):
    """The computed metrics, checked against the declared set and ordered
    like it."""
    if set(values) != set(declared):
        raise KeyError(f"computed metrics {sorted(set(values) ^ set(declared))} "
                       "do not match BENCHMARK.json")
    return {k: values[k] for k in declared}


def median(values):
    return statistics.median(values) if values else 0.0


def _reps(record, traced):
    return [r for r in record["reps"] if r["traced"] == traced]


# ------------------------------------------------------------ end to end ---

def hook_intervals_ms(reps):
    """Steady-state cycle intervals: successive post-analysis hooks."""
    out = []
    for r in reps:
        t = r["hook_t"]
        out += [(b - a) * 1e3 for a, b in zip(t, t[1:])]
    return out


def _include_cycle(cfg, collect_cycle):
    """First cycle whose posterior includes a batch collected at this cycle."""
    last = cfg["cycles"] - 1
    if cfg["schedule"] == "serial":
        return collect_cycle
    return min(collect_cycle + cfg["overlap_depth"], last)


def obs_to_analysis_ms(cfg, rep):
    """Per window: produce(k) returning -> hook of the first cycle whose
    posterior includes batch k (its first full-shape delivery)."""
    seen = {}
    for ev in rep["collects"]:
        for window, full in ev["batches"]:
            if full and window not in seen:
                seen[window] = ev["cycle"]
    out = []
    for window, c in sorted(seen.items()):
        inc = _include_cycle(cfg, c)
        t_prod = rep["produce_ret"][window]
        if 0 <= inc < len(rep["hook_t"]) and t_prod >= 0:
            out.append((rep["hook_t"][inc] - t_prod) * 1e3)
    return out


def due_windows(cfg):
    """Windows whose batch can arrive before the final analysis point."""
    return cfg["cycles"] - cfg["undue_tail_windows"]


def end_to_end(record):
    cfg = record["config"]
    reps = _reps(record, False)
    intervals = hook_intervals_ms(reps)
    o2a = [v for r in reps for v in obs_to_analysis_ms(cfg, r)]
    rep0 = reps[0]
    sim_h = cfg["cycles"] * cfg["window_hours"]
    setup = list(record["setup_probe_s"]) + [r["setup_s"] for r in record["reps"]]
    out = {
        "cycle_ms_p50": median(intervals),
        "sim_hours_per_s": median([sim_h / r["run_s"] for r in reps]),
        "obs_to_analysis_ms_p50": median(o2a),
        "rmse_post": statistics.fmean(c["rmse_post"] for c in rep0["cycles"]),
        "setup_s": median(setup),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }
    return _as_declared(out, END_TO_END), {"cycle_intervals": len(intervals), "obs_to_analysis_windows": len(o2a),
        "repetitions": len(reps), "setup_samples": len(setup)}


# ----------------------------------------------------------- output check ---

def output_checks(record):
    """The bitwise and accuracy contract. Returns (failed cycles, attempted
    cycles, problems)."""
    cfg = record["config"]
    reps = record["reps"]
    problems = []
    attempted = sum(len(r["hook_hash"]) for r in reps)
    failed = 0
    ref = reps[0]["hook_hash"]
    for i, r in enumerate(reps):
        if len(r["hook_hash"]) != cfg["cycles"]:
            problems.append(f"repetition {i} completed {len(r['hook_hash'])} "
                            f"of {cfg['cycles']} cycles")
            failed += cfg["cycles"]
        elif r["hook_hash"] != ref:
            problems.append(f"repetition {i} posterior hashes differ from repetition 0")
            failed += cfg["cycles"]
    smoke = record.get("smoke")
    if smoke is not None:
        s = smoke["hook_hash"]
        attempted += len(s)
        # Serial: every smoke cycle matches; Overlapped: every cycle before
        # the smoke run's synchronous drain of the last one.
        n = len(s) if cfg["schedule"] == "serial" else len(s) - 1
        if len(s) != cfg["smoke_cycles"] or s[:n] != ref[:n]:
            problems.append("1-thread smoke run posterior hashes differ from the "
                            f"{record['meta']['threads']}-thread run")
            failed += len(s)
    rows = reps[0]["cycles"]
    post = statistics.fmean(c["rmse_post"] for c in rows)
    prior = statistics.fmean(c["rmse_prior"] for c in rows)
    if not post < prior:
        problems.append(f"rmse_post {post:.4f} is not below the mean prior RMSE {prior:.4f}")
        failed = attempted
    return min(failed, attempted), attempted, problems


# ------------------------------------------------------------- per layer ---

def _spans(rep):
    return [{"name": s[0], "tid": s[1], "t0": s[2], "t1": s[3], "window": s[4]}
            for s in rep["spans"]]


def cycle_bodies(rep):
    """Cycle k's body runs from the start of its collect() call to the start
    of the next one (the last ends when run() returns). Spans before the
    first body are the prologue (prepare; under Serial also window 0's
    produce and forecast)."""
    starts = [ev["t0"] for ev in rep["collects"]]
    ends = starts[1:] + [rep["run_t0"] + rep["run_s"]]
    return list(zip(starts, ends))


def body_of(bodies, t):
    for k, (a, b) in enumerate(bodies):
        if a <= t < b:
            return k
    return -1


def union_length(intervals, lo, hi):
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def body_ledger(record, rep):
    """Per steady cycle body (all but the last): wall, layer times and the
    runner's self time."""
    spans = _spans(rep)
    bodies = cycle_bodies(rep)
    children = [s for s in spans if s["name"] in CHILD_SPANS]
    out = []
    for k, (a, b) in enumerate(bodies[:-1]):
        mine = [s for s in children if a <= s["t0"] < b]
        fc = [s for s in mine if s["name"] == FORECAST]
        fc_hull = (max(s["t1"] for s in fc) - min(s["t0"] for s in fc)) if fc else 0.0
        an = [s for s in mine if s["name"].endswith(".analyze")]
        row = rep["cycles"][k]
        out.append({
            "cycle": k,
            "wall_ms": (b - a) * 1e3,
            "forecast_wall_ms": fc_hull * 1e3,
            "forecast_busy_ms": sum(s["t1"] - s["t0"] for s in fc) * 1e3,
            "analysis_ms": sum(s["t1"] - s["t0"] for s in an) * 1e3,
            "self_ms": ((b - a) - union_length([(s["t0"], s["t1"]) for s in children], a, b)) * 1e3,
            "main_self_ms": ((b - a) - union_length(
                [(s["t0"], s["t1"]) for s in children if s["tid"] == 0], a, b)) * 1e3,
            "qc_ms": row["qc_ms"],
            "checkpoint_ms": row["checkpoint_ms"],
        })
    return out


def per_layer(record):
    cfg, meta, load = record["config"], record["meta"], record["load"]
    threads = meta["threads"]
    traced = _reps(record, True)
    untraced = _reps(record, False)
    if not traced:
        return {k: 0.0 for k in PER_LAYER}
    m = {}
    ledgers = [row for r in traced for row in body_ledger(record, r)]
    m["sqg.forecast_wall_ms"] = median([x["forecast_wall_ms"] for x in ledgers])
    m["sqg.forecast_busy_ms"] = median([x["forecast_busy_ms"] for x in ledgers])
    m["sqg.forecast_efficiency"] = median([x["forecast_busy_ms"] / (threads * x["forecast_wall_ms"])
                                           for x in ledgers if x["forecast_wall_ms"] > 0])
    rep = traced[0]
    c = rep["counters"]
    m["sqg.member_steps"] = c["member_steps"]
    fc_busy = sum(s[3] - s[2] for s in rep["spans"] if s[0] == FORECAST)
    m["sqg.us_per_member_step"] = fc_busy * 1e6 / c["member_steps"] if c["member_steps"] else 0.0

    layer = "da.ensf" if cfg["filter"] == "ensf" else "da.letkf"
    m.update(dict.fromkeys(LETKF_METRICS + ENSF_METRICS, 0.0))  # the filter not run reads 0
    an_ms = [(s[3] - s[2]) * 1e3 for r in traced for s in r["spans"] if s[0] == layer + ".analyze"]
    if cfg["filter"] == "letkf":
        t = rep["letkf"]
        m["da.letkf.prepare_ms"] = median([r["prepare_s"] * 1e3 for r in traced])
        m["da.letkf.analysis_wall_ms"] = median(an_ms)
        m["da.letkf.columns"] = t["columns"]
        m["da.letkf.groups"] = t["groups"]
        m["da.letkf.groups_per_column"] = t["groups"] / t["columns"] if t["columns"] else 0.0
        m["da.letkf.lane_occupancy"] = t["batched_columns"] / t["columns"] if t["columns"] else 0.0
        m["da.letkf.plan_worker_ms"] = t["plan_ms"]
        # Phase sums and analysis walls over the same calls: every traced
        # repetition's LETKF timings against every traced analyze span.
        n = max(sum(r["letkf"]["analyses"] for r in traced), 1)
        phase_total = 0.0
        for p in LETKF_PHASES:
            total = sum(r["letkf"][f"{p}_ms"] for r in traced)
            m[f"da.letkf.{p}_worker_ms"] = total / n
            phase_total += total
        m["da.letkf.phase_efficiency"] = (phase_total / (threads * sum(an_ms))
                                          if an_ms else 0.0)
    else:
        m["da.ensf.analysis_wall_ms"] = median(an_ms)
        members = cfg["members"]
        minibatch = cfg["ensf_minibatch"] or members
        ok_calls = c["analyze_calls"] - c["analyze_failed"]
        m["da.ensf.score_evals"] = ok_calls * cfg["ensf_euler_steps"] * members * minibatch

    m["da.obs_assimilated"] = c["obs_assimilated"]
    m["da.fallback_columns"] = c["fallback_columns"]
    m["da.solve_ok_frac"] = 1.0 - c["fallback_columns"] / c["columns"] if c["columns"] else 0.0
    rows = rep["cycles"]
    qc_rows = [x["qc_ms"] for x in rows if x["qc_ms"] > 0]
    m["da.qc.ms"] = median(qc_rows)
    m["da.qc.reject_frac"] = c["qc_rejected"] / c["obs_checked"] if c["obs_checked"] else 0.0

    ck = [w for r in traced for w in checkpoint_writes(r)]
    write_ms = median([x["write_ms"] for x in ck])
    m["stream.checkpoint.ms_per_write"] = write_ms
    m["stream.checkpoint.wait_ms"] = median([x["wait_ms"] for x in ck])
    m["stream.checkpoint.bytes"] = c["checkpoint_bytes"]
    m["stream.checkpoint.mb_per_s"] = (c["checkpoint_bytes"] / 1e6 / (write_ms / 1e3)
                                       if write_ms > 0 else 0.0)

    m["stream.ingest.produce_ms"] = median(
        [(s[3] - s[2]) * 1e3 for r in traced for s in r["spans"] if s[0] == PRODUCE])
    m["stream.ingest.collect_ms"] = median(
        [(s[3] - s[2]) * 1e3 for r in traced for s in r["spans"] if s[0] == COLLECT])
    delivered = sum(len(ev["batches"]) for ev in rep["collects"])
    if cfg["live"]:
        m["stream.ingest.bytes_per_window"] = load["capture_bytes"] / cfg["cycles"]
        m["stream.ingest.frames_corrupt"] = c["ingest_frames_corrupt"]
        m["stream.ingest.frames_resynced"] = c["ingest_frames_resynced"]
        m["stream.ingest.duplicates_dropped"] = c["ingest_duplicates_dropped"]
        m["stream.ingest.queue_drops"] = c["ingest_queue_drops"]
        sent = load["obs_frames_sent"]
    else:
        m["stream.ingest.bytes_per_window"] = cfg["obs_dim"] * 8
        for k in ("frames_corrupt", "frames_resynced", "duplicates_dropped", "queue_drops"):
            m[f"stream.ingest.{k}"] = 0
        sent = cfg["cycles"]
    m["stream.ingest.useful_frac"] = delivered / sent if sent else 0.0

    m["stream.runner.self_ms"] = median([x["self_ms"] for x in ledgers])
    assimilated = sum(x["batches_assimilated"] for x in rows)
    due = due_windows(cfg)
    m["stream.runner.windows_lost_frac"] = max(0.0, 1.0 - assimilated / due)
    m["stream.runner.deadline_miss_frac"] = sum(1 for x in rows if x["deadline_miss"]) / len(rows)

    idle, tasks = [], []
    workers = meta["pool_workers"]
    for r in traced:
        t = [r["run_t0"]] + r["hook_t"]
        busy, ntask = r["pool_busy_ns"], r["pool_tasks"]
        for i in range(1, len(t) - 1):  # hook-to-hook intervals
            dt_ns = (t[i + 1] - t[i]) * 1e9
            idle.append(1.0 - (busy[i + 1] - busy[i]) / (dt_ns * workers))
            tasks.append(ntask[i + 1] - ntask[i])
    m["parallel.pool_idle_frac"] = median(idle)
    m["parallel.tasks_per_cycle"] = median(tasks)

    untraced_p50 = median(hook_intervals_ms(untraced))
    m["telemetry.trace_overhead_frac"] = (median(hook_intervals_ms(traced)) / untraced_p50 - 1.0
                                          if untraced_p50 > 0 else 0.0)
    return _as_declared(m, PER_LAYER)


def checkpoint_writes(rep):
    """Per checkpoint: its total time, and the part spent waiting for the
    in-flight staged analysis (under overlap depth K > 1 the runner joins it
    before serializing, so a slow analysis would otherwise read as a slow
    write). The checkpoint starts once the cycle body's own clock stops
    (cycle_ms after the body's start); the wait ends when the last analysis
    call inside the checkpoint interval returns."""
    ends = [s[3] for s in rep["spans"] if s[0].endswith(".analyze")]
    out = []
    for k, row in enumerate(rep["cycles"]):
        total = row["checkpoint_ms"]
        if total <= 0:
            continue
        a = rep["cycle_start"][k] + row["cycle_ms"] / 1e3
        b = a + total / 1e3
        inside = [t for t in ends if a < t <= b]
        wait = (max(inside) - a) * 1e3 if inside else 0.0
        out.append({"total_ms": total, "wait_ms": wait, "write_ms": total - wait})
    return out


def layer_shares(record):
    """Share of the steady cycle wall per layer (critical-path view): the
    forecast hull, the analysis calls, the stream calls and runner self."""
    traced = _reps(record, True)
    ledgers = [row for r in traced for row in body_ledger(record, r)]
    if not ledgers:
        return {}
    wall = median([x["wall_ms"] for x in ledgers])
    return {
        "sqg": median([x["forecast_wall_ms"] for x in ledgers]) / wall,
        "da": median([x["analysis_ms"] for x in ledgers]) / wall,
        "stream.runner.self": median([x["self_ms"] for x in ledgers]) / wall,
    }


# ---------------------------------------------------------------- ledger ---

def ledger_problems(record, tol_s=2e-4):
    """Sanity of the traced run's timing ledger:
    1. every layer span nests inside its cycle body (a staged analysis under
       overlap depth K may run on into the next K-1 bodies);
    2. under Serial, child spans on the runner's thread never overlap;
    3. per cycle, runner self time >= QC + checkpoint time (under Overlapped
       those run beside forecast/analysis spans on other threads, so the
       runner thread's exclusive time is used);
    4. every *_efficiency is <= 1.
    """
    cfg = record["config"]
    problems = []
    serial = cfg["schedule"] == "serial"
    straggle = 0 if serial else cfg["overlap_depth"] - 1
    for ri, rep in enumerate(_reps(record, True)):
        bodies = cycle_bodies(rep)
        run_end = rep["run_t0"] + rep["run_s"]
        for s in _spans(rep):
            if s["name"].endswith(".prepare"):
                continue
            k = body_of(bodies, s["t0"])
            if k < 0:
                if not (rep["run_t0"] - tol_s <= s["t0"] and s["t1"] <= bodies[0][0] + tol_s):
                    problems.append(f"rep {ri}: {s['name']} outside every cycle and the prologue")
                continue
            end = bodies[min(k + straggle, len(bodies) - 1)][1]
            if s["t1"] > end + tol_s or s["t1"] > run_end + tol_s:
                problems.append(f"rep {ri}: {s['name']} started in cycle {k} but ends outside it")
        if serial:
            main = sorted((s["t0"], s["t1"], s["name"]) for s in _spans(rep)
                          if s["tid"] == 0 and s["name"] in CHILD_SPANS)
            for (a0, a1, an), (b0, b1, bn) in zip(main, main[1:]):
                if b0 < a1 - tol_s:
                    problems.append(f"rep {ri}: main-thread spans {an} and {bn} overlap")
        for x in body_ledger(record, rep):
            self_ms = x["self_ms"] if serial else x["main_self_ms"]
            if self_ms + tol_s * 1e3 < x["qc_ms"] + x["checkpoint_ms"]:
                problems.append(f"rep {ri} cycle {x['cycle']}: runner self {self_ms:.3f} ms < "
                                f"QC {x['qc_ms']:.3f} + checkpoint {x['checkpoint_ms']:.3f} ms")
    for name, v in per_layer(record).items():
        if name.endswith("_efficiency") and v > 1.0 + 1e-6:
            problems.append(f"{name} = {v:.4f} exceeds 1")
    return problems


def exact_counters(record):
    """Work counters that must repeat exactly across runs of one seed."""
    rep = record["reps"][0]
    out = dict(rep["counters"])
    out["cycles"] = len(rep["cycles"])
    out["batches_assimilated"] = sum(x["batches_assimilated"] for x in rep["cycles"])
    out["late_applied"] = sum(x["late_applied"] for x in rep["cycles"])
    out["final_hash"] = rep["hook_hash"][-1]
    for r in _reps(record, True)[:1]:
        if r.get("letkf"):
            for k in ("columns", "groups", "batched_columns", "analyses"):
                out[f"letkf_{k}"] = r["letkf"][k]
    return out


def chrome_trace(record):
    """Chrome trace-event JSON (chrome://tracing, Perfetto) of the traced
    repetitions: one process per repetition, cycle bodies on the runner
    thread, layer spans on the thread that made the call. `args.cycle` is the
    shared request id (the body the span started in)."""
    events = []
    for pid, rep in enumerate(_reps(record, True)):
        bodies = cycle_bodies(rep)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"{record['meta']['workload']} rep {pid}"}})
        for k, (a, b) in enumerate(bodies):
            events.append({"name": "stream.runner.cycle", "ph": "X", "pid": pid, "tid": 0,
                           "ts": a * 1e6, "dur": (b - a) * 1e6, "args": {"cycle": k}})
        for s in _spans(rep):
            events.append({"name": s["name"], "ph": "X", "pid": pid, "tid": s["tid"],
                           "ts": s["t0"] * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
                           "args": {"cycle": body_of(bodies, s["t0"]), "window": s["window"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
