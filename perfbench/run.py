#!/usr/bin/env python3
"""The broker benchmark: the shipped `susf serve --listen` binary driven
over its socket, end to end (``--trace 0``) or layer by layer
(``--trace 1``).

    python3 perfbench/run.py --workload hot-serve --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py all --seed 1 --seconds 8
    python3 perfbench/run.py compare OLD_RESULTS_DIR NEW_RESULTS_DIR

Run from the repository root. A run builds ``bin/susf.exe`` and
``perfbench/perfbench.exe`` with dune, lets ``perfbench drive`` spawn the
server and drive the workload's two closed-loop connections, checks the
run with ``perfbench gate`` (socket replies = in-process replay, Serve
verdicts = cold oracle, compiled = interpreted, workload floors), prints
every metric by name with its unit and sample count, keeps a full
result record (provenance, quartiles, failure breakdown) under
``.perfbench/results/``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. It exits 1 when the
correctness gate fails.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys

OUT = ".perfbench"
SUSF = "_build/default/bin/susf.exe"
PERFBENCH = "_build/default/perfbench/perfbench.exe"

# An untraced run is this many parts, one after the other, each a fresh
# server driven from the start of the workload for its share of the
# run's seconds and gated before the next part starts. The host is
# shared, and while its neighbours load it requests stall: such
# stretches last from seconds to about a minute, and one covering a
# whole run moved its p99 by 1.7x (hot-serve) to 4x (churn-miss). With
# the first part's gate between them, the parts' measured segments are
# spread over the whole run rather than its first half, so fewer runs
# fall entirely inside one such stretch.
PARTS = 2

# Servers spawned per run to time set-up (setup_s is their median), and
# --recover --check runs per run to time recovery (recover_s is their
# median). Recovery is fixed work of about half a second, and a shared
# host's speed wanders by a fifth from one such run to the next, so the
# median is taken over many of them, spread over the pauses between the
# measured segments (perfbench drive times them). Both are split evenly
# between the parts.
SETUPS = 24
RECOVERS = 16
PINGS = 2000

# Throughput and latency figures are taken over this many consecutive
# chunks of a run, each chunk inside one measured segment, and report the
# best quarter of them: the lower quartile of the chunks' latencies, the
# upper quartile of their rates. A code change moves every chunk alike,
# so the best quarter still shows it, while a stall of the host (see
# PARTS) covering up to three quarters of the run does not move it.
CHUNKS = 16

# The highest tail percentile each workload reports (the rule below may
# pick a lower one when a run has too few samples).
TAIL_CAP = {"hot-serve": 99.0, "churn-miss": 99.0}
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)



# ---- statistics -------------------------------------------------------------

def rank(n, p):
    """The 1-based nearest rank of the p-th percentile of n samples
    (rounded first, so 99% of 1000 is rank 990, not 991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_values, p):
    """The p-th percentile (0 < p <= 100) by the nearest-rank method."""
    return sorted_values[rank(len(sorted_values), p) - 1]


def beyond(n, p):
    """How many of n samples lie strictly past the p-th nearest rank."""
    return n - rank(n, p)


def tail_percentile(n, cap=99.0):
    """The highest percentile, at most ``cap``, with at least ten samples
    beyond it; None when not even the median has ten."""
    for p in LADDER:
        if p <= cap and beyond(n, p) >= 10:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- failures ---------------------------------------------------------------

def classify(reply):
    """The failure class of one socket reply, or None for a success.
    ``Rejected No_plan`` is a correct answer, not a failure."""
    if reply == "":
        return "missing"
    if reply.startswith("err"):
        return "err"
    parts = reply.split(" ", 3)
    outcome = parts[3] if len(parts) == 4 else ""
    if outcome.startswith("REJECTED: shed"):
        return "shed"
    if outcome.startswith("DEGRADED"):
        return "degraded"
    return None


def count_failures(replies, mismatches):
    """Failure counts by class over the measured replies, plus verdict
    mismatches from the gate; returns (failed, attempted, by_class)."""
    by_class = {"err": 0, "shed": 0, "degraded": 0, "missing": 0,
                "mismatch": mismatches}
    for r in replies:
        c = classify(r)
        if c is not None:
            by_class[c] += 1
    return sum(by_class.values()), len(replies), by_class


# ---- one run ----------------------------------------------------------------

def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/susf.ml")):
        fail("run from the repository root (no dune-project / bin/susf.ml here)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/susf.exe",
                        "./perfbench/perfbench.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        fail("build failed:\n" + p.stdout[-4000:])


def perfbench(*args):
    """Run one perfbench step in its own process group, so a timeout also
    stops the server it spawned."""
    p = subprocess.Popen([PERFBENCH] + list(args), stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, 9)
        p.communicate()
        fail("perfbench %s timed out" % args[0])
    if p.returncode != 0:
        fail("perfbench %s failed:\n%s" % (args[0], out[-4000:]))


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_records(path):
    """(write, sent_ns, latency_ns, reply, segment) per measured request."""
    records = []
    with open(path) as f:
        for line in f:
            conn, segment, kind, sent, lat, reply = line.rstrip("\n").split("\t", 5)
            records.append((kind == "w", int(sent), int(lat), reply, int(segment)))
    return records


def drive_and_gate(workload, seed, seconds, rundir, traced):
    if os.path.isdir(rundir):
        shutil.rmtree(rundir)
    os.makedirs(rundir)
    args = ["drive", "--susf", SUSF, "--dir", rundir, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        args += ["--setups", "1", "--recovers", "1", "--pings", str(PINGS), "--metrics"]
    else:
        args += ["--setups", str(SETUPS // PARTS), "--recovers", str(RECOVERS // PARTS)]
    perfbench(*args)
    perfbench("gate", "--dir", rundir, "--workload", workload)
    return (read_json(os.path.join(rundir, "drive.json")),
            read_records(os.path.join(rundir, "requests.tsv")),
            read_json(os.path.join(rundir, "gate.json")))


def measure(workload, seed, seconds, base):
    """The untraced run: PARTS drives and gates, merged into one drive
    record, one list of records and one gate report. A record's segment
    becomes (part, segment)."""
    drives, records, gates = [], [], []
    for part in range(PARTS):
        d, r, g = drive_and_gate(workload, seed, seconds / PARTS, "%s.%d" % (base, part),
                                 traced=False)
        drives.append(d)
        records += [x[:4] + ((part, x[4]),) for x in r]
        gates.append(g)
    drive = dict(drives[0])
    for k in ("setups_s", "recovers_s"):
        drive[k] = [v for d in drives for v in d[k]]
    drive["rss_kb"] = max(d["rss_kb"] for d in drives)
    gate = {k: sum(g[k] for g in gates) for k in gates[0] if k != "floor"}
    floors = [g["floor"] for g in gates if g["floor"] != "ok"]
    gate["floor"] = "; ".join(floors) if floors else "ok"
    return drive, records, gate


def chunks_of(xs, k):
    """``xs`` cut into ``k`` consecutive chunks of equal size (the
    remainder joins the last)."""
    size = len(xs) // k
    return [xs[i * size:(i + 1) * size if i < k - 1 else len(xs)] for i in range(k)]


def best_quarter(values, better):
    """The lower quartile of ``values`` when lower is better, else the
    upper quartile."""
    q1, _, q3 = quartiles(values)
    return q1 if better == "lower" else q3


def timing(latencies_ns, cap):
    """Median and tail (by the ten-beyond rule) of latencies in completion
    order, in ms. Each is the best quarter over up to CHUNKS consecutive
    chunks of the run; a tail chunk is large enough for the capped
    percentile to keep ten samples beyond it."""
    n = len(latencies_ns)
    if n == 0:
        return {"p50": None, "q1": None, "q3": None, "tail": None, "pct": None, "n": 0}
    need = math.ceil(10 / (1 - cap / 100.0))
    tails, pcts = [], []
    for c in chunks_of(latencies_ns, max(1, min(CHUNKS, n // need))):
        xs = sorted(c)
        pct = tail_percentile(len(xs), cap)
        pcts.append(pct)
        tails.append(nearest_rank(xs, pct) if pct is not None else xs[-1])
    p50 = best_quarter([nearest_rank(sorted(c), 50)
                        for c in chunks_of(latencies_ns, min(CHUNKS, n))], "lower")
    xs = sorted(latencies_ns)
    return {"p50": p50 / 1e6, "q1": nearest_rank(xs, 25) / 1e6, "q3": nearest_rank(xs, 75) / 1e6,
            "tail": best_quarter(tails, "lower") / 1e6,
            "pct": None if None in pcts else min(pcts), "n": n}


def chunked_rate(records):
    """Requests completed per second: the best quarter over CHUNKS runs
    of consecutive completions of each one's count over the time it
    took. Chunks lie within one measured segment, so the pauses between
    segments do not count as time."""
    by_segment = {}
    for r in records:
        by_segment.setdefault(r[4], []).append(r[1] + r[2])
    per = max(1, CHUNKS // len(by_segment)) if by_segment else 1
    rates = []
    for seg in by_segment.values():
        done = sorted(seg)
        if len(done) < 2 * per:
            continue
        rates += [(len(c) - 1) / max(1e-9, (c[-1] - c[0]) / 1e9) for c in chunks_of(done, per)]
    return best_quarter(rates, "higher") if rates else 0.0


def end_to_end(workload, drive, records, gate):
    mismatches = (gate["reply_mismatches"] + gate["unreplied"]
                  + gate["oracle_mismatches"] + gate["interp_mismatches"])
    failed, attempted, by_class = count_failures([r[3] for r in records], mismatches)
    done = [r for r in records if r[3] != ""]
    cap = TAIL_CAP[workload]
    all_t = timing([r[2] for r in done], cap)
    write_t = timing([r[2] for r in done if r[0]], cap)
    setups, recovers = drive["setups_s"], drive["recovers_s"]
    s_q = quartiles(setups)
    r_q = quartiles(recovers)
    metrics = {
        "throughput_rps": (chunked_rate(done), "1/s", len(done), None),
        "latency_p50_ms": (all_t["p50"], "ms", all_t["n"],
                           (all_t["q1"], all_t["p50"], all_t["q3"])),
        "latency_tail_ms": (all_t["tail"], "ms", all_t["n"], None),
        "write_tail_ms": (write_t["tail"], "ms", write_t["n"], None),
        "success_ratio": (1.0 - failed / max(1, attempted), "ratio", attempted, None),
        "setup_s": (s_q[1], "s", len(setups), s_q),
        "recover_s": (r_q[1], "s", len(recovers), r_q),
        "server_rss_mb": (drive["rss_kb"] / 1024.0, "MB", 1, None),
    }
    detail = {"failed_ratio": failed / max(1, attempted), "failures": by_class,
              "tail_percentile": all_t["pct"], "write_tail_percentile": write_t["pct"],
              "hit_ratio": gate["hits"] / max(1, gate["hits"] + gate["misses"]),
              "serves": gate["hits"] + gate["misses"]}
    correct = mismatches == 0 and gate["floor"] == "ok"
    return metrics, attempted, failed, correct, detail


def ratio(num, den):
    """A ratio and its base; 0 over an empty base."""
    return [num / den if den else 0.0, den]


def layers(rundir, drive, untraced_rps, records):
    """Per-layer metrics: wall-clock self times from ``perfbench layers``,
    work counts from the traced server's own --metrics counters (and from the
    ladder probes' in-process counters, inside layers.json), the ping
    floor, and the tracing overhead against the untraced run."""
    perfbench("layers", "--dir", rundir)
    got = read_json(os.path.join(rundir, "layers.json"))
    c = read_json(os.path.join(rundir, "metrics.json"))["counters"]
    k = lambda name: c.get(name, 0)
    writes = got.pop("replay.writes")[0]
    got.update({
        "index.hit_ratio": ratio(k("broker.cache.hit"),
                                 k("broker.cache.hit") + k("broker.cache.miss")),
        "index.invalidations_per_write": ratio(k("broker.invalidations"), writes),
        "planner.analyze_per_miss": ratio(k("planner.analyze.calls"), k("broker.cache.miss")),
        "planner.compliance_cache.hit_ratio": ratio(
            k("planner.compliance_cache.hits"),
            k("planner.compliance_cache.hits") + k("planner.compliance_cache.misses")),
        "netcheck.states_per_check": ratio(k("netcheck.states.explored"), k("netcheck.checks")),
        "product.states_per_build": ratio(k("product.states.built"), k("product.builds")),
        "journal.bytes_per_entry": ratio(k("broker.journal.bytes"), k("broker.journal.appends")),
        "journal.flushes_per_append": ratio(k("broker.journal.group_commit.flushes"),
                                            k("broker.journal.appends")),
    })
    pings = sorted(drive["ping_rtt_ns"])
    got["net.ping_rtt_us"] = [statistics.median(pings) / 1e3, len(pings)]
    done = [r for r in records if r[3] != ""]
    traced_rps = chunked_rate(done)
    got["trace.throughput_ratio"] = [traced_rps / untraced_rps, len(done)]
    return got


# ---- provenance -------------------------------------------------------------

def source_digest():
    """A hash of the sources a run builds, for checkouts without git."""
    paths = ["dune-project"]
    for top in ("bin", "lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
            paths += [os.path.join(root, n) for n in files
                      if n.endswith((".ml", ".mli", ".py")) or n == "dune"]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else None
    except OSError:
        return None


def ocaml_version():
    try:
        p = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() or None
    except OSError:
        return None


def provenance(workload, seed, seconds, trace, drive):
    """Where and how a result was measured. The server runs with its
    shipped defaults, so its command line names only the spec, the
    listener and the journal."""
    return {"git_revision": git_revision(), "source_digest": source_digest(),
            "host": socket.gethostname(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "ocaml": ocaml_version(),
            "python": platform.python_version(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "parts": PARTS, "connections": 2,
            "server_argv": drive["server_argv"], "setups": len(drive["setups_s"]),
            "recovers": len(drive["recovers_s"]),
            "recovered_entries": drive["recovered_entries"]}


# ---- reporting --------------------------------------------------------------

def run(args):
    bench = load_benchmark()
    build()
    wanted = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    units = {m["name"]: m["unit"] for m in wanted}
    # run directories are reused across seeds; only the result records stay
    base = os.path.join(OUT, "%s-trace%d" % (args.workload, args.trace))
    drive, records, gate = measure(args.workload, args.seed, args.seconds, base + ".run")
    e2e, attempted, failed, correct, detail = end_to_end(args.workload, drive, records, gate)
    record = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace, drive),
              "gate": gate, "detail": detail, "attempted": attempted, "failed": failed,
              "correct": correct}
    if args.trace == 0:
        samples = {k: (v[0], v[2], v[3]) for k, v in e2e.items()}
    else:
        tdrive, trecords, tgate = drive_and_gate(args.workload, args.seed, args.seconds,
                                                 base + ".traced", traced=True)
        _, tatt, tfailed, tcorrect, _ = end_to_end(args.workload, tdrive, trecords, tgate)
        attempted, failed = attempted + tatt, failed + tfailed
        correct = correct and tcorrect
        record.update({"traced_gate": tgate, "attempted": attempted, "failed": failed,
                       "correct": correct})
        got = layers(base + ".traced", tdrive, e2e["throughput_rps"][0], trecords)
        samples = {k: (v[0], v[1], None) for k, v in got.items()}
    metrics, missing = {}, []
    for name, unit in units.items():
        if name not in samples or samples[name][0] is None:
            missing.append(name)
            continue
        value, n, q = samples[name]
        metrics[name] = {"value": value, "unit": unit}
        extra = "" if q is None else "  [q1 %.6g, q3 %.6g]" % (q[0], q[2])
        print("%s %-36s %14.6g %-6s (n=%d)%s" % (args.workload, name, value, unit, n, extra))
    print("%s %-36s %14.6g %-6s (n=%d)" % (args.workload, "failed_ratio",
                                           failed / max(1, attempted), "ratio", attempted))
    if missing:
        correct = False
        print("perfbench: no value for %s" % ", ".join(missing), file=sys.stderr)
    for g in (gate, record.get("traced_gate", gate)):
        if g["floor"] != "ok":
            print("perfbench: workload floor failed: %s" % g["floor"], file=sys.stderr)
    record["metrics"] = {k: {"value": v[0], "unit": units.get(k), "samples": v[1],
                             "quartiles": v[2]} for k, v in samples.items()}
    record["correct"] = correct
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, "results", result), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---- compare ----------------------------------------------------------------

def verdict(old, new, better, bound):
    """Compare two sets of run values of one metric against its bound:
    'regression' when the new median is worse by more than the bound,
    'improved' when better by more than the bound, 'unresolved' when
    either side's spread (IQR / median) is wider than the bound -- unless
    every new run reads better than every old run -- else 'unchanged'."""
    _, om, _ = quartiles(old)
    _, nm, _ = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    delta = sign * (nm - om) / om if om else 0.0

    def spread(v):
        q1, m, q3 = quartiles(v)
        return (q3 - q1) / m if m else 0.0

    all_better = (min(new) > max(old)) if better == "higher" else (max(new) < min(old))
    if max(spread(old), spread(new)) > bound:
        return "improved" if all_better else "unresolved"
    if delta < -bound:
        return "regression"
    if delta > bound:
        return "improved"
    return "unchanged"


def load_results(path):
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        r = read_json(os.path.join(path, name))
        if r["provenance"]["trace"] != 0:
            continue
        for metric, m in r["metrics"].items():
            per_workload = out.setdefault(r["provenance"]["workload"], {})
            per_workload.setdefault(metric, []).append(m["value"])
    return out


def compare(args):
    bench = load_benchmark()
    old, new = load_results(args.old), load_results(args.new)
    regressions = 0
    for w in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            a, b = old.get(w, {}).get(m["name"]), new.get(w, {}).get(m["name"])
            if not a or not b:
                print("%-14s %-18s missing" % (w, m["name"]))
                continue
            oq, nq = quartiles(a), quartiles(b)
            v = verdict(a, b, m["better"], m["bound"])
            regressions += v == "regression"
            delta = (nq[1] - oq[1]) / oq[1] if oq[1] else 0.0
            print("%-14s %-18s old %.6g [%.6g, %.6g] (n=%d)  new %.6g [%.6g, %.6g] (n=%d)"
                  "  delta %+.1f%%  bound %.0f%%  %s"
                  % (w, m["name"], oq[1], oq[0], oq[2], len(a), nq[1], nq[0], nq[2], len(b),
                     100 * delta, 100 * m["bound"], v))
    return 1 if regressions else 0


def run_all(args):
    """Every workload, end to end, one after the other; fails when any does."""
    worst = 0
    for w in sorted(TAIL_CAP):
        p = subprocess.run([sys.executable, sys.argv[0], "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", "0"])
        worst = max(worst, p.returncode)
    return worst


def main(argv):
    if argv[:1] == ["all"]:
        p = argparse.ArgumentParser(prog="run.py all")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        return run_all(p.parse_args(argv[1:]))
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=sorted(TAIL_CAP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
