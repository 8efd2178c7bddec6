#!/usr/bin/env python3
"""Host-time benchmark of the compile service and the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_batch --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json records why each was chosen):
  cold_batch   generated programs through Serve.compile_file, empty disk cache
  warm_batch   the same programs against a disk cache filled before timing
  sim_kernels  the paper's kernels, compiled in set-up, then called repeatedly
  all          every workload in turn, one result line each

The benchmark builds perfbench/main.exe with dune and computes the
interpreter reference of every input, outside set-up and the timed phase.
It then starts one fresh process per batch, batch after batch, in whole
passes over the inputs until --seconds have passed, so that worlds
leaked by one batch cannot slow the next.  Every op is checked against
the reference, and against every other run of the same input in the
run: outcome, cycles, code words and image bytes must be identical.

Host times are scaled by a calibration each process takes around every
few ops (see main.ml), because a shared host changes speed within seconds.

An op fails when it crashes, traps, raises an error or returns a value
that disagrees with the reference; a batch process that dies or hangs
fails every op of its batch.  Failed ops are counted, never retried.
An input fails when any of its ops failed.  The result line's
"attempted" and "failed" count inputs (one pass over the workload), not
ops, so they do not depend on how many ops fit in --seconds and are the
same on every run of one commit; the op counts are printed beside
ok_frac.  ok_frac is the share of inputs that did not fail, so it is
exact and moves by one input's share when one more input fails.

With --trace 0 the last line of output holds the end-to-end metrics.
With --trace 1 every batch runs untraced, then traced, and the last line
holds the per-layer metrics of the traced batches.  Exit code 1 means a
value disagreed with the reference, a kernel call did not reproduce its
BENCH_RESULTS.json row, or an exactness or warm-hit check failed; 2 means
the benchmark could not run.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["cold_batch", "warm_batch", "sim_kernels"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench_work"
KERNEL_ROUNDS = 10  # kernel rounds per sim_kernels process
SETUP_TIMEOUT = 150  # reference and fill processes
BATCH_TIMEOUT = 60  # a measured batch takes a few seconds
# Host-speed calibration (see main.ml): every host time is scaled to a
# host on which one calibration takes this long.
NOMINAL_CAL_NS = 800000.0

# Self-time layers: disjoint, so their sum per op is compared with the
# untraced per-op latency.  runtime.svc_ms is part of machine.sim_ms and
# is left out of the sum.
SELF_LAYERS = [
    "serve.read_ms", "serve.key_ms", "serve.cache_find_ms", "runtime.boot_ms",
    "sexp.parse_ms", "frontend.convert_ms", "transform.simplify_ms",
    "compiler.verify_ms", "rep.repan_ms", "rep.pdlnum_ms", "codegen.gen_ms",
    "serve.capture_ms", "machine.load_ms", "serve.image_save_ms",
    "serve.cache_store_ms", "serve.image_load_ms", "serve.replay_ms",
    "machine.sim_ms", "obs.diff_ms",
]
OTHER_LAYERS = [
    ("runtime.svc_ms", "ms"), ("machine.ns_per_instr", "ns"),
    ("transform.rule_fires", "count"), ("codegen.instrs", "count"),
    ("serve.image_bytes", "bytes"), ("machine.instructions", "count"),
    ("machine.svcs", "count"), ("runtime.gc_collections", "count"),
    ("runtime.heap_words", "words"),
]


class CheckFailed(Exception):
    pass


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child(args, timeout):
    """Run main.exe; return None on success, else why it failed."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return "no result after %d s" % timeout
    finally:
        # also when this script is stopped: no child outlives it
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        return "exit %d: %s" % (proc.returncode, err.decode(errors="replace").strip())
    return None


def setup_child(args):
    why = child(args, SETUP_TIMEOUT)
    if why is not None:
        raise CheckFailed("set-up step %s failed: %s" % (args[0], why))


def load(path):
    with open(path) as f:
        return json.load(f)


def build():
    for need in ["dune-project", "lib", os.path.join("perfbench", "dune"), "BENCH_RESULTS.json"]:
        if not os.path.exists(need):
            fail_setup("run from the root of a full checkout (%s is missing)" % need)
    # temporary files of the compilers and of every child stay in the checkout
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail_setup("build failed")


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def is_time(layer):
    return layer.endswith("_ms") or layer == "machine.ns_per_instr"


def normalize(doc, t_spawn):
    """Scale the host times of a process to the nominal host speed: each
    group of ops by the mean of the calibrations before and after it,
    set-up (spawn to the first calibration) by the first, the probe by
    the last."""
    cal = doc["cal_ns"]
    factor = [2 * NOMINAL_CAL_NS / (cal[g] + cal[g + 1]) for g in range(len(cal) - 1)]

    def scale(layers, f):
        return {k: (v * f if is_time(k) else v) for k, v in layers.items()}

    for o in doc["ops"]:
        if o["g"] >= 0:
            o["ns"] *= factor[o["g"]]
            if "layers" in o:
                o["layers"] = scale(o["layers"], factor[o["g"]])
    doc["probe"] = [scale(p, NOMINAL_CAL_NS / cal[-1]) for p in doc.get("probe", [])]
    doc["group_ns"] = [w * f for w, f in zip(doc["group_ns"], factor)]
    doc["timed_ns"] = sum(doc["group_ns"])
    doc["setup_s"] = (doc["t_setup_end_ns"] - t_spawn) / 1e9 * NOMINAL_CAL_NS / cal[0]
    doc["scale"] = NOMINAL_CAL_NS / statistics.median(cal)
    return doc


def run_workload(workload, seed, seconds, trace, work):
    """Returns the number of inputs, the fill's seconds, its ops (or None),
    and one record per measured process: traced, doc (None if it died),
    the inputs of its ops, and why it died."""
    common = ["--workload", workload, "--seed", str(seed), "--dir", work]
    refs = os.path.join(work, "refs.json")
    setup_child(["reference"] + common + ["--out", refs])
    plan = load(refs)
    batches = len(plan["batches"])
    rounds = KERNEL_ROUNDS if workload == "sim_kernels" else 1

    # One-time set-up: the disk cache warm batches start from.
    fill_s, fill = 0.0, None
    cache = os.path.join(work, "cache")
    if workload == "warm_batch":
        fill = []
        for b in range(batches):
            out = os.path.join(work, "fill%03d.json" % b)
            t_spawn = time.monotonic_ns()
            setup_child(["fill"] + common + ["--batch", str(b), "--cache", cache, "--out", out])
            doc = normalize(load(out), t_spawn)
            fill += doc["ops"]
            fill_s += doc["setup_s"] + doc["timed_ns"] / 1e9

    # Batches in order, whole passes over the inputs, until the time is
    # up: every run measures each input equally often, whatever the seed's
    # order of batches.  With --trace every batch runs untraced, then traced.
    procs = []
    start = time.monotonic()
    n = 0
    runs = 2 if trace else 1
    while n % (runs * batches) or n == 0 or time.monotonic() - start < seconds:
        traced = trace and n % 2 == 1
        b = (n // runs) % batches
        out = os.path.join(work, "m%03d.json" % n)
        # cold_batch: a fresh empty cache per batch; warm_batch: the filled one
        own = os.path.join(work, "cache%03d" % n) if workload == "cold_batch" else cache
        args = ["measure"] + common + ["--batch", str(b), "--out", out, "--cache", own,
                                       "--rounds", str(KERNEL_ROUNDS)]
        if traced:
            args.append("--trace")
        t_spawn = time.monotonic_ns()
        why = child(args, BATCH_TIMEOUT)
        doc = normalize(load(out), t_spawn) if why is None else None
        procs.append({"traced": traced, "doc": doc, "inputs": plan["batches"][b] * rounds,
                      "why": why})
        for name in os.listdir(work):
            if name.startswith("cache") and os.path.join(work, name) != cache:
                shutil.rmtree(os.path.join(work, name), ignore_errors=True)
        n += 1
    return len(plan["outcomes"]), fill_s, fill, procs


def live(procs, traced):
    return [p["doc"] for p in procs if p["doc"] is not None and p["traced"] == traced]


def check(workload, fill, procs):
    """Exactness and warm-hit checks over every process of the run.
    Returns, over the untraced batches, the ops attempted, the ops that
    failed, the ops whose value disagreed with the reference, and the
    inputs with at least one failed op."""
    docs = [p["doc"] for p in procs if p["doc"] is not None]
    cold = {o["i"]: o for o in fill or []}
    for d in docs:
        for o in d["ops"]:
            c = cold.get(o["i"])
            if c is None:
                continue
            if c["image_bytes"] > 0:
                if not o["hit"]:
                    raise CheckFailed("input %d missed its cached image" % o["i"])
                if o["md5"] != c["md5"]:
                    raise CheckFailed("input %d: warm image differs from its cold image" % o["i"])
            same = all(o[k] == c[k] for k in ("kind", "text", "cycles", "code_words", "md5"))
            if o["agree"] and c["agree"] and not same:
                raise CheckFailed("input %d: warm run differs from its cold run" % o["i"])
    # every run of an input, traced or not, failed or not, ends the same way
    keys = ["kind", "text", "agree", "cycles", "instructions", "code_words", "md5", "hit"]
    base = {}
    for p in procs:
        for o in (p["doc"] or {"ops": []})["ops"]:
            b = base.setdefault(o["i"], o)
            for k in keys:
                if o[k] != b[k]:
                    raise CheckFailed("input %d: %s differs between two runs of it%s: %r vs %r"
                                      % (o["i"], k, " (traced vs untraced)" if p["traced"] else "",
                                         b[k], o[k]))
    if workload == "sim_kernels":
        died = [p["why"] for p in procs if p["doc"] is None]
        if died:
            raise CheckFailed("a kernel process did not finish: " + died[0])
        rows = load("BENCH_RESULTS.json")["rows"]
        want = {}
        for idx, (exp, name) in enumerate(docs[0]["kernel_rows"]):
            match = [r for r in rows if r["name"] == name and r["experiment"].startswith(exp + ":")]
            if len(match) != 1:
                raise CheckFailed("no unique BENCH_RESULTS.json row %s %s" % (exp, name))
            want[idx] = (match[0]["cycles"], match[0]["instructions"], match[0]["result"])
        for d in docs:
            for o in d["ops"]:
                got = (o["cycles"], o["instructions"], o["text"])
                if got != want[o["i"]]:
                    raise CheckFailed("kernel call %d (%s): %r, BENCH_RESULTS.json row says %r"
                                      % (o["i"], o["kind"], got, want[o["i"]]))
    attempted = failed = wrong = 0
    bad = set()
    for p in procs:
        if p["traced"]:
            continue
        if p["doc"] is None:
            attempted += len(p["inputs"])
            failed += len(p["inputs"])
            bad.update(p["inputs"])
            continue
        for o in p["doc"]["ops"]:
            attempted += 1
            if not o["agree"]:
                failed += 1
                wrong += o["kind"] == "value"
                bad.add(o["i"])
    return attempted, failed, wrong, bad


def one_pass_totals(workload, fill, procs):
    """Exact totals over one pass of the inputs (every program of the
    pool, or every kernel, once).  warm_batch takes them from the fill,
    which covers every input, so that a batch that dies does not change
    them; the others from the runs of each input that succeeded.  An input
    that never succeeds counts zero, and shows in ok_frac."""
    cycles, words = {}, {}
    docs = [p["doc"] for p in procs if p["doc"] is not None]
    ops = fill if fill is not None else [o for d in docs for o in d["ops"]]
    for o in ops:
        if o["agree"]:
            cycles[o["i"]] = o["cycles"]
            words[o["i"]] = o["code_words"]
    if workload == "sim_kernels":
        return sum(cycles.values()), sum(docs[0]["kernel_code_words"]) if docs else 0
    return sum(cycles.values()), sum(words.values())


def unit_latencies(docs):
    """Per-op latency samples in ms, of completed ops."""
    return [o["ns"] / 1e6 for d in docs for o in d["ops"]]


def end_to_end(workload, inputs, fill_s, fill, procs, attempted, failed, bad):
    docs = live(procs, False)
    if not docs:
        raise CheckFailed("every batch process died: " + procs[0]["why"])
    lat = unit_latencies(docs)
    units = sum(len(d["ops"]) for d in docs)
    wall = sum(d["timed_ns"] for d in docs) / 1e9
    cycles, words = one_pass_totals(workload, fill, procs)
    setups = [d["setup_s"] for d in docs]
    return [
        ("setup_s", fill_s + median(setups), "s", "median of %d processes; times scaled by"
         " host speed x%.3f" % (len(setups), median([d["scale"] for d in docs]))),
        ("unit_ms_p50", median(lat), "ms", "n=%d" % len(lat)),
        ("unit_ms_p90", quantile(lat, 0.9), "ms", "n=%d" % len(lat)),
        ("units_per_s", units / wall, "1/s", "%d units in %.2f s" % (units, wall)),
        ("peak_rss_mb", median([d["vmhwm_kb"] / 1024.0 for d in docs]), "MB",
         "median of processes"),
        ("ok_frac", (inputs - len(bad)) / inputs, "ratio",
         "%d of %d inputs failed (%d of %d ops)" % (len(bad), inputs, failed, attempted)),
        ("sim_cycles", float(cycles), "cycles", "one pass over the inputs"),
        ("code_words", float(words), "words", "one pass over the inputs"),
    ]


def per_layer(workload, procs):
    untraced, traced = live(procs, False), live(procs, True)
    if not traced or not untraced:
        raise CheckFailed("no traced and untraced pair of batches completed")
    ops = [o for d in traced for o in d["ops"]]
    probe = [p for d in traced for p in d["probe"]]

    # A layer's samples: every traced op that went through it, plus the
    # probe that sends a few of the workload's inputs down the path the
    # workload itself does not take.
    def samples(name):
        return [o["layers"][name] for o in ops if name in o["layers"]] + \
            [p[name] for p in probe if name in p]

    out = []
    for name in SELF_LAYERS:
        xs = samples(name)
        out.append((name, median(xs), "ms", "n=%d" % len(xs)))
    for name, unit in OTHER_LAYERS:
        xs = samples(name)
        out.append((name, median(xs), unit, "n=%d" % len(xs)))
    # the probe's lookups are arranged to hit or miss: the ratio is the
    # workload's own, unless its ops make no lookups (sim_kernels' set-up)
    hits = [o["layers"]["serve.hit"] for o in ops if "serve.hit" in o["layers"]] or \
        [p["serve.hit"] for p in probe if "serve.hit" in p]
    out.append(("serve.hit_ratio", sum(hits) / len(hits) if hits else 0.0, "ratio",
                "n=%d" % len(hits)))
    out.append(("runtime.live_heap_mb", median([d["live_heap_mb"] for d in traced]), "MB",
                "after a full major GC"))
    out.append(("obs.counters_live", median([float(d["counters_live"]) for d in traced]),
                "count", "registry size at end of batch"))
    sums = [sum(o["layers"].get(n, 0.0) for n in SELF_LAYERS) for o in ops]
    untraced_p50 = median(unit_latencies(untraced))
    out.append(("unattributed_ms", untraced_p50 - median(sums), "ms",
                "untraced p50 %.4f minus median layer sum" % untraced_p50))

    def per_op_wall(docs):
        return sum(d["timed_ns"] for d in docs) / 1e6 / sum(len(d["ops"]) for d in docs)

    out.append(("trace.overhead_ms", per_op_wall(traced) - per_op_wall(untraced), "ms",
                "traced minus untraced wall per op"))
    return out


def report(workload, rows, title):
    print("%s: %s" % (workload, title))
    for name, value, unit, note in rows:
        print("  %-24s %14.4f %-7s %s" % (name, value, unit, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    status = 0
    for workload in WORKLOADS if a.workload == "all" else [a.workload]:
        work = os.path.join(WORK, "%s-%d-%d" % (workload, a.seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            inputs, fill_s, fill, procs = run_workload(workload, a.seed, a.seconds, a.trace == 1,
                                                       work)
            for p in procs:
                if p["why"] is not None:
                    print("perfbench: a %s batch process failed all %d of its ops: %s"
                          % ("traced" if p["traced"] else "untraced", len(p["inputs"]), p["why"]))
            attempted, failed, wrong, bad = check(workload, fill, procs)
            e2e = end_to_end(workload, inputs, fill_s, fill, procs, attempted, failed, bad)
            report(workload, e2e, "end-to-end (untraced batches)")
            rows = e2e
            if a.trace == 1:
                rows = per_layer(workload, procs)
                report(workload, rows, "per layer (traced batches; medians per op)")
            if wrong:
                print("perfbench: %d ops returned a value that disagrees with the reference"
                      % wrong)
                status = 1
            result = {"correct": wrong == 0, "attempted": inputs, "failed": len(bad),
                      "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows}}
        except CheckFailed as e:
            print("perfbench: " + str(e))
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            status = 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(result), flush=True)
    shutil.rmtree(os.environ["TMPDIR"], ignore_errors=True)
    if not os.listdir(WORK):
        os.rmdir(WORK)
    sys.exit(status)


if __name__ == "__main__":
    main()
