#!/usr/bin/env python3
"""End-to-end benchmark of cprisk: builds the program from source, runs one
workload for --seconds, checks every timed operation and prints one JSON
result line. See README.md in this directory.

    python3 e2ebench/run.py --workload bundles-cold --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); temporary files go to a work directory inside it
and are removed at exit.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

REAL_BUNDLES = [
    ("examples/models/watertank.cpm", "expected/watertank.json"),
    ("examples/models/reactor.cpm", "expected/reactor.json"),
]

# name -> (input kind, harness arguments, set-up repetitions, tail quantile).
# The tail quantile is the highest 5% step that leaves at least ten latency
# samples beyond it in a run: p95 with ~430 samples (bundles-cold), p75 with
# ~41 (generated-search), p60 with ~26 (generated-frontier). serve-warm is
# the exception: its p95 rose by half under host load while its p50 held,
# so it takes p80 of its ~2,000 samples (see README.md, Steadiness).
WORKLOADS = {
    "bundles-cold": ("real", ["assess", "--jobs", "1", "--warmup"], 21, 0.95),
    "serve-warm": ("real", ["serve"], 15, 0.80),
    "generated-search": ("search", ["assess", "--jobs", "4", "--warmup", "--journal",
                                    "search.journal"], 5, 0.75),
    "generated-frontier": ("frontier", ["assess", "--jobs", "4", "--warmup", "--exhaustive",
                                        "--max-card", str(gen.FRONTIER_MAX_CARD)], 5, 0.60),
}
THROUGHPUT_BINS = 10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness and the cprisk CLI."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no cprisk sources under %s" % ROOT)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "e2e_harness", "cprisk"],
                   check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(build_dir, "e2e_harness"), os.path.join(build_dir, "cprisk_tools", "cprisk")


def prepare_inputs(kind, seed, setups, work):
    """Writes the workload's bundles and expectations; returns the harness
    arguments and the median generation time (part of set-up)."""
    if kind == "real":
        args = []
        for bundle, expected in REAL_BUNDLES:
            args += ["--bundle", os.path.join(ROOT, bundle),
                     "--expect", os.path.join(HERE, expected)]
        return args, 0.0, True
    times, texts = [], set()
    for _ in range(setups):
        start = time.perf_counter()
        texts.add(gen.generate(kind, seed))
        times.append(time.perf_counter() - start)
    text, expected = gen.generate_with_oracle(kind, seed)
    deterministic = texts == {text}
    bundle = os.path.join(work, "%s-%d.cpm" % (kind, seed))
    expect = os.path.join(work, "%s-%d.expected.json" % (kind, seed))
    with open(bundle, "w") as f:
        f.write(text)
    with open(expect, "w") as f:
        json.dump(expected, f)
    return ["--bundle", bundle, "--expect", expect], statistics.median(times), deterministic


def run_harness(argv, work, timeout):
    """Runs the harness as the leader of a new process group, so any process
    it leaves behind (a daemon after a crash) can be killed with it."""
    proc = subprocess.Popen(argv, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if err.strip():
        log(err.strip())
    if proc.returncode != 0:
        raise RuntimeError("harness exited with %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def rounds(raw, inputs):
    """Latency samples as (end of the round in the window, ms): one per round
    of `inputs` back-to-back operations of a stream (one per bundle of the
    mix), valued at the round's mean latency, infinite when any operation of
    the round failed. With one input a round is one operation."""
    samples = []
    for stream in raw["streams"]:
        for i in range(0, len(stream) - inputs + 1, inputs):
            chunk = [ms for _, ms in stream[i:i + inputs]]
            ms = math.inf if min(chunk) < 0 else sum(chunk) / inputs
            samples.append((stream[i + inputs - 1][0], ms))
    return samples


def slice_count(n, q):
    return max(1, min(THROUGHPUT_BINS, int(n * (1 - q) / 10)))


def sliced_quantile(raw, samples, q):
    """Median over equal slices of the window of each slice's q-quantile
    (nearest rank) of the latency samples that end in it. The window is cut
    into as many slices, at most THROUGHPUT_BINS, as leave each slice ten
    samples beyond q on average, so a run with few samples is one slice and
    gets the plain quantile. As for the throughput, a burst of host
    contention that covers less than half the slices does not move it."""
    slices = slice_count(len(samples), q)
    width = raw["window_s"] / slices
    per_slice = [[] for _ in range(slices)]
    for end, ms in samples:
        per_slice[min(slices - 1, int(end / width))].append(ms)
    return statistics.median(nearest_rank(sorted(s), q) for s in per_slice if s)


def binned_throughput(raw):
    """Median over THROUGHPUT_BINS equal slices of the window of the correct
    operations completed per second in each slice. An operation counts in
    each slice in proportion to the part of its run time that falls there,
    so slices stay smooth when operations are long. The median keeps a burst
    of host contention in a few slices from moving the run's figure."""
    width = raw["window_s"] / THROUGHPUT_BINS
    done = [0.0] * THROUGHPUT_BINS
    for stream in raw["streams"]:
        for end, ms in stream:
            if ms <= 0:
                continue
            start = end - ms / 1000.0
            for b in range(THROUGHPUT_BINS):
                overlap = min(end, (b + 1) * width) - max(start, b * width)
                if overlap > 0:
                    done[b] += overlap / (ms / 1000.0)
    return statistics.median(d / width for d in done)


def end_to_end(raw, inputs, tail, gen_s):
    lat = rounds(raw, inputs)
    return {
        "throughput_per_s": binned_throughput(raw),
        "latency_p50_ms": sliced_quantile(raw, lat, 0.5),
        "latency_tail_ms": sliced_quantile(raw, lat, tail),
        "ok_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
        "setup_s": statistics.median(raw["setup_s"]) + gen_s,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def _largest(layers, names):
    """True when the summed self time of `names` exceeds every other layer's."""
    times = {k: v for k, v in layers.items()
             if k.endswith("_ms") and k not in ("core.op_ms", "serve.wait_ms")}
    ours = sum(times.get(n, 0.0) for n in names)
    return all(ours > v for k, v in times.items() if k not in names)


# What each workload was chosen to stress, checked on every traced run:
# (description, predicate over the per-layer values).
STRESS = {
    "bundles-cold": [
        ("asp.ground_ms + epa.create_self_ms is the largest self time",
         lambda m: _largest(m, ["asp.ground_ms", "epa.create_self_ms"])),
        ("asp.solve.calls is 0", lambda m: m["asp.solve.calls"] == 0),
    ],
    "serve-warm": [
        ("no grounding inside the timed window", lambda m: m["asp.ground.calls"] == 0),
        ("asp.solve.calls is 0", lambda m: m["asp.solve.calls"] == 0),
    ],
    "generated-search": [
        ("asp.solve_ms is the largest self time", lambda m: _largest(m, ["asp.solve_ms"])),
    ],
    "generated-frontier": [
        ("epa.prefilter_ms is the largest self time", lambda m: _largest(m, ["epa.prefilter_ms"])),
        ("epa.frontier.pruning_ratio > 1", lambda m: m["epa.frontier.pruning_ratio"] > 1),
    ],
}


def main():
    parser = argparse.ArgumentParser(description="cprisk end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        harness, cprisk = build(build_dir)
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    started = time.monotonic()  # a run gets RUN_TIMEOUT_S after the build
    kind, harness_args, setups, tail = WORKLOADS[args.workload]
    work = os.path.join(build_dir, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        inputs, gen_s, deterministic = prepare_inputs(kind, args.seed, setups, work)
        argv = [harness] + harness_args + inputs + [
            "--seconds", str(args.seconds), "--setups", str(setups),
            "--trace", str(args.trace)]
        if harness_args[0] == "serve":
            argv += ["--cprisk", cprisk]
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        raw = run_harness(argv, work, remaining)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, IndexError) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = raw["attempted"], raw["failed"]
    for problem in raw["problems"]:
        log("check failed: %s" % problem)
    if not deterministic:
        log("check failed: the generator gave different bytes for one seed")
        attempted, failed = attempted + 1, failed + 1

    spec = load_spec()
    if args.trace:
        layers = raw["layers"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print("# %s traced: %d traced ops; unmapped spans: %s" % (
            args.workload, raw["traced_ops"], ", ".join(raw["unmapped_spans"]) or "none"))
        values = {name: metric["value"] for name, metric in metrics.items()}
        for what, holds in STRESS[args.workload]:
            print("# stress check: %s: %s" % (what, "holds" if holds(values) else "DIFFERS"))
    else:
        inputs = len(REAL_BUNDLES) if kind == "real" else 1
        values = end_to_end(raw, inputs, tail, gen_s)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        n = len(rounds(raw, inputs))
        print("# %s: %d operations, %d latency samples in %.1f s; p50 over %d slices; "
              "tail = p%d over %d slices, %d samples beyond it"
              % (args.workload, raw["attempted"], n, raw["window_s"], slice_count(n, 0.5),
                 round(tail * 100), slice_count(n, tail), n - math.ceil(tail * n)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
