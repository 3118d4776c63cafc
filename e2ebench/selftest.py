#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root:

    python3 e2ebench/selftest.py

They check that
* the same seed yields identical bundle bytes, and another seed other bytes;
* the planted-hazard oracle agrees with cprisk (the CLI, not the harness) on
  small instances of each shape and on one full-size instance;
* the harness's correctness check rejects a deliberately wrong expected
  verdict, in process and through the daemon;
* every workload runs correctly through run.py and reports exactly the
  metrics BENCHMARK.json lists, untraced and traced;
* every metric and workload name, unit and count in BENCHMARK.json stays
  within the benchmark contract.
Builds like run.py does (into $CARGO_TARGET_DIR, default .bench_build).
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def test_determinism():
    for shape in gen.SHAPES:
        a, b, c = gen.generate(shape, 11), gen.generate(shape, 11), gen.generate(shape, 12)
        expect(a == b, "%s: seed 11 twice gives identical bytes" % shape)
        expect(a != c, "%s: seeds 11 and 12 give different bundles" % shape)


def cprisk_verdicts(cprisk, bundle_path, expected, work):
    """Runs the CLI on a bundle and returns its verdicts in oracle form."""
    out = os.path.join(work, "report.json")
    argv = [cprisk, "assess", bundle_path, "--json", out]
    if expected["mode"] == "exhaustive":
        argv += ["--exhaustive", "--max-card", str(expected["max_card"]), "--jobs", "4"]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
    with open(out) as f:
        report = json.load(f)
    got = {"mode": expected["mode"],
           "hazards": {r["scenario_id"]: sorted(r["violated"]) for r in report["risks"]}}
    if expected["mode"] == "cegar":
        got["scenarios"] = report["system"]["scenarios"]
        got["topology_candidates"] = report["cegar"][0]["hazards_out"]
        got["spurious"] = report["cegar"][1]["spurious_eliminated"]
    else:
        got["max_card"] = report["exhaustive"]["max_card"]
        got["candidates"] = report["exhaustive"]["candidates"]
        got["certificate"] = report["exhaustive"]["certificate"]
    return got


def test_oracle(cprisk, work):
    cases = [("search", 3, {"cells": 3, "gadgets": 1}),
             ("search", 4, {"cells": 4, "gadgets": 2}),
             ("frontier", 3, {"units": 3, "relief": 2, "hot": 1}),
             ("frontier", 4, {"units": 4, "relief": 3, "hot": 1}),
             ("search", 5, {}),
             ("frontier", 5, {})]
    for shape, seed, size in cases:
        text, expected = gen.generate_with_oracle(shape, seed, **size)
        path = os.path.join(work, "oracle.cpm")
        with open(path, "w") as f:
            f.write(text)
        got = cprisk_verdicts(cprisk, path, expected, work)
        expect(got == expected, "oracle agrees with cprisk: %s seed %d %s (%d hazards)" % (
            shape, seed, size or "full size", len(expected["hazards"])))


def harness_run(harness, argv, work):
    """The harness's result, or None when it refuses to run (exit code 2)."""
    try:
        return run.run_harness([harness] + argv, work, 120)
    except RuntimeError:
        return None


def wrong_expectations(expected):
    """Yields (description, corrupted copy) for one expected-verdict file."""
    hazard = sorted(expected["hazards"])[0]
    flipped = copy.deepcopy(expected)
    flipped["hazards"][hazard] = flipped["hazards"][hazard] + ["no_such_requirement"]
    yield "a hazard with one extra violated requirement", flipped
    missing = copy.deepcopy(expected)
    del missing["hazards"][hazard]
    yield "a hazard left out", missing
    if "spurious" in expected:
        spurious = copy.deepcopy(expected)
        spurious["spurious"] += 1
        yield "a wrong spurious count", spurious


def test_check_rejects(harness, cprisk, work):
    bundle = os.path.join(run.ROOT, run.REAL_BUNDLES[0][0])
    with open(os.path.join(HERE, run.REAL_BUNDLES[0][1])) as f:
        expected = json.load(f)
    good = os.path.join(work, "good.json")
    with open(good, "w") as f:
        json.dump(expected, f)
    base = ["--seconds", "0.3", "--setups", "1", "--trace", "0"]
    result = harness_run(harness, ["assess", "--bundle", bundle, "--expect", good] + base, work)
    expect(result is not None and result["failed"] == 0 and result["attempted"] > 0,
           "harness accepts the transcribed expectations")
    for what, wrong in wrong_expectations(expected):
        path = os.path.join(work, "wrong.json")
        with open(path, "w") as f:
            json.dump(wrong, f)
        result = harness_run(harness, ["assess", "--bundle", bundle, "--expect", path] + base, work)
        expect(result is not None and result["attempted"] > 0
               and result["failed"] == result["attempted"],
               "in-process check rejects %s" % what)
    # Through the daemon the warm-up already checks every reply: the harness
    # must refuse to start the window.
    _, flipped = next(wrong_expectations(expected))
    path = os.path.join(work, "wrong.json")
    with open(path, "w") as f:
        json.dump(flipped, f)
    result = harness_run(harness, ["serve", "--cprisk", cprisk, "--bundle", bundle,
                                 "--expect", path] + base, work)
    expect(result is None, "serve check rejects a wrong verdict")
    text, oracle = gen.generate_with_oracle("frontier", 3, units=3, relief=2, hot=1)
    bundle = os.path.join(work, "generated.cpm")
    with open(bundle, "w") as f:
        f.write(text)
    for what, wrong in wrong_expectations(oracle):
        with open(path, "w") as f:
            json.dump(wrong, f)
        result = harness_run(harness, ["assess", "--bundle", bundle, "--expect", path,
                                     "--exhaustive", "--max-card", str(oracle["max_card"])]
                            + base, work)
        expect(result is not None and result["attempted"] > 0
               and result["failed"] == result["attempted"],
               "check rejects a generated oracle with %s" % what)


def test_run_smoke():
    """One short run of every workload, untraced and traced, through run.py:
    correct, and exactly the metrics BENCHMARK.json lists."""
    spec = run.load_spec()
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                   workload, "--seed", "1", "--seconds", "1", "--trace",
                                   str(trace)], capture_output=True, text=True, timeout=170)
            ok = proc.returncode == 0
            if ok:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = (result["correct"] and result["failed"] == 0
                      and set(result["metrics"]) == {m["name"] for m in spec[kind]})
            expect(ok, "%s --trace %d: correct, reports every %s metric" % (
                workload, trace, kind))


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_spec_limits():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        raw = f.read()
    spec = json.loads(raw)
    expect(len(raw.encode()) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    expect(1 <= len(spec["command"]) <= 32
           and all(len(a) <= 200 and not a.startswith("/") and ".." not in a
                   for a in spec["command"]), "command is within limits")
    expect(1 <= len(spec["paths"]) <= 16
           and all(PATH.match(p) and ".." not in p for p in spec["paths"]), "paths are valid")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds is a whole number from 1 to 60")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    expect(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    bad = [w.get("name") for w in spec["workloads"]
           if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200
           or "\n" in w["why"] or w["name"] not in run.WORKLOADS]
    expect(not bad, "every workload is well-formed and implemented %s" % (bad or ""))
    bad = [m.get("name") for m in spec["end_to_end"]
           if set(m) != {"name", "unit", "better", "bound"} or not NAME.match(m["name"])
           or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher")
           or not 0 < m["bound"] <= 0.25]
    expect(not bad, "every end-to-end metric is well-formed %s" % (bad or ""))
    bad = [m.get("name") for m in spec["per_layer"]
           if set(m) != {"name", "unit", "better"} or not NAME.match(m["name"])
           or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher")]
    expect(not bad, "every per-layer metric is well-formed %s" % (bad or ""))
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    expect(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present, in seconds, lower is better, with the largest bound")


def main():
    test_determinism()
    test_spec_limits()
    build_dir = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    harness, cprisk = run.build(build_dir)
    work = tempfile.mkdtemp(prefix="selftest-", dir=build_dir)
    try:
        test_oracle(cprisk, work)
        test_check_rejects(harness, cprisk, work)
        test_run_smoke()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
