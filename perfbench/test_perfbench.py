"""The benchmark's own tests; run them with

    python3 perfbench/run.py --self-test

from the repository root.  They check that the request generator is
deterministic, that every emitted metric name is well formed and declared
in BENCHMARK.json, that a tiny run of each workload in each mode prints
exactly its declared metrics, and that the bitwise gates fail when their
references are perturbed (--corrupt).
"""

import json
import math
import re
import subprocess

WORKLOADS = ["serve_scalar", "serve_vector", "dense"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(exe, *args, timeout=170):
    r = subprocess.run([exe, *args], capture_output=True, text=True, timeout=timeout, check=False)
    return r.returncode, r.stdout.strip().splitlines(), r.stderr


def declared():
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def test_generator_determinism(exe):
    for w in WORKLOADS:
        sizes = [["--tiny"], []] if w != "dense" else [["--tiny"]]
        for size in sizes:
            a = run(exe, "digest", "--workload", w, "--seed", "5", *size)
            b = run(exe, "digest", "--workload", w, "--seed", "5", *size)
            c = run(exe, "digest", "--workload", w, "--seed", "6", *size)
            assert a[0] == 0 and a[1], f"{w}: digest failed: {a[2]}"
            assert a[1] == b[1], f"{w} {size}: same seed, different frames"
            assert a[1] != c[1], f"{w} {size}: different seeds, same frames"


def test_metric_names(exe):
    code, lines, err = run(exe, "declare")
    assert code == 0, err
    e2e, layer = declared()
    emitted = {"end_to_end": {}, "per_layer": {}}
    for line in lines:
        kind, name, unit = line.split()
        assert NAME.match(name), f"bad metric name {name!r}"
        emitted[kind][name] = unit
    assert emitted["end_to_end"] == e2e, "end-to-end metrics differ from BENCHMARK.json"
    assert emitted["per_layer"] == layer, "per-layer metrics differ from BENCHMARK.json"


def result(lines):
    d = json.loads(lines[-1])
    assert set(d) == {"correct", "attempted", "failed", "metrics"}, d.keys()
    return d


def test_smoke_runs(exe):
    e2e, layer = declared()
    for w in WORKLOADS:
        for trace, want in (("0", e2e), ("1", layer)):
            code, lines, err = run(exe, "--workload", w, "--seed", "3", "--seconds", "1",
                                   "--trace", trace, "--tiny")
            assert code == 0, f"{w} trace {trace}: exit {code}\n{err}"
            host = json.loads(lines[0])["perfbench"]["host"]
            assert {"nproc", "ocaml", "flambda", "commit"} <= set(host)
            d = result(lines)
            assert d["correct"] and d["failed"] == 0 and d["attempted"] >= 1, d
            got = {k: v["unit"] for k, v in d["metrics"].items()}
            assert got == want, f"{w} trace {trace}: metrics differ from the declared set"
            for k, v in d["metrics"].items():
                assert math.isfinite(v["value"]), f"{w}: {k} not finite"
                if trace == "0":
                    assert v["value"] > 0, f"{w}: end-to-end {k} is 0"


def test_gates_catch_mismatches(exe):
    for w in WORKLOADS:
        code, lines, err = run(exe, "--workload", w, "--seed", "3", "--seconds", "1",
                               "--trace", "0", "--tiny", "--corrupt")
        d = result(lines)
        assert code == 1 and not d["correct"] and d["failed"] > 0, f"{w}: gate missed: {d}"


TESTS = [test_generator_determinism, test_metric_names, test_smoke_runs,
         test_gates_catch_mismatches]


def main(exe):
    failures = 0
    for t in TESTS:
        try:
            t(exe)
            print(f"PASS {t.__name__}")
        except Exception as e:  # report every test, then fail
            failures += 1
            print(f"FAIL {t.__name__}: {e}")
    return 1 if failures else 0
