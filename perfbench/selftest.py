#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [--quick]

1. Builds and runs perfbench_tests: every output check must accept a
   well-formed result and reject a deliberately corrupted one.
2. Reads BENCHMARK.json and checks that the driver's metric list
   (perfbench --list-metrics) declares exactly the same names, units and
   directions, and the same workloads.
3. Unless --quick: runs the driver once per mode on a short workload and
   checks that every metric it prints is declared in BENCHMARK.json with
   the printed unit, and that the result line has the contract's shape.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark entry point: build helpers)

ROOT = run.ROOT


def fail(msg):
    print(f"selftest: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def check_result_line(line, expect, mode):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{mode}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{mode}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    if set(res["metrics"]) != set(expect):
        fail(f"{mode}: printed {sorted(set(res['metrics']) ^ set(expect))} not as declared")
    for name, m in res["metrics"].items():
        if m["unit"] != expect[name]["unit"]:
            fail(f"{mode}: {name} printed in {m['unit']}, declared {expect[name]['unit']}")
        if not isinstance(m["value"], (int, float)):
            fail(f"{mode}: {name} value {m['value']!r}")


def main(argv):
    out = run.build_dir()
    run.build(out)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_tests", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    if subprocess.run([str(out / "perfbench_tests")]).returncode != 0:
        fail("perfbench_tests")

    spec, decl = declared()
    listed = json.loads(subprocess.run([str(out / "perfbench"), "--list-metrics"],
                                       check=True, capture_output=True, text=True).stdout)
    for kind in ("end_to_end", "per_layer"):
        got = {m["name"]: m for m in listed[kind]}
        if set(got) != set(decl[kind]):
            fail(f"{kind}: driver and BENCHMARK.json differ on {sorted(set(got) ^ set(decl[kind]))}")
        for name, m in got.items():
            for key in ("unit", "better"):
                if m[key] != decl[kind][name][key]:
                    fail(f"{name}: driver {key} {m[key]!r}, BENCHMARK.json {decl[kind][name][key]!r}")
    if listed["workloads"] != [w["name"] for w in spec["workloads"]]:
        fail(f"workloads: driver {listed['workloads']}")
    print("selftest: BENCHMARK.json declares every metric the driver prints")

    if "--quick" not in argv:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "el_sharded",
                 "--seed", "3", "--seconds", "1", "--trace", trace],
                capture_output=True, text=True)
            if proc.returncode != 0:
                fail(f"--trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            check_result_line(proc.stdout.strip().splitlines()[-1], decl[kind], f"--trace {trace}")
        print("selftest: both modes print the declared metrics with their units")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
