#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the driver from source (CMake, Release) under
.bench_build/perfbench in the checkout (or under $CARGO_TARGET_DIR/perfbench
when that is set), then runs the driver. The driver's last stdout line is
the JSON result. Exits non-zero, printing no result, when the build or the
run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base_path = Path(base)
    if not base_path.is_absolute():
        base_path = ROOT / base_path
    return base_path / "perfbench"


def build(out: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def main(argv):
    out = build_dir()
    try:
        exe = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), *argv, "--root", str(ROOT), "--out-dir", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"perfbench: driver exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
