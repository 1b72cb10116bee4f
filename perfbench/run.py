#!/usr/bin/env python3
"""Build the mdh-rs serving benchmark from source and run it.

    python3 perfbench/run.py --workload dot_pipe --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. The benchmark binary is built with cargo
into $CARGO_TARGET_DIR (default `.bench_build`); run-time files (the
server socket and log, trace spans) go to `.bench_run`. For one workload
the last line of standard output is the JSON result; `all` runs every
workload in turn and ends with a table of their end-to-end metrics. See
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["dot_pipe", "dense_kernels", "cold_mix", "grad_devices"]
# a run must end within 180 s; the build before the first run has its own
RUN_TIMEOUT_S = 170


def run_one(exe, workload, args, env):
    """Run one workload; returns (exit code, result line or None)."""
    cmd = [str(exe), "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", ".bench_run"]
    # its own process group, so a timeout or a termination signal also
    # stops the server it spawned
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if proc.returncode in (0, 1) and lines else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = target / "release" / "mdh-perfbench"

    if args.workload != "all":
        return run_one(exe, args.workload, args, env)[0]
    worst, rows = 0, []
    for w in WORKLOADS:
        code, line = run_one(exe, w, args, env)
        worst = max(worst, code)
        rows.append((w, code, json.loads(line) if line else None))
    print("== all workloads (see each report above for labels and notes)")
    for w, code, r in rows:
        if r is None:
            print(f"  {w:<14} run failed (exit {code})")
            continue
        metrics = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"  {w:<14} correct={str(r['correct']).lower()} failed={r['failed']}/{r['attempted']}  {metrics}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
