#!/usr/bin/env python3
"""Build and run the durable-epoch benchmark.

    python3 epoch_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It builds `epoch_bench` (release,
default features) with cargo into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs it with every environment variable the program reads
removed, and prints a context line and then the result object, which is the
last line of standard output.  Build output and progress go to standard
error.  The exit status is the benchmark's: 0 only if every call succeeded
and every output check held.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Variables that change what the program or its build does.
UNSET = ("NS_WAL_GROUP_COMMIT", "NS_SNAPSHOT_EVERY", "RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS")
UNSET_PREFIXES = ("NS_OBS", "CARGO_PROFILE_")

# A run must end within this many seconds once built.
RUN_TIMEOUT_S = 175


def clean_env():
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in UNSET and not k.startswith(UNSET_PREFIXES)
    }
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    return env


def git_rev():
    # Only the checkout's own history: never a repository found above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names its
    code even where there is no git history."""
    h = hashlib.sha256()
    for top in ("crates", "shims", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # For the benchmark's own tests: a smaller population and injected faults.
    ap.add_argument("--n", type=int)
    ap.add_argument("--fault", choices=("none", "digest", "call"), default="none")
    args = ap.parse_args()

    env = clean_env()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(ROOT, ".bench_runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [
        os.path.join(env["CARGO_TARGET_DIR"], "release", "epoch_bench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--dir", run_dir, "--fault", args.fault,
    ]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        print(f"run.py: epoch_bench exited {proc.returncode} without a result", file=sys.stderr)
        return proc.returncode or 1
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    result["attempted"] += 1
    if got != want:
        print(f"run.py: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}",
              file=sys.stderr)
        result["failed"] += 1
        result["correct"] = False
    if "ops_failed_frac" in result["metrics"]:
        # The check above is one more call.
        result["metrics"]["ops_failed_frac"]["value"] = result["failed"] / result["attempted"]

    context.update(
        git_rev=git_rev(),
        source_digest=source_digest(),
        nproc=os.cpu_count(),
        cpus_allowed=len(os.sched_getaffinity(0)),
        features="default",
        threads=1,
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return proc.returncode if result["correct"] else max(proc.returncode, 1)


if __name__ == "__main__":
    sys.exit(main())
