#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <signal_loop|turn_loop|fleet|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package
(`perfbench/Cargo.toml`, release profile, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), stamps the source revision into the environment
and runs the binary, whose last stdout line is the JSON result.

`--workload all` runs the three workloads one after another with the same
seed, prints every metric by name and unit, and exits non-zero if any
workload's output checks failed.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["signal_loop", "turn_loop", "fleet"]
# Sources whose content defines the measured program.
SOURCE_DIRS = ["crates", "shims", "perfbench/src"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/build.rs"]


def git(*args):
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else None


def source_revision():
    """Git commit (marked dirty when the tree has changes) when the checkout
    has one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = git("rev-parse", "HEAD")
        if commit is not None:
            return commit + ("-dirty" if git("status", "--porcelain") else "")
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "nogit-src-" + digest.hexdigest()[:16]


def build(env):
    """Build the benchmark; return the binary path, or None on failure."""
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if result.returncode != 0:
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "cil-perfbench")


def run_all(exe, args, env):
    """Run every workload; print a metric table; exit 1 on a failed check."""
    ok = True
    rows = []
    for workload in WORKLOADS:
        cmd = [exe, "--workload", workload] + args
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if out.returncode != 0 or result is None or not result["correct"]:
            ok = False
            print(f"{workload}: FAILED (exit {out.returncode})")
            continue
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
    print()
    print(f"{'workload':12s} {'metric':40s} {'value':>16s}  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:12s} {name:40s} {value:16.6g}  {unit}")
    return 0 if ok else 1


def main(argv):
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    exe = build(env)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    env["PERFBENCH_COMMIT"] = source_revision()
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            return run_all(exe, argv[:i] + argv[i + 2 :], env)
    return subprocess.run([exe] + argv, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
