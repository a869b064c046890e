#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source with CMake into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`, relative to
the repository root), runs one workload, and prints the binary's report. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.

The simulated outcome of a (workload, seed) pair is a pure function of the
program. Its digest is remembered per binary in the build directory, so a
later run of the same seed, traced or not, that produces another outcome is
reported as incorrect.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("ingest", "serve_hot", "serve_cold", "query_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

_child = None


def _stop_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(1)


def run(cmd, timeout, capture, env=None):
    """Runs `cmd` in its own process group; kills the whole group on timeout."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True, text=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    code = _child.returncode
    _child = None
    return code, out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(directory, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", BENCH_DIR, "-B", directory,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      BUILD_TIMEOUT_S, capture=False, env=env)
        if code != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", directory, "--target", "perfbench",
                   "-j", jobs], BUILD_TIMEOUT_S, capture=False, env=env)
    if code != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(directory, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()


def check_outcome(directory, key, outcome):
    """Remembers the outcome digest of `key`; False when it changed."""
    path = os.path.join(directory, "outcomes.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == outcome
    known[key] = outcome
    fd, tmp = tempfile.mkstemp(dir=directory)
    with os.fdopen(fd, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    directory = build_dir()
    binary = build(directory)
    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--commit", source_id()],
                    RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines:
        sys.stderr.write(out)
        sys.exit(f"perfbench: benchmark binary failed (exit {code})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        sys.exit("perfbench: no result line")
    if list(result["metrics"]) != wanted:
        sys.exit("perfbench: metric set differs from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ set(wanted))}")

    outcome = next((l.split()[1] for l in lines if l.startswith("OUTCOME ")),
                   None)
    key = f"{args.workload}:{args.seed}:{file_digest(binary)}"
    if outcome is None or not check_outcome(directory, key, outcome):
        print(f"CHECK FAILED: outcome {outcome} differs from an earlier run "
              f"of seed {args.seed}")
        result["correct"] = False

    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
