#!/usr/bin/env python3
"""End-to-end benchmark of `fim mine`, with a traced per-layer replay.

Run from the root of the repository:

    python3 e2e_bench/run.py --workload ncbi60-ista --seed 1 --seconds 35 --trace 0

It builds `fim` and the `fim-e2e` helper, generates the workload's input
from the seed, checks the output of `fim mine` byte for byte against a
miner of another family, then runs `fim mine` as a child process, one
invocation at a time (a closed loop with one client), for `--seconds`.
With `--trace 1` it also runs the traced replay, which calls each layer's
public function in the order the CLI calls it and writes the spans as a
`fim-trace/1` file (open it in Perfetto).

Every metric is printed with its unit; the last line of stdout is one JSON
object: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ncbi60-ista", "yeast-ista", "webview-carpenter")
# Fewest timed invocations a run makes, so that wall_s_tail has a
# percentile with ten samples beyond it.
MIN_INVOCATIONS = 11
# The layers the replay spans; their self times sum to the attributed time.
LAYERS = ("parse", "recode", "mine", "decode", "canonicalize", "drop", "write")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"run.py: {msg}")
    sys.exit(1)


def build(target):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        fail(f"no closed-fim workspace at {ROOT} to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "fim-cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(ROOT / "e2e_bench" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def helper(exe, *args):
    """Runs one `fim-e2e` subcommand and returns its JSON answer."""
    done = subprocess.run([str(exe), *map(str, args)], cwd=ROOT, stdout=subprocess.PIPE)
    if done.returncode != 0:
        fail(f"fim-e2e {args[0]} exited with {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def read_proc_io(pid):
    with open(f"/proc/{pid}/io") as f:
        fields = dict(line.split(": ") for line in f.read().splitlines())
    return {k: int(v) for k, v in fields.items()}


def invoke(fim, argv, out, stdout_sink, err):
    """One `fim mine` from spawn to exit, with its counters read from
    outside: /proc/<pid>/io and the rusage of the unreaped child."""
    if out.exists():
        out.unlink()
    sink = str(out) if stdout_sink else os.devnull
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, sink, create, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), create, 0o644),
    ]
    if not stdout_sink:
        argv = [*argv, "--out", str(out)]
    started = time.perf_counter()
    pid = os.posix_spawn(str(fim), [str(fim), *argv], os.environ, file_actions=actions)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - started
    io = read_proc_io(pid)
    _, status, ru = os.wait4(pid, 0)
    return {
        "wall_s": wall,
        "exit": os.waitstatus_to_exitcode(status),
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "sys_s": ru.ru_stime,
        "maxrss_kb": ru.ru_maxrss,
        "minor_faults": ru.ru_minflt,
        "syscr": io["syscr"],
        "syscw": io["syscw"],
        "wchar": io["wchar"],
    }


def output_ok(exe, exit_code, out, digest):
    """Whether an invocation counts as a success: exit 0 and an output
    whose FNV-1a is the gated digest."""
    return exit_code == 0 and out.exists() and helper(exe, "digest", out)["fnv1a"] == digest


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, and its percentile rank."""
    ranked = sorted(values)
    i = len(ranked) - 11
    return ranked[i], 100.0 * i / (len(ranked) - 1)


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--instance", type=int, default=1,
                    help="generator seed of the preset; --seed relabels it")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    build(target)
    fim = target / "release" / "fim"
    exe = target / "release" / "fim-e2e"

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out, err = work / "result.out", work / "stderr.txt"

    info = helper(exe, "prepare", "--workload", args.workload, "--instance",
                  args.instance, "--seed", args.seed, "--dir", work)
    reference = work / "reference.out"
    argv = [*info["args"], "--in", str(work / "input.fimi")]
    log(f"input: {info['transactions']} transactions x {info['items']} items, "
        f"{info['input_bytes']} bytes, fnv1a {info['input_fnv1a']}; "
        f"{info['reference']} reference: {info['sets']} sets, fnv1a {info['reference_fnv1a']}")

    # The gate: one untimed invocation, compared byte for byte.
    gate = invoke(fim, argv, out, info["stdout"], err)
    gate_ok = gate["exit"] == 0 and out.exists() and filecmp.cmp(out, reference, shallow=False)
    digest = info["reference_fnv1a"]
    # The self-test: a doctored output must count as a failure. The
    # reference is no longer needed once its digest is known.
    with open(reference, "r+b") as f:
        f.seek(reference.stat().st_size // 2)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 1]))
    doctored_caught = not output_ok(exe, 0, reference, digest)
    log(f"gate: {'pass' if gate_ok else 'FAIL'}; doctored output "
        f"{'counted as a failure' if doctored_caught else 'NOT caught'}")

    trace = work / "replay.trace.json"
    samples = []
    deadline = time.perf_counter() + args.seconds
    while len(samples) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        s = invoke(fim, argv, out, info["stdout"], err)
        s["ok"] = output_ok(exe, s["exit"], out, digest)
        # one set-up sample per invocation, in a fresh process as fim pays
        # it, so that set-up and wall time sample the same stretch of time
        s["setup_s"] = helper(exe, "setup", "--workload", args.workload,
                              "--input", work / "input.fimi")["setup_s"]
        if args.trace:
            # one traced replay per invocation, so that the layer times
            # and wall_s sample the same stretch of time
            s["replay"] = helper(exe, "replay", "--workload", args.workload, "--input",
                                 work / "input.fimi", "--out", out, "--trace", trace)
            s["replay_ok"] = output_ok(exe, 0, out, digest)
        samples.append(s)
    failed = sum(not s["ok"] for s in samples)
    (work / "samples.json").write_text(json.dumps(samples, indent=1))

    wall = median_of(samples, "wall_s")
    wall_tail, tail_pct = tail([s["wall_s"] for s in samples])
    measured = {
        "wall_s": wall,
        "wall_s_tail": wall_tail,
        "cpu_s": median_of(samples, "cpu_s"),
        "peak_rss_mb": median_of(samples, "maxrss_kb") / 1024.0,
        "sets_per_s": info["sets"] / wall,
        "setup_s": median_of(samples, "setup_s"),
        "error_rate": failed / len(samples),
        "parse.read_syscalls": median_of(samples, "syscr"),
        "write.syscalls": median_of(samples, "syscw"),
        "write.bytes": median_of(samples, "wchar"),
        "process.sys_s": median_of(samples, "sys_s"),
        "process.minor_faults": median_of(samples, "minor_faults"),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_rate"] = "ratio"
    replay_ok = True
    if args.trace:
        for name in samples[0]["replay"]:
            measured[name] = statistics.median(s["replay"][name] for s in samples)
        measured["process.unattributed_s"] = wall - sum(measured[f"{l}.self_s"] for l in LAYERS)
        counters = helper(exe, "counters", "--workload", args.workload,
                          "--input", work / "input.fimi")
        measured.update(counters)
        # every replay must write what fim writes, and count the same sets
        replay_ok = all(s["replay_ok"] for s in samples) and counters["mine.sets"] == info["sets"]
        log(f"replay: outputs and set count {'match' if replay_ok else 'DIFFER'}; "
            f"last trace in {trace}")

    log(f"{len(samples)} invocations, {failed} failed; wall_s_tail is p{tail_pct:.0f}")
    for name in sorted(measured):
        if name in units:
            v = measured[name]
            shown = f"{v:16.6g}" if isinstance(v, float) and not v.is_integer() else f"{int(v):16d}"
            print(f"{args.workload}  {name:32} {shown} {units[name]}")

    for path in (out, reference):
        path.unlink(missing_ok=True)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({
        "correct": gate_ok and doctored_caught and replay_ok and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
