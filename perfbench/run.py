"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from the repository root.  The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`).  Untraced runs of single-threaded workloads are
split over one child run per CPU, each pinned to its CPU for an equal share
of `--seconds`: on a shared host one CPU's sibling can be busy for minutes,
and a run that stays on it reads up to twice as slow.  The merged result
takes each cell's fastest run over all CPUs, the fastest set-up and the
largest peak memory; every child must pass its own output checks and report
the same simulated outputs.  The last line printed is the merged result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Workloads whose cells drive the channels on several threads: pinning them
# to one CPU would serialise the threads, so they run unpinned.
THREADED = {"hbm2-8ch-downlink"}
WORKLOADS = ["paper-1ch", "hbm2-8ch-downlink", "tenants-64"]


def option(args, flag, default):
    if flag in args:
        return args[args.index(flag) + 1]
    return default


def replace(args, flag, value):
    args = list(args)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    return args


def run(binary, args, cpu=None):
    """Runs the binary once; returns its (detail, result) or None."""
    preexec = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
    child = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                           preexec_fn=preexec, timeout=170)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or len(lines) < 2:
        sys.stderr.write(child.stdout)
        return None
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def merged(runs):
    """One result from per-CPU child runs of the same workload and seed."""
    details = [detail for detail, _ in runs]
    results = [result for _, result in runs]
    requests = details[0]["counters_per_pass"]["requests"]
    fastest = [min(cells) for cells in zip(*(d["fastest_cell_wall_s"] for d in details))]
    same = all(d["simulated"] == details[0]["simulated"] for d in details)
    metrics = dict(results[0]["metrics"])
    value = {
        "ns_per_request": sum(fastest) * 1e9 / requests,
        "setup_s": min(r["metrics"]["setup_s"]["value"] for r in results),
        "peak_rss_mb": max(r["metrics"]["peak_rss_mb"]["value"] for r in results),
    }
    for name, v in value.items():
        metrics[name] = {"value": v, "unit": metrics[name]["unit"]}
    failed = sum(r["failed"] for r in results) + (0 if same else 1)
    detail = {"children": details}
    return detail, {
        "correct": failed == 0 and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main():
    args = sys.argv[1:]
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                            "--manifest-path", os.path.join(HERE, "Cargo.toml")])
    if build.returncode != 0:
        sys.exit(build.returncode)
    binary = os.path.join(os.environ["CARGO_TARGET_DIR"], "release", "perfbench")

    workload = option(args, "--workload", None)
    names = WORKLOADS if workload == "all" else [workload]
    cpus = sorted(os.sched_getaffinity(0))
    for name in names:
        each = replace(args, "--workload", name) if workload == "all" else args
        if option(each, "--trace", "0") != "0" or name in THREADED or len(cpus) < 2:
            outcome = run(binary, each)
        else:
            share = float(option(each, "--seconds", "10")) / len(cpus)
            children = [run(binary, replace(each, "--seconds", str(share)), cpu) for cpu in cpus]
            outcome = merged(children) if all(children) else None
        if outcome is None:
            sys.exit(1)
        detail, result = outcome
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
