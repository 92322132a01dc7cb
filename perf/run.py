"""The perf ladder's one command.

    python3 perf/run.py --workload bank --seed 7        # end-to-end metrics
    python3 perf/run.py --workload bank --traced        # per-layer metrics
    python3 perf/run.py --all [--traced]                # every workload
    python3 perf/run.py --workload feed --quick         # smoke run, <= 10 s
    python3 perf/run.py --check-repeat 10               # steadiness check

One run drives one workload through the ladder (``perf/ladder.py``),
checks that every rung computed the same committed state, prints every
metric by name with its unit, appends the run to
``perf/out/history.jsonl`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` (the
default) reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` (or ``--traced``) times every rung, repeats four of them
under the benchmark's own spans, and reports the per-layer metrics.
The exit code is non-zero when any correctness check fails.

The command as typed is a supervisor (:func:`supervise`): it runs the
work in a child and returns once every process of the run has ended.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
#: Set-up is timed this many times per run (this process, then fresh
#: probe processes); the median is reported.
SETUPS = 5
MIN_ROUNDS = 5
QUICK_SECONDS = 2.0
QUICK_ROUNDS = 2
#: Set in the environment of everything the supervisor started.
SUPERVISED = "PERF_LADDER_SUPERVISED"
#: How long processes may outlive the run before they are killed.
LINGER_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def pin_cpu() -> str:
    """Pin this process (and everything it spawns) to one allowed CPU.

    Cross-CPU wake-ups between the client, the server threads and the
    shard workers made hop-tier throughput bimodal on small VMs; on
    one CPU the hand-offs are deterministic.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return "unpinned"
    return str(cpu)


def supervise() -> int:
    """Run this command as a child; return only when every process it
    started has ended.

    ``multiprocessing``'s resource tracker (started with the first
    shard worker) ignores SIGTERM and ends only once its parent has, so
    a run that reaped its own children still left one process behind
    for a moment.  The supervisor makes itself the reaper of every
    orphaned descendant (``PR_SET_CHILD_SUBREAPER``), gives the child
    a process group of its own, and after the child is gone waits
    until nothing of it is left -- killing what outstays ``LINGER_S``.

    The child runs under ``PYTHONHASHSEED=0`` (workers inherit it).
    String hashes are salted per process, and with them dict and set
    layouts: two starts of the very same rung differed by up to 6% on
    the shard tier and 3% on serve, for the life of the process.
    Unsalted, they agree within 1-3%.
    """
    try:
        import ctypes  # here, so set-up time does not count it

        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (ImportError, OSError, AttributeError):
        pass  # not Linux: the process-group wait below still holds

    def terminated(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
        env=dict(os.environ, PYTHONHASHSEED="0", **{SUPERVISED: "1"}),
        start_new_session=True,
    )
    linger = 0.0  # interrupted: nothing is given time to finish
    try:
        status = child.wait()
        linger = LINGER_S
    finally:
        reap(child.pid, time.monotonic() + linger)
    return status if status >= 0 else 128 - status


def reap(group: int, deadline: float) -> None:
    """Wait until process group *group* is empty and this process has
    no children; whatever is left at *deadline* is killed first."""
    killed = False
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0]:
                continue  # reaped one; look for the next
            children = True
        except ChildProcessError:
            children = False
        try:
            os.killpg(group, signal.SIGKILL if killed else 0)
        except ProcessLookupError:
            if not children:
                return
        if time.monotonic() >= deadline:
            if killed:
                sys.exit("perf: processes of this run could not be stopped")
            killed, deadline = True, deadline + LINGER_S
        time.sleep(0.005)


def import_ladder():
    """Import the ladder (and through it ``repro``) from this checkout."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perf: no src/repro beside %s: nothing to measure" % PERF_DIR)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ladder

    return ladder


def commit_id() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def child_command(*arguments) -> list:
    return [sys.executable, os.path.abspath(__file__)] + [
        str(argument) for argument in arguments
    ]


def probe_setup(workload: str, seed: int) -> float:
    """Time set-up once more, in a fresh process."""
    output = subprocess.run(
        child_command(
            "--setup-probe", "--workload", workload, "--seed", seed
        ),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return float(output.strip().splitlines()[-1])


def print_metrics(title, declared, values) -> None:
    print("\n%s" % title)
    for metric in declared:
        print(
            "  %-32s %16.4f %-7s (%s is better)"
            % (
                metric["name"],
                values[metric["name"]],
                metric["unit"],
                metric["better"],
            )
        )


def run_workload(args, bench) -> int:
    pinned = pin_cpu()
    ladder = import_ladder()
    traced = bool(args.trace)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    try:
        rungs = ladder.Ladder(args.workload, args.seed, traced)
    except ladder.GateBreach as breach:
        sys.exit("perf: %s" % breach)
    try:
        rungs.open()
        setups = [time.perf_counter() - _STARTED]
        if args.setup_probe:
            print(repr(setups[0]))
            return 0
        rungs.verify()
        rounds = rungs.measure(
            seconds, QUICK_ROUNDS if args.quick else MIN_ROUNDS
        )
    finally:
        rungs.close()
    if not traced and not args.quick:
        # Fresh processes, run after this one has gone quiet.
        while len(setups) < SETUPS:
            setups.append(probe_setup(args.workload, args.seed))

    end_to_end = rungs.end_to_end()
    end_to_end["setup_s"] = statistics.median(setups)
    print(
        "workload %s, seed %d: %d transactions x %d rounds on cpu %s"
        % (args.workload, args.seed, rungs.count, rounds, pinned)
    )
    print_metrics(
        "end to end (authoritative with --trace 0):",
        bench["end_to_end"], end_to_end,
    )
    values, declared = end_to_end, bench["end_to_end"]
    if traced:
        values, declared = rungs.per_layer(), bench["per_layer"]
        print_metrics("per layer:", declared, values)
        print("spans: %s" % rungs.write_trace())
    undeclared = set(values) - {metric["name"] for metric in declared}
    if undeclared:
        sys.exit("perf: not in BENCHMARK.json: %s" % sorted(undeclared))
    print(
        "\nfailed_txn_share %d / %d" % (rungs.failed, rungs.attempted)
    )
    for breach in rungs.breaches[:20]:
        print("  BREACH %s" % breach)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "history.jsonl"), "a") as handle:
        record = {
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "commit": commit_id(),
            "workload": args.workload,
            "seed": args.seed,
            "trace": int(traced),
            "quick": args.quick,
            "host": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "pinned_cpu": pinned,
            },
            "rounds": rounds,
            "transactions": rungs.count,
            "seconds": seconds,
            "host.noise_share": rungs.facade_noise_share(),
            "reference_ns": rungs.reference,
            "attempted": rungs.attempted,
            "failed": rungs.failed,
            "metrics": values,
        }
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(
        json.dumps(
            {
                "correct": rungs.failed == 0,
                "attempted": rungs.attempted,
                "failed": rungs.failed,
                "metrics": {
                    metric["name"]: {
                        "value": values[metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in declared
                },
            }
        )
    )
    return 1 if rungs.failed else 0


def run_all(args, bench) -> int:
    """Each workload in its own child process, one after another."""
    status = 0
    for workload in bench["workloads"]:
        command = child_command(
            "--workload", workload["name"], "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace,
        ) + (["--quick"] if args.quick else [])
        status = max(status, subprocess.run(command).returncode)
    return status


def main() -> int:
    if SUPERVISED not in os.environ:
        return supervise()
    bench = load_benchmark()
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(bench["run_seconds"]),
        help="how long the timed rounds last (default: run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="a smoke run: two rounds, one set-up sample",
    )
    parser.add_argument(
        "--check-repeat", type=int, nargs="?", const=10, metavar="K",
        help="two sets of K runs per workload; do they agree?",
    )
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    if args.check_repeat:
        import repeat

        return repeat.check(
            args.check_repeat,
            [args.workload] if args.workload else names,
            args.seed, args.seconds, bench, child_command,
        )
    if args.all:
        return run_all(args, bench)
    if not args.workload:
        parser.error("one of --workload, --all, --check-repeat is needed")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
