"""Command-line interface: ``python -m repro <command>``.

One command per way of exercising the reproduction:

* ``validate``     -- run the Theorem 34 statistical harness.
* ``explore``      -- exhaustively check a micro system type.
* ``sweep``        -- the policy x read-fraction simulation sweep (E9).
* ``conformance``  -- drive a random engine workload and replay its trace
  against the formal model.
* ``analyze``      -- drive a random engine workload and run the schedule
  linter over its trace (``--policy broken-no-inherit`` or another
  mutant seeds a deliberate violation).
* ``lint``         -- AST code lint of the repo's own lock-discipline
  invariants (``CD001``...).
* ``fuzz``         -- deterministic concurrency fuzzing: explore thread
  interleavings of the blocking engine under seeded fault injection,
  shrink failures to minimal replayable reproducers.
* ``trace``        -- run an observed workload and export a Chrome
  trace-event file (``chrome://tracing`` / Perfetto) plus a text report.
* ``audit``        -- replay a recorded JSONL event stream through the
  online serializability auditor and print the witness-cycle report.
* ``recover``      -- replay a write-ahead log and print the
  crash-recovery report (exit 0 complete, 1 partial, 4 inconclusive).
* ``serve``        -- run the async transaction service front-end
  (``repro.serve``) until interrupted; exit codes mirror ``audit``
  when ``--audit`` is attached (0 clean, 1 violation, 4 inconclusive).
* ``loadgen``      -- drive a running service with the open-loop
  Poisson or closed-loop generator and print latency percentiles
  (``scenario run --backend serve`` drives it with a scenario).
* ``scenario``     -- declarative workloads: list the bundled library,
  validate TOML specs, or compile-and-run one spec across backends
  and schemes (league table).
* ``top``          -- run a contended simulation and print the
  hot-object lock-contention table.
* ``orphan``       -- print the orphan-inconsistency witness (E15).
* ``dist``         -- distributed deployment sweep.

Every command takes ``--seed`` and prints a deterministic report, so CLI
runs are as reproducible as the test suite.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.checking import validate_random_schedules

    total_violations = 0
    for system_seed in range(args.systems):
        stats = validate_random_schedules(
            system_seed=args.seed + system_seed,
            schedules=args.schedules,
            max_steps=args.steps,
            seed=args.seed + system_seed + 1,
        )
        total_violations += stats.violations
        print(
            "system %2d: %3d schedules, %5d events, %3d transactions "
            "checked, %d violations"
            % (
                system_seed,
                stats.schedules,
                stats.events,
                stats.transactions_checked,
                stats.violations,
            )
        )
        for failure in stats.failures[:3]:
            print("  ! %s" % failure)
    print(
        "Theorem 34: %s"
        % ("HOLDS on every schedule" if total_violations == 0
           else "%d VIOLATIONS" % total_violations)
    )
    return 0 if total_violations == 0 else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.adt import IntRegister
    from repro.core import (
        ROOT,
        RWLockingSystem,
        SystemTypeBuilder,
        check_serial_correctness,
    )
    from repro.ioa import explore_exhaustive

    builder = SystemTypeBuilder()
    builder.add_object(IntRegister("x"))
    writer = builder.add_child(ROOT)
    builder.add_access(writer, "x", IntRegister.write(1))
    reader = builder.add_child(ROOT)
    builder.add_access(reader, "x", IntRegister.read())
    system_type = builder.build()
    system = RWLockingSystem(system_type)
    result = explore_exhaustive(
        system,
        max_depth=args.depth,
        max_schedules=args.cap,
        collect_all=False,
    )
    violations = 0
    for alpha in result.maximal_schedules:
        if not check_serial_correctness(system, alpha).ok:
            violations += 1
    print(
        "exhaustive: %d maximal schedules (depth <= %d%s), %d violations"
        % (
            len(result.maximal_schedules),
            args.depth,
            ", truncated" if result.truncated else "",
            violations,
        )
    )
    return 0 if violations == 0 else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim import (
        SimulationConfig,
        WorkloadConfig,
        make_store,
        make_workload,
        run_simulation,
    )

    policies = args.policies.split(",")
    header = (
        "read%", "policy", "committed", "throughput", "mean_lat",
        "p95_lat", "aborts",
    )
    print("  ".join("%-10s" % column for column in header))
    for read_fraction in (0.0, 0.25, 0.5, 0.75, 0.95):
        config = WorkloadConfig(
            programs=args.programs,
            objects=args.objects,
            read_fraction=read_fraction,
            zipf_skew=args.skew,
            depth=2,
            fanout=2,
            accesses_per_block=2,
        )
        programs = make_workload(args.seed, config)
        store = make_store(config)
        for policy in policies:
            metrics = run_simulation(
                programs,
                store,
                SimulationConfig(
                    mpl=args.mpl, policy=policy, seed=args.seed
                ),
            )
            row = (
                "%.2f" % read_fraction,
                policy,
                str(metrics.committed),
                "%.3f" % metrics.throughput,
                "%.2f" % metrics.mean_latency,
                "%.2f" % metrics.p95_latency,
                str(metrics.deadlock_aborts),
            )
            print("  ".join("%-10s" % cell for cell in row))
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.checking import check_engine_trace
    from repro.checking.matrix import drive_random_workload

    engine = drive_random_workload(
        args.seed, args.transactions, args.operations
    )
    report = check_engine_trace(engine)
    print("trace length : %d events" % report.trace_length)
    print("refinement   : %s" % report.refinement_ok)
    if report.rejection:
        print("  rejected: %s" % report.rejection)
    if report.correctness is not None:
        print("theorem 34   : %s" % bool(report.correctness))
    print("conformance  : %s" % ("OK" if report.ok else "FAILED"))
    if report.diagnosis:
        print("diagnosis    : %d finding(s)" % len(report.diagnosis))
        for finding in report.diagnosis:
            print("  %s" % finding)
    return 0 if report.ok else 1


def _analysis_policy(name: str):
    """``analyze --policy``: moss-rw, exclusive, or a mutant's policy."""
    from repro.analysis.faults import MUTANTS

    if name in MUTANTS:
        return MUTANTS[name]()
    if name in ("moss-rw", "exclusive"):
        return name
    raise argparse.ArgumentTypeError(
        "unknown policy %r (choose from moss-rw, exclusive, %s)"
        % (name, ", ".join(MUTANTS))
    )


def _fault_preset(name: str) -> str:
    """``fuzz --faults``: a preset of :data:`repro.fuzz.FAULT_PRESETS`."""
    from repro.fuzz.faults import FAULT_PRESETS

    if name not in FAULT_PRESETS:
        raise argparse.ArgumentTypeError(
            "unknown preset %r (choose from %s)"
            % (name, ", ".join(FAULT_PRESETS))
        )
    return name


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_engine, render_json, render_text
    from repro.checking.matrix import drive_random_workload

    engine = drive_random_workload(
        args.seed,
        args.transactions,
        args.operations,
        policy=args.policy,
    )
    report = analyze_engine(engine)
    if args.json:
        print(render_json([report]))
    else:
        print(
            "policy %s, seed %d: %d events"
            % (
                engine.scheme_name,
                args.seed,
                len(engine.recorder.schedule()),
            )
        )
        print(render_text([report], verbose=args.verbose))
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import os

    from repro.analysis import (
        all_rules,
        lint_paths,
        render_json,
        render_rule_catalogue,
        render_text,
    )

    if args.list_rules:
        # The SER rules live in repro.audit and register on import;
        # pull them in so the catalogue is complete.
        import repro.audit  # noqa: F401

        print(render_rule_catalogue(all_rules()))
        return 0
    paths = args.paths
    if not paths:
        paths = [os.path.dirname(os.path.abspath(__file__))]
    try:
        report = lint_paths(paths)
    except FileNotFoundError as exc:
        print("repro lint: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(render_json([report]))
    else:
        print(render_text([report], verbose=args.verbose))
    return 0 if report.ok else 1


def _parse_choices(text: Optional[str]):
    if text is None:
        return None
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _export_fuzz_trace(result, path: str) -> None:
    """Replay *result* with the observability layer and export a trace.

    Replays are byte-for-byte deterministic from ``(config, choices)``,
    so the exported spans show exactly the failing interleaving -- one
    track per worker thread.
    """
    from repro.fuzz import run_case
    from repro.obs import Observer, render_report, write_chrome_trace

    observer = Observer()
    run_case(result.config, choices=result.choices, observer=observer)
    observer.finish()
    write_chrome_trace(path, observer)
    report_path = path + ".report.txt"
    with open(report_path, "w") as handle:
        handle.write(render_report(observer))
        handle.write("\n")
    print("trace  : %s (+ %s)" % (path, report_path))


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        FuzzConfig,
        emit_regression_test,
        explore_bounded,
        fuzz_search,
        run_case,
        shrink_choices,
    )

    config = FuzzConfig(
        seed=args.seed,
        workers=args.workers,
        transactions_per_worker=args.transactions,
        steps_per_transaction=args.steps,
        faults=args.faults,
        scheme=args.scheme,
    )
    choices = _parse_choices(args.choices)
    if choices is not None:
        # Exact replay of one case.
        result = run_case(config, choices=choices, audit=args.audit)
        print(
            "replay seed %d, %d choices: %s"
            % (config.seed, len(choices), result.kind)
        )
        print("digest  : %s" % result.digest)
        print("trace   : %d events, %d decisions"
              % (result.trace_length, result.decision_count))
        for line in result.finding_lines:
            print("  %s" % line)
        if args.audit and result.audit is not None:
            print("audit   : %s" % result.audit.verdict)
        if args.trace_out:
            _export_fuzz_trace(result, args.trace_out)
        return 1 if result.failed else 0

    if args.mode == "bounded":
        search = explore_bounded(
            config,
            max_preemptions=args.preemptions,
            budget=args.runs,
            audit=args.audit,
        )
    else:
        search = fuzz_search(config, runs=args.runs, audit=args.audit)
    print(
        "fuzz: %d run(s), faults=%s, mode=%s"
        % (search.attempts, args.faults, args.mode)
    )
    failure = search.failure
    if failure is None:
        print("no violation found (all runs conformant)")
        return 0

    print(
        "VIOLATION (%s) at seed %d after %d run(s): rules %s"
        % (
            failure.kind,
            failure.config.seed,
            search.attempts,
            ", ".join(failure.rule_codes) or "-",
        )
    )
    for line in failure.finding_lines:
        print("  %s" % line)
    if failure.audit is not None and failure.audit.violations:
        for violation in failure.audit.violations:
            for line in violation.describe().splitlines():
                print("  %s" % line)
    reproducer = failure
    if args.shrink:
        shrunk = shrink_choices(failure.config, failure)
        reproducer = shrunk.minimized
        print(
            "shrink: %d -> %d choices in %d evaluation(s)"
            % (
                len(failure.choices),
                len(reproducer.choices),
                shrunk.evaluations,
            )
        )
    choice_text = ",".join(str(c) for c in reproducer.choices)
    print("digest : %s" % reproducer.digest)
    if args.trace_out:
        # The reproducer ships with its span trace: replay it once
        # more with the observer attached and export the trace file.
        _export_fuzz_trace(reproducer, args.trace_out)
    print(
        "replay : python -m repro fuzz --seed %d --faults %s "
        "--scheme %s --workers %d --transactions %d --steps %d "
        "--choices '%s'"
        % (
            reproducer.config.seed,
            args.faults,
            config.scheme,
            config.workers,
            config.transactions_per_worker,
            config.steps_per_transaction,
            choice_text,
        )
    )
    print("--- regression test ---")
    print(emit_regression_test(reproducer))
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        Observer,
        render_report,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.obs.workloads import run_workload

    observer = Observer()
    auditor = None
    if args.audit:
        from repro.audit import AuditConfig, OnlineAuditor

        auditor = OnlineAuditor(AuditConfig(sample_every=1))
    try:
        summary = run_workload(
            args.workload, observer, seed=args.seed, auditor=auditor
        )
    except ValueError as exc:
        print("repro trace: %s" % exc, file=sys.stderr)
        return 2
    print(
        "workload %s (seed %d): %s"
        % (
            args.workload,
            args.seed,
            ", ".join(
                "%s=%s" % (key, value)
                for key, value in sorted(summary.items())
            ),
        )
    )
    if args.out:
        write_chrome_trace(args.out, observer)
        print("chrome trace : %s (load in chrome://tracing or Perfetto)"
              % args.out)
    if args.jsonl:
        write_jsonl(args.jsonl, observer)
        print("jsonl stream : %s" % args.jsonl)
    print(render_report(observer, top=args.top))
    if auditor is not None:
        report = auditor.report()
        print(report.render())
        if not report.ok:
            return 1
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis import render_json
    from repro.audit import AuditConfig, audit_jsonl_file

    config = AuditConfig(sample_every=args.sample_every)
    try:
        report = audit_jsonl_file(args.jsonl, config)
    except (OSError, ValueError) as exc:
        print("repro audit: %s" % exc, file=sys.stderr)
        return 2
    rendered = report.render()
    if args.json:
        print(render_json([report.to_analysis_report()]))
    else:
        print(rendered)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print("witness report : %s" % args.out)
    if report.verdict == "violation":
        return 1
    if report.verdict == "inconclusive":
        return 4
    return 0


def _is_sharded_wal_layout(path: str) -> bool:
    """True when *path* looks like a ShardedEngine WAL directory."""
    import glob
    import os

    if not os.path.isdir(path):
        return False
    return bool(glob.glob(os.path.join(path, "shard-*")))


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.errors import EngineError
    from repro.wal import RecoveryError, recover

    if _is_sharded_wal_layout(args.log):
        from repro.shard import recover_sharded

        try:
            sharded = recover_sharded(
                args.log, presume_abort=not args.no_presume_abort
            )
        except OSError as exc:
            print("repro recover: %s" % exc, file=sys.stderr)
            return 2
        except (RecoveryError, EngineError) as exc:
            print("repro recover: %s" % exc, file=sys.stderr)
            return 4
        rendered = sharded.render()
        print(rendered)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered)
                handle.write("\n")
            print("recovery report : %s" % args.out)
        if sharded.verdict == "partial":
            return 1
        return 0

    try:
        state = recover(args.log, presume_abort=not args.no_presume_abort)
    except OSError as exc:
        print("repro recover: %s" % exc, file=sys.stderr)
        return 2
    except RecoveryError as exc:
        # Nothing recoverable: no usable header, unknown format, or a
        # non-durable scheme -- the inconclusive outcome.
        print("repro recover: %s" % exc, file=sys.stderr)
        return 4
    report = state.report
    rendered = report.render()
    print(rendered)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print("recovery report : %s" % args.out)
    # Mirrors `repro audit`: 0 clean/complete, 1 a finding (here: the
    # log had a torn or corrupt tail and only a prefix was restored).
    if report.verdict == "partial":
        return 1
    return 0


def _load_scenario_ref(ref: str):
    """Resolve a scenario reference: a TOML path or a library name."""
    import os

    from repro.scenario import load_scenario
    from repro.scenario.library import library_path

    if os.path.exists(ref):
        return load_scenario(ref)
    return load_scenario(library_path(ref))


def _serve_specs(args: argparse.Namespace):
    from repro.adt import BankAccount, Counter, IntRegister

    if getattr(args, "scenario", None):
        from repro.scenario import build_store

        return build_store(_load_scenario_ref(args.scenario))
    spec_classes = {
        "register": IntRegister,
        "counter": Counter,
        "bank": BankAccount,
    }
    spec_class = spec_classes[args.object_type]
    return [
        spec_class("x%d" % index) for index in range(args.objects)
    ]


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal
    import threading

    from repro.errors import EngineError
    from repro.serve import (
        PROTOCOL_VERSION,
        ServeConfig,
        TransactionServer,
    )

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_inflight_per_conn=args.max_inflight_per_conn,
        rate=args.rate,
        burst=args.burst,
        op_timeout=args.op_timeout,
        idle_timeout=args.idle_timeout,
    )
    try:
        specs = _serve_specs(args)
    except ValueError as exc:  # bad --scenario reference or TOML
        print("repro serve: %s" % exc, file=sys.stderr)
        return 2
    facade = None
    if args.sharded:
        from repro.shard import ShardedEngine

        placement = None
        if getattr(args, "scenario", None):
            placement = (
                _load_scenario_ref(args.scenario).placement_map() or None
            )
        try:
            facade = ShardedEngine(
                specs,
                policy=args.scheme,
                workers=args.shard_workers,
                placement=placement,
            )
            if args.wal_dir:
                facade.attach_wal(
                    wal_dir=args.wal_dir,
                    group_ms=args.wal_group_ms,
                )
        except (EngineError, OSError) as exc:
            print("repro serve: %s" % exc, file=sys.stderr)
            return 2
    server = TransactionServer(
        specs,
        args.scheme,
        config=config,
        facade=facade,
    )
    if args.wal_dir and facade is None:
        from repro.wal import FileWalSink

        try:
            server.attach_wal(sink=FileWalSink(args.wal_dir))
        except (EngineError, OSError) as exc:
            print("repro serve: %s" % exc, file=sys.stderr)
            return 2
    if args.audit:
        server.attach_auditor()
    if facade is not None:
        try:
            facade.start()
        except (EngineError, OSError) as exc:
            print("repro serve: %s" % exc, file=sys.stderr)
            facade.close()
            return 2

    try:
        host, port = server.start()
    except OSError as exc:
        print("repro serve: %s" % exc, file=sys.stderr)
        if facade is not None:
            facade.close()
        return 2
    # One parseable line, flushed before load arrives: wrappers
    # (tests, the serve-smoke CI job) read the bound port here.
    line = "serving on %s:%d scheme=%s objects=%d protocol=%d" % (
        host,
        port,
        server.facade.scheme.name,
        len(server.object_names),
        PROTOCOL_VERSION,
    )
    if facade is not None:
        line += " shards=%d" % facade.shards
    print(line, flush=True)
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(
                signum, lambda *_: stop.set()
            )
        except ValueError:  # not the main thread
            pass
    try:
        stop.wait(args.duration)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.stop()
        if facade is not None:
            facade.close()
    stats = server.stats()
    print(
        "served %d connections, shed %d, engine %s"
        % (
            stats["metrics"]["gauges"]
            .get("serve.connections", {})
            .get("high_water", 0),
            stats["shed"],
            json.dumps(stats["engine"], sort_keys=True),
        )
    )
    auditor = server.auditor
    if auditor is not None:
        report = auditor.report()
        print(report.render())
        if report.verdict == "violation":
            return 1
        if report.verdict == "inconclusive":
            return 4
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.serve import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        mode=args.mode,
        clients=args.clients,
        duration=args.duration,
        rate=args.rate,
        ops_per_txn=args.ops,
        read_fraction=args.read_fraction,
        seed=args.seed,
        think_time=args.think_time,
    )
    try:
        report = run_loadgen(config)
    except (ConnectionError, OSError, ValueError) as exc:
        print("repro loadgen: %s" % exc, file=sys.stderr)
        return 2
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("latency report  : %s" % args.json)
    # Mirrors audit/recover: 0 when the run produced commits, 1 when
    # the service refused or failed every single transaction.
    return 0 if report.committed > 0 else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import Observer
    from repro.obs.workloads import run_contended_sim

    observer = Observer(trace=not args.no_trace)
    metrics = run_contended_sim(
        observer,
        seed=args.seed,
        programs=args.programs,
        objects=args.objects,
        mpl=args.mpl,
        policy=args.policy,
        zipf_skew=args.skew,
        read_fraction=args.read_fraction,
    )
    print(
        "policy %s, seed %d: %d committed, %d denials, "
        "%d deadlock aborts, makespan %.1f"
        % (
            args.policy,
            args.seed,
            metrics.committed,
            metrics.lock_denials,
            metrics.deadlock_aborts,
            metrics.makespan,
        )
    )
    print(observer.contention.render(args.limit))
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    from repro.dist import DistributedConfig, run_distributed_simulation
    from repro.dist import uniform_topology
    from repro.sim import WorkloadConfig, make_store, make_workload

    config = WorkloadConfig(
        programs=args.programs,
        objects=args.objects,
        read_fraction=0.7,
        depth=2,
        fanout=2,
        accesses_per_block=2,
    )
    programs = make_workload(args.seed, config)
    store = make_store(config)
    names = [spec.name for spec in store]
    header = ("sites", "committed", "makespan", "messages",
              "remote%", "2pc_rounds")
    print("  ".join("%-10s" % column for column in header))
    for sites in (1, 2, 4, 8):
        topology = uniform_topology(names, sites=sites)
        topology.one_way_latency = args.latency
        metrics = run_distributed_simulation(
            programs,
            store,
            topology,
            DistributedConfig(mpl=4, policy="moss-rw", seed=args.seed),
        )
        row = (
            str(sites),
            str(metrics.committed),
            "%.1f" % metrics.makespan,
            str(metrics.messages),
            "%.1f" % (100 * metrics.remote_fraction),
            str(metrics.commit_rounds),
        )
        print("  ".join("%-10s" % cell for cell in row))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import ScenarioError

    try:
        if args.action == "list":
            return _scenario_list()
        if args.action == "validate":
            return _scenario_validate(args)
        return _scenario_run(args)
    except ScenarioError as exc:
        print("repro scenario: %s" % exc, file=sys.stderr)
        return 2


def _scenario_list() -> int:
    from repro.scenario.library import library_names, library_path
    from repro.scenario.spec import load_scenario

    for name in library_names():
        spec = load_scenario(library_path(name))
        print(
            "%-12s %4d txns, %d classes, %d populations -- %s"
            % (
                name,
                spec.transactions,
                len(spec.classes),
                len(spec.populations),
                spec.description,
            )
        )
        print("  %s" % library_path(name))
    return 0


def _scenario_validate(args: argparse.Namespace) -> int:
    from repro.scenario import ScenarioError, library_names

    failures = 0
    for ref in args.scenarios or library_names():
        try:
            spec = _load_scenario_ref(ref)
        except ScenarioError as exc:
            print("FAIL %s: %s" % (ref, exc))
            failures += 1
            continue
        print(
            "OK   %s (%d txns, %d classes, %d populations, %s arrivals)"
            % (
                spec.name,
                spec.transactions,
                len(spec.classes),
                len(spec.populations),
                spec.arrival.process,
            )
        )
    return 2 if failures else 0


def _scenario_run(args: argparse.Namespace) -> int:
    import json

    from repro.scenario import compile_scenario, get_driver

    spec = _load_scenario_ref(args.scenario)
    compiled = compile_scenario(
        spec, args.seed, transactions=args.transactions
    )
    backends = args.backends.split(",")
    schemes = args.schemes.split(",")
    options = {}
    if args.port is not None:
        options["host"] = args.host
        options["port"] = args.port
    if args.workers is not None:
        options["workers"] = args.workers
    results = []
    for backend in backends:
        driver = get_driver(backend)
        for scheme in schemes:
            results.append(driver.run(compiled, scheme=scheme, **options))
    if len(results) == 1:
        print(results[0].render())
    else:
        # League table: one row per backend x scheme combination.
        header = (
            "backend", "scheme", "committed", "aborted", "txn_abort",
            "retries", "throughput", "p95_lat",
        )
        print("scenario %s, seed %d, digest %s"
              % (spec.name, args.seed, compiled.digest()[:16]))
        print("  ".join("%-10s" % column for column in header))
        for result in results:
            # Engine-decided aborts, where the driver distinguishes
            # them from admission sheds / lock denials ("-" where it
            # cannot: sim and dist count only engine aborts already).
            txn_aborted = result.extras.get("txn_aborted")
            row = (
                result.backend,
                result.scheme,
                str(result.committed),
                str(result.aborted),
                "-" if txn_aborted is None else str(txn_aborted),
                str(result.retries),
                "%.3f" % result.throughput,
                "%.2f" % result.latency(0.95),
            )
            print("  ".join("%-10s" % cell for cell in row))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                [result.row() for result in results],
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print("results json : %s" % args.json)
    return 0 if all(r.committed > 0 for r in results) else 1


def _cmd_orphan(args: argparse.Namespace) -> int:
    from repro.checking.anomalies import orphan_anomaly_witness
    from repro.core.names import pretty_name

    witness = orphan_anomaly_witness()
    print(
        "orphan %s in a %d-event concurrent schedule:"
        % (pretty_name(witness.orphan), len(witness.schedule))
    )
    if args.verbose:
        for index, event in enumerate(witness.schedule):
            print("  %2d  %s" % (index, event))
    for anomaly in witness.anomalies:
        print("anomaly: %s" % anomaly)
    print(
        "(Theorem 34 deliberately excludes orphans; see EXPERIMENTS.md "
        "E15 and the paper's Section 3.5 remark.)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Nested Transactions and Read/Write Locking (PODS 1987) -- "
            "reproduction toolkit"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="statistical Theorem 34 validation"
    )
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--systems", type=int, default=3)
    validate.add_argument("--schedules", type=int, default=10)
    validate.add_argument("--steps", type=int, default=300)
    validate.set_defaults(handler=_cmd_validate)

    explore = commands.add_parser(
        "explore", help="exhaustive micro-system check"
    )
    explore.add_argument("--depth", type=int, default=12)
    explore.add_argument("--cap", type=int, default=3000)
    explore.set_defaults(handler=_cmd_explore)

    sweep = commands.add_parser(
        "sweep", help="policy x read-fraction simulation sweep"
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--programs", type=int, default=30)
    sweep.add_argument("--objects", type=int, default=10)
    sweep.add_argument("--skew", type=float, default=0.6)
    sweep.add_argument("--mpl", type=int, default=8)
    sweep.add_argument(
        "--policies",
        default="serial,exclusive,flat-2pl,moss-rw,mvto",
        help="comma-separated policy list",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    conformance = commands.add_parser(
        "conformance", help="engine-trace -> model conformance demo"
    )
    conformance.add_argument("--seed", type=int, default=0)
    conformance.add_argument("--transactions", type=int, default=4)
    conformance.add_argument("--operations", type=int, default=60)
    conformance.set_defaults(handler=_cmd_conformance)

    analyze = commands.add_parser(
        "analyze",
        help="schedule lint over a random engine trace",
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--transactions", type=int, default=4)
    analyze.add_argument("--operations", type=int, default=60)
    analyze.add_argument(
        "--policy",
        default="moss-rw",
        type=_analysis_policy,
        help=(
            "locking policy: moss-rw, exclusive, or a mutant "
            "(broken-no-inherit, ...) that seeds a violation"
        ),
    )
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--verbose", action="store_true")
    analyze.set_defaults(handler=_cmd_analyze)

    lint = commands.add_parser(
        "lint", help="AST lint of the repo's lock-discipline invariants"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: the repro package)",
    )
    lint.add_argument("--json", action="store_true")
    lint.add_argument("--verbose", action="store_true")
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    fuzz = commands.add_parser(
        "fuzz",
        help=(
            "deterministic concurrency fuzzing with fault injection "
            "and failing-schedule shrinking"
        ),
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--runs", type=int, default=20,
        help="schedule budget (search attempts)",
    )
    fuzz.add_argument("--workers", type=int, default=3)
    fuzz.add_argument(
        "--transactions", type=int, default=2,
        help="top-level transactions per worker",
    )
    fuzz.add_argument(
        "--steps", type=int, default=4,
        help="accesses per transaction",
    )
    fuzz.add_argument(
        "--faults",
        default="none",
        type=_fault_preset,
        help=(
            "fault-injection preset: none, crash, deny-spike, orphan, "
            "chaos, or a mutant (broken-no-inherit, ...)"
        ),
    )
    fuzz.add_argument(
        "--scheme",
        default="moss-rw",
        help=(
            "registered concurrency scheme to fuzz (see "
            "repro.kernel.scheme_names); a fault preset with its own "
            "policy overrides this"
        ),
    )
    fuzz.add_argument(
        "--mode",
        default="random",
        choices=["random", "bounded"],
        help="random search or bounded-preemption exploration",
    )
    fuzz.add_argument(
        "--preemptions", type=int, default=1,
        help="preemption bound for --mode bounded",
    )
    fuzz.add_argument(
        "--shrink", action="store_true",
        help="delta-debug a failure to a minimal choice list",
    )
    fuzz.add_argument(
        "--choices",
        help=(
            "comma-separated choice list: replay this exact "
            "interleaving instead of searching"
        ),
    )
    fuzz.add_argument(
        "--audit", action="store_true",
        help=(
            "attach the online serializability auditor as a fourth "
            "oracle (full auditing, sample 1/1)"
        ),
    )
    fuzz.add_argument(
        "--trace-out",
        help=(
            "replay the reproducer with the observability layer "
            "attached and write a Chrome trace-event file here "
            "(plus a <file>.report.txt summary)"
        ),
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    trace = commands.add_parser(
        "trace",
        help=(
            "run an observed workload; export a Chrome/Perfetto "
            "trace and a metrics report"
        ),
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--workload",
        default="quickstart",
        help=(
            "which workload to observe: quickstart, banking, threads, "
            "or scenario:<library name> (e.g. scenario:bank)"
        ),
    )
    trace.add_argument(
        "--out",
        help="write the Chrome trace-event JSON here",
    )
    trace.add_argument(
        "--jsonl",
        help="also write the raw JSONL event stream here",
    )
    trace.add_argument(
        "--top", type=int, default=10,
        help="rows in the contention table",
    )
    trace.add_argument(
        "--audit", action="store_true",
        help=(
            "attach the online serializability auditor and append its "
            "verdict to the report (exit 1 unless clean)"
        ),
    )
    trace.set_defaults(handler=_cmd_trace)

    audit = commands.add_parser(
        "audit",
        help=(
            "offline serializability audit of a recorded JSONL event "
            "stream (see trace --jsonl)"
        ),
    )
    audit.add_argument(
        "jsonl",
        help="JSONL event stream written by trace --jsonl / write_jsonl",
    )
    audit.add_argument(
        "--sample-every", type=int, default=1,
        help="audit every Nth top-level transaction tree (default 1)",
    )
    audit.add_argument("--json", action="store_true")
    audit.add_argument(
        "--out",
        help="also write the witness report to this file",
    )
    audit.set_defaults(handler=_cmd_audit)

    recover = commands.add_parser(
        "recover",
        help=(
            "replay a write-ahead log (segment file or directory) and "
            "print the crash-recovery report"
        ),
    )
    recover.add_argument(
        "log",
        help="WAL segment file, or a directory of wal-*.seg segments",
    )
    recover.add_argument(
        "--no-presume-abort", action="store_true",
        help=(
            "keep in-flight transactions live instead of aborting "
            "top levels with no COMMIT record"
        ),
    )
    recover.add_argument(
        "--out",
        help="also write the recovery report to this file",
    )
    recover.set_defaults(handler=_cmd_recover)

    serve = commands.add_parser(
        "serve",
        help=(
            "run the transaction service front-end until "
            "interrupted (SIGINT/SIGTERM) or --duration elapses"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7437,
        help="TCP port (0 = pick a free one; printed on stdout)",
    )
    serve.add_argument(
        "--scheme", default="moss-rw",
        help="registered concurrency scheme to serve",
    )
    serve.add_argument(
        "--objects", type=int, default=16,
        help="number of served objects (named x0..xN-1)",
    )
    serve.add_argument(
        "--object-type",
        default="register",
        choices=["register", "counter", "bank"],
        help="ADT class of the served objects",
    )
    serve.add_argument(
        "--scenario",
        help=(
            "serve a scenario's object populations (TOML path or "
            "library name) instead of --objects/--object-type"
        ),
    )
    serve.add_argument(
        "--max-inflight", type=int, default=256,
        help="global admitted-but-unanswered request cap",
    )
    serve.add_argument(
        "--max-inflight-per-conn", type=int, default=32,
        help="per-connection pipelining cap",
    )
    serve.add_argument(
        "--rate", type=float, default=None,
        help="token-bucket arrival limit, requests/s (default: off)",
    )
    serve.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket depth (default: --rate)",
    )
    serve.add_argument(
        "--op-timeout", type=float, default=5.0,
        help="per-op engine wait budget in seconds",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=None,
        help="reap connections idle this many seconds (default: never)",
    )
    serve.add_argument(
        "--sharded", action="store_true",
        help=(
            "back the service with the multiprocess sharded engine "
            "(spawn workers + cross-shard 2PC) instead of the "
            "in-process facade"
        ),
    )
    serve.add_argument(
        "--shard-workers", type=int, default=None,
        help="sharded: worker process count (default: auto)",
    )
    serve.add_argument(
        "--wal-group-ms", type=float, default=None,
        help=(
            "sharded: group-commit window in milliseconds for the "
            "per-shard WAL sinks (default: fsync per flush)"
        ),
    )
    serve.add_argument(
        "--wal-dir",
        help=(
            "attach a file write-ahead log in this directory "
            "(sharded: per-shard segments under shard-NN/ plus "
            "coordinator decisions under coord/)"
        ),
    )
    serve.add_argument(
        "--audit", action="store_true",
        help=(
            "attach the online serializability auditor; exit 1 on "
            "violation, 4 inconclusive (mirrors `repro audit`)"
        ),
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: run until signal)",
    )
    serve.set_defaults(handler=_cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help=(
            "drive a running service: open-loop Poisson or "
            "closed-loop workers, latency percentiles via repro.obs"
        ),
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7437)
    loadgen.add_argument(
        "--mode", default="closed", choices=["closed", "open"],
    )
    loadgen.add_argument(
        "--clients", type=int, default=8,
        help="closed-loop workers / open-loop connections",
    )
    loadgen.add_argument(
        "--duration", type=float, default=2.0,
        help="run length in seconds",
    )
    loadgen.add_argument(
        "--rate", type=float, default=200.0,
        help="open loop: offered arrivals/second",
    )
    loadgen.add_argument(
        "--ops", type=int, default=4,
        help="accesses per transaction",
    )
    loadgen.add_argument("--read-fraction", type=float, default=0.5)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--think-time", type=float, default=0.0,
        help="closed loop: sleep between transactions",
    )
    loadgen.add_argument(
        "--json",
        help="also write the latency report as JSON here",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    scenario = commands.add_parser(
        "scenario",
        help=(
            "declarative workload scenarios: list the library, "
            "validate specs, run one across backends and schemes"
        ),
    )
    scenario_actions = scenario.add_subparsers(
        dest="action", required=True
    )
    scenario_list = scenario_actions.add_parser(
        "list", help="list the bundled scenario library"
    )
    scenario_list.set_defaults(handler=_cmd_scenario)
    scenario_validate = scenario_actions.add_parser(
        "validate",
        help="validate scenario TOML files (or library names)",
    )
    scenario_validate.add_argument(
        "scenarios",
        nargs="*",
        help="TOML paths or library names (default: whole library)",
    )
    scenario_validate.set_defaults(handler=_cmd_scenario)
    scenario_run = scenario_actions.add_parser(
        "run",
        help=(
            "compile one scenario and run it on one or more backends "
            "and schemes (comma lists produce a league table)"
        ),
    )
    scenario_run.add_argument(
        "scenario", help="TOML path or library name"
    )
    scenario_run.add_argument("--seed", type=int, default=0)
    scenario_run.add_argument(
        "--transactions", type=int, default=None,
        help="override the spec's transaction count",
    )
    scenario_run.add_argument(
        "--backend",
        dest="backends",
        default="sim",
        help=(
            "comma list of backends: sim, threadsafe, sharded, "
            "dist, serve"
        ),
    )
    scenario_run.add_argument(
        "--scheme",
        dest="schemes",
        default="moss-rw",
        help="comma list of registered schemes",
    )
    scenario_run.add_argument(
        "--workers", type=int, default=None,
        help=(
            "threadsafe/sharded backends: worker thread or shard "
            "process count (default: backend-specific)"
        ),
    )
    scenario_run.add_argument(
        "--host", default="127.0.0.1",
        help="serve backend: server host",
    )
    scenario_run.add_argument(
        "--port", type=int, default=None,
        help="serve backend: server port (required for serve)",
    )
    scenario_run.add_argument(
        "--json",
        help="also write all result rows as JSON here",
    )
    scenario_run.set_defaults(handler=_cmd_scenario)

    top = commands.add_parser(
        "top",
        help="hot-object lock-contention table from a contended run",
    )
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--programs", type=int, default=24)
    top.add_argument("--objects", type=int, default=6)
    top.add_argument("--mpl", type=int, default=8)
    top.add_argument("--policy", default="moss-rw")
    top.add_argument("--skew", type=float, default=0.9)
    top.add_argument("--read-fraction", type=float, default=0.2)
    top.add_argument(
        "--limit", type=int, default=10,
        help="rows in the table",
    )
    top.add_argument(
        "--no-trace", action="store_true",
        help="skip span collection (metrics and contention only)",
    )
    top.set_defaults(handler=_cmd_top)

    orphan = commands.add_parser(
        "orphan", help="print the orphan-inconsistency witness"
    )
    orphan.add_argument("--verbose", action="store_true")
    orphan.set_defaults(handler=_cmd_orphan)

    dist = commands.add_parser(
        "dist", help="distributed deployment sweep (sites x costs)"
    )
    dist.add_argument("--seed", type=int, default=0)
    dist.add_argument("--programs", type=int, default=16)
    dist.add_argument("--objects", type=int, default=12)
    dist.add_argument("--latency", type=float, default=1.0)
    dist.set_defaults(handler=_cmd_dist)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
