"""Command-line interface: ``leakchecker`` / ``python -m repro``.

Subcommands:

* ``check FILE --region Class.method[:LOOP]`` — run the detector on a
  while-language program and print the leak report;
* ``scan FILE [--auto-regions [--top K]] [--baseline FILE]`` — check
  many regions at once, triage findings by severity, gate on a
  suppression baseline;
* ``diff BEFORE AFTER`` — compare two analyses (source files or
  ``scan --json`` output) by finding fingerprint: new/fixed/unchanged;
* ``regions FILE`` — print the inferred candidate-region catalog;
* ``component FILE --method Class.method`` — synthesize a harness that
  calls a component entry method and check it as an artificial loop;
* ``rank FILE`` — rank the labelled loops by structural suspicion;
* ``loops FILE`` — list the labelled loops a user could check;
* ``compile FILE -o OUT.jbc`` — assemble a program to a bytecode
  container, which every command that reads a program also accepts;
* ``table1`` — run the full eight-application evaluation;
* ``casestudy APP|all`` — render a Section 5.2-style case study;
* ``run FILE`` — execute a program concretely and print Definition-1
  ground truth for a loop (``--loop LABEL`` plus ``--trips N``);
* ``serve`` — run the HTTP analysis daemon (``docs/api.md``);
* ``worker`` — run one fleet worker for ``serve --worker-hosts``.

The output flags are uniform across ``check``/``scan``/``regions``/
``diff`` (one shared parent parser): ``--json``, ``--canonical`` and
``--profile``.  Exit codes are uniform too — 0
clean, 1 findings, 2 usage or input error — and documented in every
subcommand's ``--help``.
"""

import argparse
import sys

from repro.bench.table1 import run_table1
from repro.core.detector import DetectorConfig
from repro.core.regions import candidate_loops, resolve_region
from repro.core.workers import validate_workers
from repro.errors import ReproError
from repro.javalib import JAVALIB_SOURCE
from repro.lang import parse_program
from repro.semantics.interp import FixedSchedule, Interpreter
from repro.semantics.leaks import analyze_trace


def _load_program(path, with_lib):
    if path.endswith(".jbc"):
        from repro.bytecode import load

        return load(path)
    with open(path) as handle:
        source = handle.read()
    if with_lib:
        source = JAVALIB_SOURCE + "\n" + source
    return parse_program(source)


def _cmd_compile(args):
    from repro.bytecode import check_container, assemble_program, dump

    program = _load_program(args.file, args.javalib)
    if args.optimize:
        from repro.ir.optimize import optimize_program

        stats = optimize_program(program)
        print(
            "optimizer: removed %d dead copies" % stats["dead_copies_removed"]
        )
    check_container(assemble_program(program))
    dump(program, args.output)
    print("wrote %s" % args.output)
    return 0


def _config_from(args):
    return DetectorConfig(
        callgraph=args.callgraph,
        demand_driven=args.demand_driven,
        budget=args.budget,
        context_depth=args.context_depth,
        max_contexts_per_site=args.max_contexts_per_site,
        library_condition=not args.no_library_condition,
        model_threads=args.model_threads,
        pivot=not args.no_pivot,
        model_resources=not args.no_model_resources,
        strong_updates=args.strong_updates,
    )


def _print_profile(stats_dict):
    from repro.core.pipeline.stats import stats_from_report

    print()
    print("-- pipeline profile --")
    print(stats_from_report(stats_dict).format())


def _resolve_region_or_suggest(program, spec_text):
    """Resolve a ``--region`` spec; on failure, print the error plus the
    nearest-match candidate regions from the inference catalog and
    return ``None`` (the caller exits 2)."""
    from repro.errors import ResolutionError

    try:
        return resolve_region(program, spec_text)
    except ResolutionError as exc:
        from repro.core.infer import suggest_regions

        print("error: %s" % exc, file=sys.stderr)
        matches = suggest_regions(program, spec_text)
        if matches:
            print("did you mean one of these regions?", file=sys.stderr)
            for match in matches:
                print("  --region %s" % match, file=sys.stderr)
        return None


def _cmd_check(args):
    from repro.core.pipeline import AnalysisSession

    program = _load_program(args.file, args.javalib)
    region = _resolve_region_or_suggest(program, args.region)
    if region is None:
        return 2
    report = AnalysisSession(program, _config_from(args)).check(region)
    if args.json:
        print(report.to_json(canonical=args.canonical))
    else:
        print(report.format())
        if args.profile:
            _print_profile(report.stats)
    return 1 if report.findings else 0


def _cmd_scan(args):
    from repro.core.infer import (
        load_baseline,
        partition_new,
        should_fail,
        write_baseline,
    )
    from repro.core.scan import scan_all_loops

    if args.auto_regions and (args.ranked or args.region):
        print(
            "error: --auto-regions replaces --ranked/--region "
            "(the inference pass picks the regions)",
            file=sys.stderr,
        )
        return 2
    if args.write_baseline and not args.baseline:
        print(
            "error: --write-baseline needs --baseline FILE to name the "
            "file to write",
            file=sys.stderr,
        )
        return 2
    program = _load_program(args.file, args.javalib)
    specs = None
    if args.region:
        specs = []
        for text in args.region:
            spec = _resolve_region_or_suggest(program, text)
            if spec is None:
                return 2
            specs.append(spec)
    baseline_fps = None
    if args.baseline and not args.write_baseline:
        baseline_fps = load_baseline(args.baseline)
    result = scan_all_loops(
        program,
        config=_config_from(args),
        ranked=args.ranked,
        limit=args.limit,
        specs=specs,
        auto_regions=args.auto_regions,
        top=args.top,
    )
    if args.auto_regions and not result.entries and not args.json:
        print("0 candidate regions (program has no checkable loops "
              "or component entries)")
        return 0
    if args.json:
        print(result.to_json(canonical=args.canonical))
    else:
        print(result.format())
        if args.profile:
            print()
            print("-- pipeline profile (all regions) --")
            print(result.aggregate_stats().format())
    if args.write_baseline:
        count = write_baseline(args.baseline, result.triage())
        print(
            "wrote baseline %s (%d suppressions)" % (args.baseline, count),
            file=sys.stderr,
        )
        return 0
    new, suppressed = partition_new(result.triage(), baseline_fps)
    if suppressed and not args.json:
        print(
            "baseline %s suppressed %d known findings (%d new)"
            % (args.baseline, len(suppressed), len(new))
        )
    return 1 if should_fail(new, args.fail_on_severity) else 0


def _cmd_rank(args):
    from repro.core.ranking import rank_loops

    program = _load_program(args.file, args.javalib)
    for entry in rank_loops(program):
        print(
            "%8.2f  %s:%s"
            % (entry.score, entry.spec.method_sig, entry.spec.loop_label)
        )
    return 0


def _cmd_loops(args):
    program = _load_program(args.file, args.javalib)
    specs = candidate_loops(program)
    if not specs:
        print("(no labelled loops)", file=sys.stderr)
        return 0
    for spec in specs:
        print("%s:%s" % (spec.method_sig, spec.loop_label))
    return 0


def _cmd_regions(args):
    from repro.core.pipeline import AnalysisSession

    program = _load_program(args.file, args.javalib)
    catalog = AnalysisSession(program, _config_from(args)).infer_catalog()
    if args.json:
        import json

        # The catalog dict is content-only (no timings), so the
        # canonical form coincides with the plain one.
        print(json.dumps(catalog.as_dict(), indent=2, sort_keys=True))
    else:
        print(catalog.format())
        if args.profile:
            print()
            print(
                "-- inference profile --\n%.3fs, %s"
                % (
                    catalog.seconds,
                    ", ".join(
                        "%s=%d" % item
                        for item in sorted(catalog.counters.items())
                    )
                    or "no counters",
                )
            )
    return 0


def _load_analysis(path, args):
    """One ``diff`` operand: a parsed ``scan --json`` document when
    ``path`` ends in ``.json``, otherwise a fresh scan of the
    while-language source under the current detector flags.  Returns
    ``(analysis, scan_result_or_None)``."""
    if path.endswith(".json"):
        import json

        from repro.core.diffing import scan_fingerprints

        with open(path) as handle:
            try:
                document = json.load(handle)
                scan_fingerprints(document)
            except (ValueError, ReproError) as exc:
                raise ReproError(
                    "%s is not a scan JSON document: %s" % (path, exc)
                ) from None
        return document, None
    from repro.core.scan import scan_all_loops

    program = _load_program(path, args.javalib)
    result = scan_all_loops(program, config=_config_from(args))
    return result, result


def _cmd_diff(args):
    from repro.core.diffing import diff_analyses

    before, before_scan = _load_analysis(args.before, args)
    after, after_scan = _load_analysis(args.after, args)
    delta = diff_analyses(before, after)
    if args.json:
        print(delta.to_json(canonical=args.canonical))
    else:
        print(delta.format())
        if args.profile:
            for label, scanned in (
                ("before", before_scan),
                ("after", after_scan),
            ):
                if scanned is not None:
                    print()
                    print("-- pipeline profile (%s) --" % label)
                    print(scanned.aggregate_stats().format())
    return 1 if delta.is_regression else 0


def _cmd_component(args):
    from repro.core.harness import check_component

    program = _load_program(args.file, args.javalib)
    setup = ""
    if args.setup:
        with open(args.setup) as handle:
            setup = handle.read()
    report = check_component(
        program, args.method, config=_config_from(args), setup_source=setup
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
        if args.profile:
            _print_profile(report.stats)
    return 1 if report.findings else 0


def _cmd_casestudy(args):
    from repro.bench.apps import app_names
    from repro.bench.casestudies import all_case_studies, case_study

    if args.app == "all":
        for study in all_case_studies():
            print(study.format())
            print()
        return 0
    if args.app not in app_names():
        print(
            "error: unknown app %r (choose from %s or 'all')"
            % (args.app, ", ".join(app_names())),
            file=sys.stderr,
        )
        return 2
    print(case_study(args.app).format())
    return 0


def _cmd_table1(args):
    table = run_table1()
    print(table.format())
    violations = table.shape_violations()
    for issue in violations:
        print("shape violation: %s" % issue, file=sys.stderr)
    return 1 if violations else 0


def _cmd_run(args):
    program = _load_program(args.file, args.javalib)
    schedule = FixedSchedule(default_trips=args.trips)
    trace = Interpreter(program, schedule=schedule).run()
    print(
        "executed: %d objects, %d stores, %d loads"
        % (len(trace.objects), len(trace.stores), len(trace.loads))
    )
    if args.loop:
        truth = analyze_trace(trace, args.loop)
        print("loop %s leaking sites: %s" % (args.loop, truth.leaking_sites()))
    return 0


def _cmd_serve(args):
    from repro.server.app import create_server, run_server

    if args.workers:
        # An invalid count raises AnalysisError, which main() renders
        # as exit 2.
        validate_workers(args.workers)
    worker_hosts = None
    if args.worker_hosts:
        from repro.server.remote import parse_hosts

        worker_hosts = [
            "%s:%d" % pair for pair in parse_hosts(args.worker_hosts)
        ]
    extra = {}
    if args.max_body is not None:
        extra["max_body"] = args.max_body
    server = create_server(
        host=args.host,
        port=args.port,
        config=_config_from(args),
        jobs=args.jobs,
        max_queue=args.max_queue,
        deadline_ms=args.deadline_ms,
        max_sessions=args.max_sessions,
        workers=args.workers,
        worker_hosts=worker_hosts,
        **extra,
    )
    host, port = server.server_address[:2]
    fleet = (
        "hosts=%s" % ",".join(worker_hosts)
        if worker_hosts
        else "workers=%d" % args.workers
    )
    print(
        "serving on http://%s:%d (jobs=%d, queue=%d, deadline=%s, %s)"
        % (
            host,
            port,
            args.jobs,
            args.max_queue,
            "%dms" % args.deadline_ms if args.deadline_ms else "none",
            fleet,
        ),
        flush=True,
    )
    run_server(server)
    return 0


def _cmd_worker(args):
    from repro.server.remote_worker import RemoteWorkerServer

    server = RemoteWorkerServer(host=args.host, port=args.port)
    # The announcement line is the contract spawn_worker() and the
    # fleet benchmark parse; keep its shape stable.
    print("worker listening on %s" % server.address, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


#: Uniform exit-code contract, shown in ``--help`` of every subcommand
#: that reports findings.
_EXIT_CODES = """\
exit codes:
  0  clean: no leak findings (check/scan after baseline gating),
     no new findings (diff), or nothing to report
  1  findings: leaks reported (check), new findings past the
     baseline gate (scan), new findings (diff)
  2  usage or input error: bad region spec, unreadable file,
     malformed flags
"""


def _deadline_ms(text):
    """``serve --deadline-ms``: what a request's ``deadline_ms`` accepts,
    a non-negative integer of milliseconds a deadline can be computed
    from."""
    try:
        value = int(text)
        float(value)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
    except OverflowError:
        raise argparse.ArgumentTypeError("too large for a deadline") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative: %s" % text)
    return value


def _int_from(low, high=None):
    """An argparse type for a count or port flag: an integer of at
    least ``low`` and, when given, at most ``high``.  A value outside
    exits 2 naming the flag, before the command starts anything."""
    expected = (
        "an integer >= %d" % low
        if high is None
        else "an integer from %d to %d" % (low, high)
    )

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(
                "expected %s, got %r" % (expected, text)
            )
        return value

    return parse


_PORT = _int_from(0, 65535)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leakchecker",
        description="Static memory leak detection for the while language "
        "(LeakChecker, CGO 2014 reproduction)",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One parent parser gives check/scan/regions/diff the same output
    # surface (argparse merges it into each subcommand).
    common = argparse.ArgumentParser(add_help=False)
    out_group = common.add_argument_group("output")
    out_group.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    out_group.add_argument(
        "--canonical",
        action="store_true",
        help="with --json, emit canonical run-independent JSON "
        "(timings zeroed, run-dependent counters dropped) — "
        "byte-stable across repeated runs",
    )
    out_group.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage timings and work counters",
    )

    def add_sub(name, help_text, **kwargs):
        return sub.add_parser(
            name,
            help=help_text,
            parents=[common],
            epilog=_EXIT_CODES,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            **kwargs,
        )

    def add_detector_flags(p):
        p.add_argument("--callgraph", choices=["rta", "cha", "otf"], default="rta")
        p.add_argument("--demand-driven", action="store_true")
        p.add_argument(
            "--budget",
            type=int,
            default=100_000,
            help="per-query budget for the demand-driven solver",
        )
        p.add_argument(
            "--context-depth",
            type=int,
            default=8,
            help="longest call string enumerated (k); code more than k "
            "calls below the region is not checked",
        )
        p.add_argument(
            "--max-contexts-per-site",
            type=int,
            default=64,
            help="cap on enumerated contexts per allocation site",
        )
        p.add_argument("--no-library-condition", action="store_true")
        p.add_argument("--model-threads", action="store_true")
        p.add_argument("--no-pivot", action="store_true")
        p.add_argument(
            "--no-model-resources",
            action="store_true",
            help="disable acquire/release tracking on resource classes "
            "(files, connections, sockets): no resource-leak findings",
        )
        p.add_argument(
            "--strong-updates",
            action="store_true",
            help="model destructive updates (x.f = null); see DetectorConfig",
        )
        p.add_argument(
            "--javalib",
            action="store_true",
            help="prepend the standard-library models to the program",
        )

    check = add_sub("check", "run the leak detector")
    check.add_argument("file", help="while-language source file")
    check.add_argument(
        "--region",
        required=True,
        help="Class.method:LOOP for a loop, Class.method for a region",
    )
    add_detector_flags(check)
    check.set_defaults(func=_cmd_check)

    component = sub.add_parser(
        "component",
        help="synthesize a harness and check a component entry method",
    )
    component.add_argument("file")
    component.add_argument(
        "--method", required=True, help="component entry, e.g. Plugin.run"
    )
    component.add_argument(
        "--setup",
        help="file with harness setup statements (uses recv/arg0..argN)",
    )
    component.add_argument("--json", action="store_true")
    component.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage timings and work counters",
    )
    add_detector_flags(component)
    component.set_defaults(func=_cmd_component)

    scan = add_sub("scan", "check every labelled loop (or inferred regions)")
    scan.add_argument("file")
    scan.add_argument("--ranked", action="store_true", help="most suspicious first")
    scan.add_argument("--limit", type=_int_from(0), default=None)
    scan.add_argument(
        "--region",
        action="append",
        default=None,
        help="check only this region (repeatable); unresolvable specs "
        "list the nearest candidate regions",
    )
    scan.add_argument(
        "--auto-regions",
        action="store_true",
        help="let static region inference pick the regions to check "
        "(no --region needed): every labelled loop plus the best "
        "component entry methods, ranked by suspicion",
    )
    scan.add_argument(
        "--top",
        type=_int_from(0),
        default=None,
        help="with --auto-regions, check only the K best-scored candidates",
    )
    scan.add_argument(
        "--baseline",
        default=None,
        help="suppression-baseline file: findings recorded there are "
        "suppressed, so the exit code gates on new leaks only",
    )
    scan.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline FILE and exit 0",
    )
    scan.add_argument(
        "--fail-on-severity",
        choices=["low", "medium", "high"],
        default="low",
        help="minimum severity of a new finding that fails the scan "
        "(default: low, i.e. any new finding)",
    )
    add_detector_flags(scan)
    scan.set_defaults(func=_cmd_scan)

    diff = add_sub(
        "diff",
        "compare two analyses by finding fingerprint (new/fixed/unchanged)",
    )
    diff.add_argument(
        "before",
        help="baseline analysis: a 'scan --json' output file (*.json) "
        "or a while-language source to scan now",
    )
    diff.add_argument(
        "after",
        help="candidate analysis: same forms as BEFORE",
    )
    add_detector_flags(diff)
    diff.set_defaults(func=_cmd_diff)

    rank = sub.add_parser("rank", help="rank loops by structural suspicion")
    rank.add_argument("file")
    rank.add_argument("--javalib", action="store_true")
    rank.set_defaults(func=_cmd_rank)

    regions = add_sub(
        "regions",
        "print the inferred candidate-region catalog (loops "
        "classified and scored, plus component entry methods)",
    )
    regions.add_argument("file")
    add_detector_flags(regions)
    regions.set_defaults(func=_cmd_regions)

    compile_ = sub.add_parser(
        "compile", help="assemble a program to a .jbc bytecode container"
    )
    compile_.add_argument("file")
    compile_.add_argument("--output", "-o", required=True)
    compile_.add_argument(
        "--optimize", "-O", action="store_true",
        help="run copy propagation and dead-copy elimination first",
    )
    compile_.add_argument("--javalib", action="store_true")
    compile_.set_defaults(func=_cmd_compile)

    loops = sub.add_parser("loops", help="list checkable loops")
    loops.add_argument("file")
    loops.add_argument("--javalib", action="store_true")
    loops.set_defaults(func=_cmd_loops)

    table1 = sub.add_parser("table1", help="run the eight-app evaluation")
    table1.set_defaults(func=_cmd_table1)

    casestudy = sub.add_parser(
        "casestudy", help="render a Section 5.2-style case study"
    )
    casestudy.add_argument("app", help="subject name, or 'all'")
    casestudy.set_defaults(func=_cmd_casestudy)

    run = sub.add_parser("run", help="execute concretely, report ground truth")
    run.add_argument("file")
    run.add_argument("--loop", help="loop label for Definition-1 analysis")
    run.add_argument("--trips", type=_int_from(0), default=3)
    run.add_argument("--javalib", action="store_true")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP analysis daemon",
        description="Long-running analysis service: POST /analyze, "
        "POST /diff, POST /analyze-batch (streamed NDJSON), "
        "GET /healthz, GET /metrics.  Repeat requests for "
        "an unchanged program are served from the warm session pool; "
        "requests past --deadline-ms degrade to the sound fallback "
        "answer instead of failing; a full queue answers 429 with "
        "Retry-After.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_PORT, default=8421, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--jobs",
        type=_int_from(1),
        default=1,
        help="concurrent analysis requests",
    )
    serve.add_argument(
        "--max-queue",
        type=_int_from(0),
        default=8,
        help="waiting requests beyond --jobs before answering 429",
    )
    serve.add_argument(
        "--deadline-ms",
        type=_deadline_ms,
        default=None,
        help="server-wide per-request analysis deadline; past it, "
        "demand-driven queries degrade to the whole-program fallback "
        "and the response is flagged degraded",
    )
    serve.add_argument(
        "--max-sessions",
        type=_int_from(1),
        default=8,
        help="distinct program texts kept warm before LRU eviction, "
        "those run on the fleet included",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fleet worker processes running the never-seen programs "
        "of POST /analyze-batch (0 serves batches in-process)",
    )
    serve.add_argument(
        "--worker-hosts",
        default=None,
        help="comma-separated host:port list of 'repro worker' "
        "processes to run POST /analyze-batch programs on instead of "
        "local workers; the fleet sizes itself to this list",
    )
    serve.add_argument(
        "--max-body",
        type=_int_from(1),
        default=None,
        help="largest accepted request body in bytes before answering "
        "413 (default 8 MiB)",
    )
    add_detector_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="run a fleet worker for 'serve --worker-hosts'",
        description="One multi-host fleet worker: listens for program "
        "tasks over the versioned TCP wire protocol and executes them "
        "with the same code path as the local fleet, so results are "
        "byte-identical wherever a program runs.  Announces "
        "'worker listening on HOST:PORT' on stdout once bound "
        "(--port 0 picks an ephemeral port).",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument(
        "--port", type=_PORT, default=8431, help="0 picks an ephemeral port"
    )
    worker.set_defaults(func=_cmd_worker)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
