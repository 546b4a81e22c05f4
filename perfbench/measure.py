"""Timing helpers: the closed loop, set-up timing and summaries."""

import os
import resource
import statistics
import subprocess
import sys
import time

#: Set-ups timed before the measured loop; one more is timed between its
#: rounds every ``SETUP_EVERY`` seconds, so that the set-up times sample
#: the machine across the whole run.  The run reports their median.
SETUP_REPEATS = 4
SETUP_EVERY = 2.0

#: Seconds :func:`reference_unit` takes on a quiet 2.1 GHz Xeon under
#: CPython 3.11.  Reported times are scaled to a machine that fast.
REFERENCE_SECONDS = 0.0014

#: Region pipeline stages whose timings every analysis path returns in
#: its profile (``LeakReport.stats["stages"]``).
STAGES = (
    "contexts",
    "region_stmts",
    "summaries",
    "store_edges",
    "flows_out",
    "flows_in",
    "matching",
    "pivot",
    "resources",
)

#: Work counters from the same profile, reported per operation.
COUNTERS = (
    "var_queries",
    "heap_queries",
    "contexts_enumerated",
    "store_edges",
    "flow_pairs_matched",
    "summary_scoped_solves",
    "summary_prefilter_hits",
)


def child_env(root):
    """Environment for processes running the repository's sources."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_library(root):
    """A fresh interpreter imports the analysis library: the start-up
    every command-line check pays."""
    subprocess.run(
        [sys.executable, "-c", "import repro.core.scan, repro.lang"],
        cwd=root,
        env=child_env(root),
        check=True,
        timeout=120,
    )


def profile_layers(stages, counters):
    """Per-layer values of one operation from a scan profile."""
    layers = {
        "stage_%s_ms" % name: stages.get(name, 0.0) * 1000.0
        for name in STAGES
    }
    for name in COUNTERS:
        layers[name] = counters.get(name, 0)
    return layers


def reference_unit():
    """Seconds one fixed unit of interpreter work takes: dictionary
    updates, string formatting and sorting, no repository code."""
    started = time.perf_counter()
    table = {}
    for i in range(4000):
        key = "k%d" % (i * 7919 % 1009)
        table[key] = table.get(key, 0) + i
    total = 0
    for key, value in sorted(table.items()):
        total += len(key) + value % 13
    return time.perf_counter() - started


def speed_scale():
    """The factor that converts seconds measured now into seconds on the
    reference machine.

    Machines shared with other tenants run every instruction up to 1.8x
    slower for seconds at a time.  The reference unit slows with them,
    so a time scaled by this factor measures the program and not its
    neighbours.
    """
    now = statistics.median(reference_unit() for _ in range(3))
    return REFERENCE_SECONDS / now


def scaled_setup(setup):
    """Seconds ``setup()`` took, scaled to the reference machine."""
    scale = speed_scale()
    started = time.perf_counter()
    setup()
    return (time.perf_counter() - started) * scale


class Loop:
    """A closed loop of one client: the next operation starts when the
    previous one has returned.

    ``op(item)`` performs one operation and returns a callable that
    checks its output (so checking stays outside the timed interval)
    and returns ``(ok, layers)``; ``layers`` maps per-layer metric names
    to this operation's values.  ``key(item)`` names the program an
    operation served; scaled latencies are kept per program.
    """

    def __init__(self, key):
        self.key = key
        self.latencies = []
        self.samples = {}
        self.failed = 0
        self.layer_totals = {}

    def run(self, rounds, op, seconds, between=None):
        """Run whole rounds until ``seconds`` of them have passed, taking
        the machine's speed before each round.

        ``between()``, when given, runs after a round every
        ``SETUP_EVERY`` seconds; its own time does not count towards
        ``seconds``.
        """
        spent = 0.0
        last = time.perf_counter()
        for items in rounds:
            scale = speed_scale()
            began = time.perf_counter()
            for item in items:
                self.once(op, item, scale)
            now = time.perf_counter()
            spent += now - began
            if spent >= seconds:
                return self
            if between is not None and now - last >= SETUP_EVERY:
                between()
                last = time.perf_counter()

    def once(self, op, item, scale):
        began = time.perf_counter()
        try:
            verify = op(item)
            elapsed = time.perf_counter() - began
            ok, layers = verify()
        except Exception as exc:  # noqa: BLE001 - a failure is a result
            elapsed = time.perf_counter() - began
            print("operation failed: %r" % (exc,), file=sys.stderr)
            ok, layers = False, {}
        self.latencies.append(elapsed)
        self.samples.setdefault(self.key(item), []).append(elapsed * scale)
        if not ok:
            self.failed += 1
        for name, value in layers.items():
            self.layer_totals[name] = self.layer_totals.get(name, 0) + value

    def layer_means(self):
        count = len(self.latencies)
        return {
            name: total / count for name, total in self.layer_totals.items()
        }


def latency_metrics(samples):
    """``latency_ms``: the median over programs of each program's median
    scaled latency; ``pass_ms``: their sum, one pass over every program."""
    medians = [statistics.median(values) * 1000.0 for values in samples.values()]
    return {"latency_ms": statistics.median(medians), "pass_ms": sum(medians)}


def peak_rss_mb(who):
    """Peak resident set size in MiB of this process (``"self"``) or of
    the largest waited-for child process (``"children"``)."""
    scope = resource.RUSAGE_SELF if who == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(scope).ru_maxrss / 1024.0
