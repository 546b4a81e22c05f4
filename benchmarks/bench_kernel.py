"""Points-to kernel benchmark: flat integer kernel vs the dict solver.

Standalone harness (``make bench-kernel``) writing ``BENCH_kernel.json``.
The dict solver is the differential-test oracle
(``tests/pta/andersen_oracle.py``); the ``legacy_*`` keys report it.
Every solve is timed from IR to solved points-to sets over a prebuilt
RTA call graph: the integer :class:`~repro.pta.pag.PAG` build plus
:func:`~repro.pta.kernel.solve_flat`, against the object graph of
``tests/pta/pag_oracle.py`` plus the dict solver.  Four measurements:

* **cold solve** — per-app median-of-N build-and-solve time of both
  sides on the thirteen corpus apps, and ``meets_parity`` when the flat
  side is at least as fast on every one of them.  The app models carry
  ~1-element points-to sets, so the solve itself is a few milliseconds
  either way;
* **stress** — the same on the points-to-dense stress workload
  (:mod:`repro.bench.stress`): heap-threaded copy cycles, the regime
  where the >=10x headline (``meets_10x``) is earned;
* **substrate load** — cost to obtain a queryable points-to result from
  stored substrate bytes (what the session pool does to re-check a
  known program): decoding and hydrating them (flat kernel, masks
  decoded lazily) vs unpickling and re-hydrating the dict solver's
  snapshot;
* **peak memory** — tracemalloc peak of each side's build and solve on
  the stress workload (the integer tables and bitsets vs the object
  graph and per-node Python sets).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--output BENCH_kernel.json]
"""

import argparse
import json
import os
import pickle
import statistics
import sys
import time
import tracemalloc

# The oracles live in the test tree, next to the differential tests.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.bench.apps import build_app, corpus_names  # noqa: E402
from repro.bench.stress import stress_program  # noqa: E402
from repro.callgraph.rta import build_rta  # noqa: E402
from repro.core.cache.digest import program_digest  # noqa: E402
from repro.core.cache.serialize import dump_shared, load_shared  # noqa: E402
from repro.core.config import DetectorConfig  # noqa: E402
from repro.core.pipeline.session import AnalysisSession  # noqa: E402
from repro.pta.kernel import analyze as flat_analyze  # noqa: E402
from repro.pta.pag import VarNode  # noqa: E402
from tests.pta.andersen_oracle import AndersenResult  # noqa: E402
from tests.pta.andersen_oracle import analyze as dict_analyze  # noqa: E402

REPEATS = 7

#: The two sides, each from IR and a call graph to solved points-to sets.
SIDES = (("legacy", dict_analyze), ("flat", flat_analyze))


def _time_sides(program, repeats=REPEATS):
    """Median build-and-solve seconds of each side, runs interleaved so a
    slow spell of a shared machine hits both alike."""
    callgraph = build_rta(program)
    samples = {name: [] for name, _ in SIDES}
    for _ in range(repeats):
        for name, analyze in SIDES:
            start = time.perf_counter()
            analyze(program, callgraph)
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(times) for name, times in samples.items()}


def bench_cold_solves():
    rows = []
    for name in corpus_names():
        times = _time_sides(build_app(name).program)
        legacy, flat = times["legacy"], times["flat"]
        rows.append(
            {
                "app": name,
                "legacy_ms": round(legacy * 1e3, 3),
                "flat_ms": round(flat * 1e3, 3),
                "speedup": round(legacy / flat, 2) if flat else None,
            }
        )
    return rows


def bench_stress():
    program = stress_program()
    times = _time_sides(program, repeats=3)
    legacy, flat = times["legacy"], times["flat"]
    result = flat_analyze(program, build_rta(program))
    return {
        "workload": "stress(hubs=4, sites_per_hub=96, chain_len=192)",
        "legacy_ms": round(legacy * 1e3, 2),
        "flat_ms": round(flat * 1e3, 2),
        "speedup": round(legacy / flat, 1),
        "meets_10x": legacy / flat >= 10.0,
        "kernel_stats": dict(result.stats),
    }


def bench_substrate_load():
    """Time the path from stored bytes to a queryable points-to result,
    both ways.

    The substrate path is what the session pool does with a known
    program's bytes: :func:`load_shared` decodes them and hydrates the
    call graph, the per-method indexes and a :class:`FlatAndersenResult`
    whose mask table decodes lazily.  The baseline unpickles the dict
    solver oracle's sorted-lists snapshot and rebuilds its per-node
    Python sets — points-to alone.
    """
    program = stress_program()
    config = DetectorConfig()
    digest = program_digest(program)
    substrate = dump_shared(
        AnalysisSession(program, config).warm().shared, digest
    )
    oracle = dict_analyze(program, build_rta(program))
    dict_snapshot = {
        "vars": sorted(
            (node.method_sig, node.name, sorted(sites))
            for node, sites in oracle._var_pts.items()
        ),
        "fields": sorted(
            (site, field, sorted(targets))
            for (site, field), targets in oracle._field_pts.items()
        ),
    }
    dict_pickled = pickle.dumps(dict_snapshot, protocol=pickle.HIGHEST_PROTOCOL)

    def load_path():
        return load_shared(program, config, substrate, program_dig=digest)

    def rehydrate_path():
        copy = pickle.loads(dict_pickled)
        var_pts = {
            VarNode(sig, name): frozenset(sites)
            for sig, name, sites in copy["vars"]
        }
        field_pts = {
            (site, field): frozenset(targets)
            for site, field, targets in copy["fields"]
        }
        return AndersenResult(None, var_pts, field_pts)

    load = min(_timed(load_path) for _ in range(REPEATS))
    rehydrate = min(_timed(rehydrate_path) for _ in range(REPEATS))
    return {
        "substrate_bytes": len(substrate),
        "dict_pickled_bytes": len(dict_pickled),
        "substrate_load_ms": round(load * 1e3, 3),
        "rehydrate_ms": round(rehydrate * 1e3, 3),
        "load_fraction_of_rehydrate": round(load / rehydrate, 3),
    }


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_peak_memory():
    program = stress_program()
    callgraph = build_rta(program)
    peaks = {}
    for name, analyze in SIDES:
        tracemalloc.start()
        analyze(program, callgraph)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks["%s_peak_kb" % name] = round(peak / 1024.0, 1)
    peaks["flat_fraction_of_legacy"] = round(
        peaks["flat_peak_kb"] / peaks["legacy_peak_kb"], 3
    )
    return peaks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_kernel.json")
    args = parser.parse_args(argv)

    rows = bench_cold_solves()
    doc = {
        "cold_solve_apps": rows,
        "meets_parity": all(row["flat_ms"] <= row["legacy_ms"] for row in rows),
        "cold_solve_stress": bench_stress(),
        "substrate_load": bench_substrate_load(),
        "peak_memory_stress": bench_peak_memory(),
    }
    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    stress = doc["cold_solve_stress"]
    load = doc["substrate_load"]
    print("wrote %s" % args.output)
    print(
        "stress: legacy %.1fms / flat %.1fms = %.1fx (meets_10x=%s)"
        % (
            stress["legacy_ms"],
            stress["flat_ms"],
            stress["speedup"],
            stress["meets_10x"],
        )
    )
    print(
        "substrate load %.3fms vs rehydrate %.3fms"
        % (load["substrate_load_ms"], load["rehydrate_ms"])
    )
    print("apps, IR to solved (meets_parity=%s):" % doc["meets_parity"])
    for row in rows:
        print(
            "  %-20s legacy %7.3fms  flat %7.3fms  %5.2fx"
            % (row["app"], row["legacy_ms"], row["flat_ms"], row["speedup"])
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
