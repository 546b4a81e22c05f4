"""Points-to kernel benchmark: flat integer kernel vs the dict solver.

Standalone harness (``make bench-kernel``) writing ``BENCH_kernel.json``.
The dict solver is the differential-test oracle
(``tests/pta/andersen_oracle.py``); the ``legacy_*`` keys report it.
Three measurements:

* **cold solve** — per-app minimum-of-N Andersen solve time of both
  solvers on the eight Table-1 app models, plus the points-to-dense
  stress workload (:mod:`repro.bench.stress`).  The app models carry
  ~1-element points-to sets, so both solvers sit near parity there; the
  stress program's heap-threaded copy cycles are the regime the rewrite
  targets, and where the >=10x headline is earned.
* **per-worker warmup** — cost for a fleet worker to obtain a
  queryable points-to result: decoding the packed snapshot bytes in
  process (flat kernel, the mask blob viewed without a copy) vs
  unpickling and re-hydrating the dict solver's snapshot (what every
  worker paid before the flat kernel).
* **peak memory** — tracemalloc peak of each solver on the stress
  workload (the flat kernel's bitsets + interning tables vs the dict
  solver's per-node Python sets).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--output BENCH_kernel.json]
"""

import argparse
import json
import os
import pickle
import sys
import time
import tracemalloc

# The oracle lives in the test tree, next to the differential tests.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.bench.apps import all_apps  # noqa: E402
from repro.bench.stress import stress_program  # noqa: E402
from repro.callgraph.rta import build_rta  # noqa: E402
from repro.pta.kernel import (  # noqa: E402
    attach_snapshot,
    hydrate_flat,
    pack_snapshot,
    snapshot_flat,
    solve_flat,
)
from repro.pta.pag import PAG, VarNode  # noqa: E402
from tests.pta.andersen_oracle import AndersenResult  # noqa: E402
from tests.pta.andersen_oracle import solve as dict_solve  # noqa: E402

REPEATS = 5


def _pag(program):
    return PAG(program, build_rta(program))


def _time_solve(solver, program, repeats=REPEATS):
    """Minimum-of-N cold solve: a fresh PAG per run so no memoized
    flattening or solved state carries over."""
    best = float("inf")
    for _ in range(repeats):
        pag = _pag(program)
        start = time.perf_counter()
        solver(pag)
        best = min(best, time.perf_counter() - start)
    return best


def bench_cold_solves():
    rows = []
    for model in all_apps():
        legacy = _time_solve(dict_solve, model.program)
        flat = _time_solve(solve_flat, model.program)
        rows.append(
            {
                "app": model.name,
                "legacy_ms": round(legacy * 1e3, 3),
                "flat_ms": round(flat * 1e3, 3),
                "speedup": round(legacy / flat, 2) if flat else None,
            }
        )
    return rows


def bench_stress():
    program = stress_program()
    legacy = _time_solve(dict_solve, program, repeats=3)
    flat = _time_solve(solve_flat, program, repeats=3)
    result = solve_flat(_pag(program))
    return {
        "workload": "stress(hubs=4, sites_per_hub=96, chain_len=192)",
        "legacy_ms": round(legacy * 1e3, 2),
        "flat_ms": round(flat * 1e3, 2),
        "speedup": round(legacy / flat, 1),
        "meets_10x": legacy / flat >= 10.0,
        "kernel_stats": dict(result.stats),
    }


def bench_worker_warmup():
    """Time a worker's path to a queryable points-to result, both ways.

    The packed path is what a fleet worker (``serve --workers``) does
    with the snapshot pushed to it: decode the :func:`pack_snapshot`
    bytes in process and hydrate a :class:`FlatAndersenResult` whose
    mask table decodes lazily out of those bytes.  No shared memory is
    involved.  The baseline unpickles the dict solver oracle's
    sorted-lists snapshot and rebuilds its per-node Python sets, which
    is what a worker paid before the flat kernel existed.
    """
    program = stress_program()
    pag = _pag(program)
    flat_packed = pack_snapshot({"andersen": snapshot_flat(solve_flat(pag))})
    oracle = dict_solve(_pag(program))
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

    def attach_path():
        attached = attach_snapshot(flat_packed)
        return hydrate_flat(attached["andersen"])

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

    attach = min(_timed(attach_path) for _ in range(REPEATS))
    rehydrate = min(_timed(rehydrate_path) for _ in range(REPEATS))
    return {
        "flat_packed_bytes": len(flat_packed),
        "dict_pickled_bytes": len(dict_pickled),
        "packed_attach_ms": round(attach * 1e3, 3),
        "rehydrate_ms": round(rehydrate * 1e3, 3),
        "attach_fraction_of_rehydrate": round(attach / rehydrate, 3),
    }


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_peak_memory():
    program = stress_program()
    peaks = {}
    for name, solver in (("legacy", dict_solve), ("flat", solve_flat)):
        pag = _pag(program)
        tracemalloc.start()
        solver(pag)
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

    doc = {
        "cold_solve_apps": bench_cold_solves(),
        "cold_solve_stress": bench_stress(),
        "worker_warmup": bench_worker_warmup(),
        "peak_memory_stress": bench_peak_memory(),
    }
    with open(args.output, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    stress = doc["cold_solve_stress"]
    warm = doc["worker_warmup"]
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
        "worker warmup: packed attach %.3fms vs rehydrate %.3fms"
        % (warm["packed_attach_ms"], warm["rehydrate_ms"])
    )
    for row in doc["cold_solve_apps"]:
        print(
            "  %-20s legacy %7.3fms  flat %7.3fms  %5.2fx"
            % (row["app"], row["legacy_ms"], row["flat_ms"], row["speedup"])
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
