"""Points-to kernel benchmark: flat integer kernel vs the dict solver.

Standalone harness (``make bench-kernel``) writing ``BENCH_kernel.json``
with three measurements the ISSUE's acceptance criteria name:

* **cold solve** — per-app minimum-of-N Andersen solve time under both
  kernels on the eight Table-1 app models, plus the points-to-dense
  stress workload (:mod:`repro.bench.stress`).  The app models carry
  ~1-element points-to sets, so both kernels sit near parity there; the
  stress program's heap-threaded copy cycles are the regime the rewrite
  targets, and where the >=10x headline is earned.
* **per-worker warmup** — cost for a process-pool worker to obtain a
  queryable points-to result: attaching the packed shared-memory
  snapshot (flat kernel, zero-copy mask blob) vs unpickling and
  re-hydrating a per-worker snapshot copy (the fallback every worker
  paid before).
* **peak memory** — tracemalloc peak of each solver on the stress
  workload (the flat kernel's bitsets + interning tables vs the dict
  solver's per-node Python sets).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--output BENCH_kernel.json]
"""

import argparse
import json
import pickle
import time
import tracemalloc

from repro.bench.apps import all_apps
from repro.bench.stress import stress_program
from repro.callgraph.rta import build_rta
from repro.pta.andersen import solve as dict_solve
from repro.pta.kernel import (
    attach_snapshot,
    hydrate_flat,
    pack_snapshot,
    snapshot_flat,
    solve_flat,
)
from repro.pta.pag import PAG

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

    The shared-memory path is what process fleet workers (``scan
    --parallel``, ``serve --workers``) now do: attach the packed block
    and hydrate a :class:`FlatAndersenResult` whose mask table lazily
    decodes straight out of the shared buffer.  The baseline is what every worker paid
    before the flat kernel existed: unpickle its own copy of the
    dict-kind snapshot and rebuild the per-node Python sets.
    """
    from repro.core.cache.serialize import _hydrate_andersen, _snapshot_andersen

    program = stress_program()
    pag = _pag(program)
    flat_packed = pack_snapshot({"andersen": snapshot_flat(solve_flat(pag))})
    dict_snapshot = {"andersen": _snapshot_andersen(dict_solve(_pag(program)))}
    dict_pickled = pickle.dumps(dict_snapshot, protocol=pickle.HIGHEST_PROTOCOL)

    def attach_path():
        attached = attach_snapshot(flat_packed)
        return hydrate_flat(attached["andersen"])

    def rehydrate_path():
        copy = pickle.loads(dict_pickled)
        return _hydrate_andersen(copy["andersen"])

    attach = min(_timed(attach_path) for _ in range(REPEATS))
    rehydrate = min(_timed(rehydrate_path) for _ in range(REPEATS))
    return {
        "flat_packed_bytes": len(flat_packed),
        "dict_pickled_bytes": len(dict_pickled),
        "shm_attach_ms": round(attach * 1e3, 3),
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
        "worker warmup: shm attach %.3fms vs rehydrate %.3fms"
        % (warm["shm_attach_ms"], warm["rehydrate_ms"])
    )
    for row in doc["cold_solve_apps"]:
        print(
            "  %-20s legacy %7.3fms  flat %7.3fms  %5.2fx"
            % (row["app"], row["legacy_ms"], row["flat_ms"], row["speedup"])
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
