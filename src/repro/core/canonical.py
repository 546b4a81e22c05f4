"""Canonical (run-independent) views of reports and scan results.

Two detector runs that agree on every *finding* still differ in
bookkeeping: wall-clock timings, and counters whose value depends on
what an earlier run, a concurrent worker, or a hydrated substrate
already computed (a warm store-edge index answers with hits where a
cold one counts misses).  Canonicalization zeroes the timings and drops
the cache-dependent counters, leaving exactly the run-independent
content — the representation under which serial, fanned-out and
pool-hydrated runs of the same program are byte-identical, and which
the golden regression corpus (``tests/golden/``) stores.
"""

import json

#: Counters whose values legitimately differ between equivalent runs:
#: query traffic and cache bookkeeping depend on execution order and on
#: what is already cached, while the analysis results do not.
VOLATILE_COUNTERS = (
    "var_queries",
    "heap_queries",
    "cfl_queries",
    "cfl_memo_hits",
    "budget_exhaustions",
    "deadline_expiries",
    "andersen_fallbacks",
    "store_edge_cache_hits",
    "store_edge_cache_misses",
    "region_cache_hits",
)


def _canonical_stats(stats):
    out = dict(stats)
    if "time_seconds" in out:
        out["time_seconds"] = 0.0
    if isinstance(out.get("stages"), dict):
        out["stages"] = {name: 0.0 for name in sorted(out["stages"])}
    if isinstance(out.get("counters"), dict):
        out["counters"] = {
            name: value
            for name, value in out["counters"].items()
            if name not in VOLATILE_COUNTERS
        }
    # The solver kernel's statistics are observability of how the
    # points-to solve ran, not part of the result.
    out.pop("kernel", None)
    return out


def canonical_report_dict(report_dict):
    """Run-independent form of ``LeakReport.as_dict()`` output."""
    out = dict(report_dict)
    if isinstance(out.get("stats"), dict):
        out["stats"] = _canonical_stats(out["stats"])
    return out


def canonical_scan_dict(scan_dict):
    """Run-independent form of ``ScanResult.as_dict()`` output.

    The severity triage and the region-inference counters
    (``infer_*``) are pure functions of the program, deterministic
    across runs, hash seeds, and scan backends — canonicalization keeps
    them verbatim; only timings and cache-dependent counters go.
    """
    out = dict(scan_dict)
    out["loops"] = [
        dict(entry, report=canonical_report_dict(entry["report"]))
        for entry in scan_dict.get("loops", ())
    ]
    if "triage" in out:
        out["triage"] = [dict(entry) for entry in out["triage"]]
    profile = out.get("profile")
    if isinstance(profile, dict):
        profile = dict(profile)
        if isinstance(profile.get("stages"), dict):
            profile["stages"] = {n: 0.0 for n in sorted(profile["stages"])}
        if isinstance(profile.get("counters"), dict):
            profile["counters"] = {
                name: value
                for name, value in profile["counters"].items()
                if name not in VOLATILE_COUNTERS
            }
        profile.pop("kernel", None)
        out["profile"] = profile
    return out


def canonical_json(doc, kind="report", indent=2):
    """Canonical JSON text for a report (``kind="report"``) or scan
    (``kind="scan"``) dict — the byte-comparable form."""
    canon = canonical_scan_dict(doc) if kind == "scan" else canonical_report_dict(doc)
    return json.dumps(canon, indent=indent, sort_keys=True)
