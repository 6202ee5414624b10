"""Summarise the result files of many runs into perfbench/BASELINE.json.

    python3 perfbench/baseline.py [RESULTS_DIR]

RESULTS_DIR defaults to .perfbench/results.  For each workload it takes
every untraced, non-smoke run and gives, per end-to-end metric, the
values, median, quartiles and spread (interquartile distance over the
median).  From the traced runs it gives the per-layer table (median per
metric), whether the counts repeated exactly, the tracing overhead and the
per-function spans of the first traced run.  Which end-to-end metric
each layer metric should move is in README.md.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str]) -> int:
    results = Path(argv[0]) if argv else HERE.parent / ".perfbench" / "results"
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    records = [r for r in records if not r["smoke"]]
    out: dict = {"stamp": records[0]["stamp"] if records else {}, "workloads": {}}
    for wl in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == wl and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == wl and r["trace"] == 1]
        entry: dict = {"runs": len(plain), "seeds": sorted(r["seed"] for r in plain),
                       "failed": sum(r["result"]["failed"] for r in plain + traced), "end_to_end": {}}
        for name in (plain[0]["result"]["metrics"] if plain else {}):
            vals = [r["result"]["metrics"][name]["value"] for r in plain]
            entry["end_to_end"][name] = {"unit": plain[0]["result"]["metrics"][name]["unit"], **quartiles(vals)}
        if traced:
            metrics = [t["result"]["metrics"] for t in traced]
            counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "bytes")}
                      for m in metrics]
            by_seed: dict = {}
            for t, c in zip(traced, counts):
                by_seed.setdefault(t["seed"], []).append(c)
            entry["traced_runs"] = len(traced)
            entry["counts_repeat"] = all(all(c == cs[0] for c in cs) for cs in by_seed.values())
            entry["per_layer"] = {k: {"unit": v["unit"], "median": statistics.median(m[k]["value"] for m in metrics)}
                                  for k, v in metrics[0].items()}
            entry["functions_first_traced_run"] = dict(sorted(
                traced[0]["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:40])
        out["workloads"][wl] = entry
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
