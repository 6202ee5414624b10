"""Tests of the benchmark itself, on tiny requests.

    python3 perfbench/smoke_check.py

Runs every workload in --smoke mode, untraced and traced, and checks that
the result line names exactly the metrics BENCHMARK.json declares, that
every output was judged correct, that two traced runs give the same
counts, that the self times plus the remainder add up to the traced
wall time, and that no calibration loop outlives its run.  Also checks the request streams: same seed, same requests;
every compute word is reduced and names the permutation it was drawn for.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, perm_of_word, requests_for  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibration_loops() -> list[str]:
    """Process ids of calibrate.py loops started from this checkout."""
    script = str(HERE / "calibrate.py").encode()
    pids = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            if script in (proc / "cmdline").read_bytes().split(b"\0"):
                pids.append(proc.name)
        except OSError:
            pass
    return pids


def _inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def check_streams() -> None:
    for workload in WORKLOADS:
        for smoke in (False, True):
            assert requests_for(workload, 5, smoke) == requests_for(workload, 5, smoke)
    for seed in range(5):
        for r in requests_for("compute_stream", seed):
            if "--word" in r.argv:
                word = r.argv[r.argv.index("--word") + 1]
                assert perm_of_word(word, r.n) == r.w, r.key
                assert len(word) == _inversions(r.w), r.key


def check_results() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        plain = bench(workload, 0)
        assert plain["correct"] and plain["failed"] == 0, plain
        assert set(plain["metrics"]) == e2e, set(plain["metrics"]) ^ e2e
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain
        assert not calibration_loops(), calibration_loops()
        traced = [bench(workload, 1) for _ in range(2)]
        for t in traced:
            assert t["correct"], t
            assert set(t["metrics"]) == layers, set(t["metrics"]) ^ layers
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "bytes")} for t in traced]
        assert counts[0] == counts[1], workload
        m = traced[0]["metrics"]
        total = sum(v["value"] for k, v in m.items() if k.startswith("layer.") and k.endswith(".self_s"))
        total += m["trace.hook_s"]["value"] + m["trace.remainder_s"]["value"]
        assert abs(total - m["trace.wall_s"]["value"]) < 1e-6, (total, m["trace.wall_s"])
        print(f"ok {workload}")


def check_no_sources() -> None:
    """Without src/ the benchmark fails fast and prints no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table_sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_streams()
    check_no_sources()
    check_results()
    print("smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
