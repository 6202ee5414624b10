"""grothpoly benchmark: drive the real CLI, one fresh process per request.

    python3 perfbench/run.py --workload compute_stream --seed 1 --seconds 30 --trace 0

A closed loop with one client: the next request starts when the previous
one has exited.  The stream of requests is repeated while another pass
fits in ``--seconds`` (at least one pass).  Every output is checked.

``--trace 0`` reports the end-to-end metrics, scaled to a reference speed
of the machine that perfbench/calibrate.py measures beside each request
(see ``Speed``).  ``--trace 1`` runs one untraced and one traced pass,
where every request runs under perfbench/tracer.py, and reports the
per-layer metrics plus the tracing overhead.  ``--smoke`` shrinks every workload to a few small requests.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A full record (machine stamp, per-request latencies, per-function trace
table) goes to .perfbench/results/ under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import mmap
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import RECORD  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, Request, requests_for  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_EDGE = 3  # import probes before and after the passes
SETUP_SPREAD = 8  # import probes spread through the first pass
KEEP_BYTES = 1 << 20  # stdout kept for inspection; all of it is hashed
DEFAULT_SEED = 0
# calibration units per CPU second of the core at the reference speed; the
# baseline machine gave 4000-8000 (see README.md)
REF_SPEED = 5500.0
MIN_CALIB_CPU_S = 0.002  # a window with less calibration CPU time reuses the last speed
_MS_FIELD = re.compile(r',"ms":[-+0-9.eE]+')


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("GROTHPOLY_KERNEL", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(var, None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src
    env["GROTHPOLY_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Speed:
    """The speed of the benchmark's core, read from perfbench/calibrate.py.

    The benchmark process pins itself to one core, so every request
    process and the calibration loop share it.  ``factor`` over a window
    is the loop's units per CPU second divided by REF_SPEED; a time
    measured in that window times the factor is the time it would take
    at the reference speed.  Request and loop run in interleaved slices
    of the same core, so both see the same phases of a shared host.
    """

    def __init__(self, scratch: Path):
        path = scratch / "calibrate.bin"
        path.write_bytes(bytes(RECORD.size))
        with open(path, "rb") as f:
            self.counter = mmap.mmap(f.fileno(), RECORD.size, access=mmap.ACCESS_READ)
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py"), str(path)],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.last = 1.0
        start = self.read()
        time.sleep(0.3)
        self.factor(start, self.read())
        if self.read()[0] == 0:
            self.close()
            raise RuntimeError("the calibration loop did not start")

    def read(self) -> tuple[float, float]:
        while True:
            units, cpu_s, again = RECORD.unpack(self.counter[:])
            if units == again:
                return units, cpu_s

    def factor(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        cpu_s = b[1] - a[1]
        if cpu_s >= MIN_CALIB_CPU_S:
            self.last = (b[0] - a[0]) / cpu_s / REF_SPEED
        return self.last

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.counter.close()


@dataclass
class Outcome:
    latency_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    digest: str  # sha256 of all of stdout
    out: bytes  # its first KEEP_BYTES
    err: bytes
    factor: float = 1.0  # Speed.factor over the request, 1.0 without a Speed


def run_child(argv: list[str], env: dict, deadline: float, scratch: Path,
              speed: Speed | None = None) -> Outcome:
    """Run one process to completion; rusage comes from wait4.

    stdout is hashed as it streams in rather than held: a child's peak RSS
    as wait4 reports it includes the parent's RSS at fork time.
    """
    err_path = scratch / "stderr.txt"
    timeout = max(0.1, deadline - time.perf_counter())
    digest = hashlib.sha256()
    kept = bytearray()
    with open(err_path, "wb") as err:
        before = speed.read() if speed else None
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            while chunk := proc.stdout.read1(1 << 16):
                digest.update(chunk)
                if len(kept) < KEEP_BYTES:
                    kept += chunk[: KEEP_BYTES - len(kept)]
            proc.stdout.close()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
        factor = speed.factor(before, speed.read()) if speed else 1.0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Outcome(t1 - t0, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, code,
                   digest.hexdigest(), bytes(kept), err_path.read_bytes(), factor)


class SetupProbe:
    """Wall time of fresh ``import grothpoly.cli`` processes.

    The first probe compiles the .pyc files and is not counted.  The
    counted probes are spread over the whole run, because the speed of a
    shared machine can change in phases of seconds.  ``times`` are scaled
    by the Speed, if any; ``raw_times`` are not.
    """

    def __init__(self, env: dict, scratch: Path, speed: Speed | None = None):
        self.env, self.scratch, self.speed = env, scratch, speed
        code = ("import grothpoly, grothpoly.cli; "
                "print(getattr(grothpoly, 'kernel_name', lambda: 'python')())")
        warm = run_child([sys.executable, "-c", code], env, time.perf_counter() + 60, scratch)
        if warm.code != 0:
            raise RuntimeError("cannot import grothpoly.cli: " + warm.err.decode(errors="replace")[-500:])
        self.kernel = warm.out.decode().strip()
        self.times: list[float] = []
        self.raw_times: list[float] = []

    def probe(self, count: int = 1) -> float:
        """Take ``count`` probes; returns the time they took."""
        t0 = time.perf_counter()
        for _ in range(count):
            res = run_child([sys.executable, "-c", "import grothpoly.cli"], self.env,
                            time.perf_counter() + 60, self.scratch, self.speed)
            self.times.append(res.latency_s * res.factor)
            self.raw_times.append(res.latency_s)
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_goldens() -> dict:
    with open(HERE / "goldens.json") as f:
        return json.load(f)


class Checker:
    """Decides, per request, whether an exit code and stdout are right."""

    def __init__(self, workload: str, requests: list[Request], goldens: dict,
                 env: dict, scratch: Path, deadline: float):
        self.workload = workload
        self.expected: dict[str, str] = {}  # request key -> sha256 of stdout
        if workload == "verify_catalog":
            self.verify_lines = goldens["verify"][str(requests[0].n)]
            return
        if workload == "table_sweep":
            for r in requests:
                self.expected[r.key] = goldens["table"][r.key]
            return
        by_argv = {**goldens["compute_seed0"], **goldens["compute_ideal"]}
        pending = []
        for r in requests:
            digest = by_argv.get(r.key) or goldens["compute_n5"].get(r.member_key)
            if digest:
                self.expected[r.key] = digest
            else:
                pending.append(r)
        if pending:
            try:
                self.expected.update(table_oracle(pending, env, scratch, deadline))
            except RuntimeError as e:
                # no expected answer: those requests count as failed
                sys.stderr.write(f"{e}\n")

    def ok(self, req: Request, res: Outcome) -> bool:
        if res.code != 0:
            return False
        if self.workload == "verify_catalog":
            lines = [_MS_FIELD.sub("", line, count=1) for line in res.out.decode(errors="replace").splitlines()]
            return lines == self.verify_lines
        return res.digest == self.expected.get(req.key)


def table_oracle(pending: list[Request], env: dict, scratch: Path, deadline: float) -> dict[str, str]:
    """sha256 of each request's expected stdout: its ``w`` row of
    ``table --format json``, rendered in the request's format."""
    job = [{"key": r.key, "table": list(r.table_argv()), "w": list(r.w), "fmt": r.fmt} for r in pending]
    job_path, out_path = scratch / "oracle_in.json", scratch / "oracle_out.json"
    job_path.write_text(json.dumps(job))
    res = run_child([sys.executable, str(HERE / "oracle.py"), str(job_path), str(out_path)],
                    env, deadline, scratch)
    if res.code != 0:
        raise RuntimeError("table oracle failed: " + res.err.decode(errors="replace")[-500:])
    return json.loads(out_path.read_text())


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0  # raw wall time of the whole pass, set-up probes left out
    cpu_s: float = 0.0  # scaled by the Speed, as are latencies
    raw_cpu_s: float = 0.0
    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    verify_ms: dict = field(default_factory=dict)


def run_pass(requests: list[Request], checker: Checker, env: dict, deadline: float,
             scratch: Path, trace: "TraceSum | None" = None, setup: SetupProbe | None = None,
             speed: Speed | None = None) -> Pass:
    """One closed-loop pass.  Set-up probes, if any, are interleaved and
    their time is left out of the pass's wall time."""
    p = Pass()
    step = max(1, len(requests) // SETUP_SPREAD)
    probe_s = 0.0
    t0 = time.perf_counter()
    for i, r in enumerate(requests):
        if setup is not None and i % step == 0 and i > 0:
            probe_s += setup.probe()
        if trace is None:
            argv = [sys.executable, "-m", "grothpoly", *r.argv]
        else:
            trace_path = scratch / "trace.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *r.argv]
        res = run_child(argv, env, deadline, scratch, speed)
        p.latencies.append(res.latency_s * res.factor)
        p.raw_latencies.append(res.latency_s)
        p.factors.append(res.factor)
        p.cpu_s += res.cpu_s * res.factor
        p.raw_cpu_s += res.cpu_s
        p.rss_kb.append(res.maxrss_kb)
        if not checker.ok(r, res):
            p.failed.append(r.key)
            sys.stderr.write(f"FAILED: {r.key} (exit {res.code})\n{res.err.decode(errors='replace')[-300:]}\n")
        if r.argv[0] == "verify" and r.key not in p.failed:
            for line in res.out.decode().splitlines():
                obj = json.loads(line)
                p.verify_ms[obj["id"]] = obj["ms"]
        if trace is not None and trace_path.exists():
            trace.add(json.loads(trace_path.read_text()))
            trace_path.unlink()
    p.wall_s = time.perf_counter() - t0 - probe_s
    return p


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: with 100 values, q=0.9 leaves 10 values above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# traced metrics
# ---------------------------------------------------------------------------

LAYER_LABEL = {"_termkernel_py": "kernel", "_packing": "packing"}


class TraceSum:
    """Per-function spans and counters summed over the requests of a pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.build_s: dict[str, float] = {}
        self.hook_s = 0.0

    def add(self, rec: dict) -> None:
        for name, (calls, self_s, incl_s) in rec["stats"].items():
            agg = self.stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += incl_s
        for name, v in rec["counters"].items():
            if name == "classical.mu_cache.entries":
                # a per-process cache: report the largest one
                self.counters[name] = max(self.counters.get(name, 0), v)
            else:
                self.counters[name] = self.counters.get(name, 0) + v
        for name, v in rec["build_s"].items():
            self.build_s[name] = self.build_s.get(name, 0.0) + v
        self.hook_s += rec["hook_s"]

    def calls(self, fn: str) -> int:
        return self.stats.get(fn, [0, 0.0, 0.0])[0]

    def self_s(self, fn: str) -> float:
        return self.stats.get(fn, [0, 0.0, 0.0])[1]

    def incl_s(self, fn: str) -> float:
        return self.stats.get(fn, [0, 0.0, 0.0])[2]


def layer_metrics(t: TraceSum, untraced: Pass, traced: Pass, check_ids: list[str]) -> dict:
    m: dict[str, tuple[float, str]] = {}

    def span(label: str, fn: str) -> None:
        m[label + ".calls"] = (t.calls(fn), "count")
        m[label + ".self_s"] = (t.self_s(fn), "s")

    def counter(name: str) -> None:
        m[name] = (t.counters.get(name, 0), "count")

    span("classical.reduce", "classical.NormalFormContext.reduce")
    counter("classical.reduce.terms_in")
    counter("classical.reduce.terms_out")
    span("classical.pairing0", "classical.pairing0")
    counter("classical.mu_cache.entries")
    for label, fn in (("classical.family_table", "classical.family_table"),
                      ("quantum.quantum_table", "quantum.quantum_table")):
        calls = t.calls(fn)
        builds = t.counters.get(fn + ".builds", 0)
        m[label + ".calls"] = (calls, "count")
        m[label + ".builds"] = (builds, "count")
        m[label + ".hit_ratio"] = ((calls - builds) / calls if calls else 0.0, "ratio")
        m[label + ".build_s"] = (t.build_s.get(fn, 0.0), "s")
    for kind in ("del", "pi_plus", "pi_minus"):
        counter("divdiff.apply_op.calls." + kind)
    m["divdiff.apply_op.self_s"] = (t.self_s("divdiff.apply_op"), "s")
    m["divdiff.apply_op.incl_s"] = (t.incl_s("divdiff.apply_op"), "s")
    for side in ("lower", "upper"):
        span("perms.bruhat_" + side, "perms.bruhat_" + side)
        counter(f"perms.bruhat_{side}.size")
    m["perms.bruhat_leq.calls"] = (t.calls("perms.bruhat_leq"), "count")
    for fn in ("mul", "addmul", "divdiff", "swap", "prune"):
        span("kernel." + fn, "_termkernel_py." + fn)
    counter("kernel.mul.term_products")
    counter("kernel.addmul.terms")
    for fmt, fn in (("text", "text"), ("latex", "latex"), ("json", "json_obj")):
        span("poly.render." + fmt, "poly.MultiPoly." + fn)
        m[f"poly.render.{fmt}.bytes"] = (t.counters.get(f"poly.render.{fmt}.bytes", 0), "bytes")
    span("packing.unpack", "_packing.unpack")
    span("poly.substitute", "poly.MultiPoly.substitute")
    rat = [fn for fn in t.stats if fn.startswith("poly.RatExpr.")]
    m["poly.ratexpr.ops"] = (sum(t.calls(fn) for fn in rat), "count")
    m["poly.ratexpr.self_s"] = (sum(t.self_s(fn) for fn in rat), "s")
    for fn in ("apply_X", "quantize", "eval_at_X"):
        span("quantum." + fn, "quantum." + fn)
    for cid in check_ids:
        m[f"verify.{cid}.ms"] = (float(untraced.verify_ms.get(cid, 0.0)), "ms")
    spans_self = 0.0
    for layer in LAYERS:
        fns = [fn for fn in t.stats if fn.startswith(layer + ".")]
        label = LAYER_LABEL.get(layer, layer)
        m[f"layer.{label}.calls"] = (sum(t.calls(fn) for fn in fns), "count")
        self_s = sum(t.self_s(fn) for fn in fns)
        m[f"layer.{label}.self_s"] = (self_s, "s")
        spans_self += self_s
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced.wall_s, "s")
    m["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    m["trace.hook_s"] = (t.hook_s, "s")
    # what no span covers: interpreter start, imports, tracer set-up, exit
    m["trace.remainder_s"] = (traced.wall_s - spans_self - t.hook_s, "s")
    return m


# ---------------------------------------------------------------------------
# stamp and main
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark also runs from exported trees, which have no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def stamp(kernel: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "kernel": kernel,
        "commit": git_commit(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny requests, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "grothpoly" / "cli.py").is_file():
        print(f"no grothpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    # one core for this process, the calibration loop and every request
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = ROOT / ".perfbench"
    scratch = out_dir / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    speed = None
    try:
        if args.trace == 0:
            speed = Speed(scratch)
        return _run(args, deadline, out_dir, scratch, speed)
    finally:
        if speed is not None:
            speed.close()
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args: argparse.Namespace, deadline: float, out_dir: Path, scratch: Path,
         speed: Speed | None) -> int:
    env = child_env()
    setup = SetupProbe(env, scratch, speed)
    goldens = load_goldens()
    requests = requests_for(args.workload, args.seed, args.smoke)
    checker = Checker(args.workload, requests, goldens, env, scratch, deadline)
    check_ids = [json.loads(line)["id"] for line in goldens["verify"]["4"]]

    record = {"stamp": stamp(setup.kernel), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "requests": len(requests)}
    if args.trace == 0:
        passes = []
        setup.probe(SETUP_EDGE)
        t0 = time.perf_counter()
        while True:
            p = run_pass(requests, checker, env, deadline, scratch,
                         setup=None if passes else setup, speed=speed)
            passes.append(p)
            elapsed = time.perf_counter() - t0
            if elapsed + p.wall_s > args.seconds or time.perf_counter() + p.wall_s > deadline:
                break
        setup.probe(SETUP_EDGE)
        latencies = [x for p in passes for x in p.latencies]
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "wall_s": (statistics.median(sum(p.latencies) for p in passes), "s"),
            "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
            "req_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
            "req_p90_ms": (percentile(latencies, 0.9) * 1000.0, "ms"),
            "peak_rss_mb": (max(max(p.rss_kb) for p in passes) / 1024.0, "MB"),
        }
        record["ref_speed"] = REF_SPEED
        record["passes"] = [{"wall_s": sum(p.latencies), "raw_wall_s": p.wall_s, "cpu_s": p.cpu_s,
                             "raw_cpu_s": p.raw_cpu_s, "latencies_s": p.latencies,
                             "raw_latencies_s": p.raw_latencies, "factors": p.factors,
                             "rss_kb": p.rss_kb, "verify_ms": p.verify_ms} for p in passes]
        record["setup_probes_s"] = setup.times
        record["raw_setup_probes_s"] = setup.raw_times
        record["request_keys"] = [r.key for r in requests]
    else:
        untraced = run_pass(requests, checker, env, deadline, scratch)
        trace = TraceSum()
        traced = run_pass(requests, checker, env, deadline, scratch, trace)
        passes = [untraced, traced]
        metrics = layer_metrics(trace, untraced, traced, check_ids)
        record["functions"] = {k: {"calls": v[0], "self_s": v[1], "incl_s": v[2]}
                               for k, v in sorted(trace.stats.items())}
        record["counters"] = trace.counters
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    record["failed_requests"] = sorted({k for p in passes for k in p.failed})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    (results / name).write_text(json.dumps(record, indent=1))
    for k, (v, u) in metrics.items():
        print(f"{k:42s} {v:14.6g} {u}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
