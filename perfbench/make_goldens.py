"""Record perfbench/goldens.json from the current sources.

    python3 perfbench/make_goldens.py

Run it only on a commit whose outputs are trusted: every later run of the
benchmark is checked against what it writes.

- verify: the ``verify --all`` lines at n=4 (and n=2 for --smoke), with
  the timing field ``ms`` removed; the seed does not change them, which
  this script checks on two seeds.
- table: sha256 of the stdout of every table_sweep request.
- compute_ideal: sha256 of every ``--ideal`` request the compute stream
  can draw (``table`` has no --ideal, so no row to compare with).
- compute_n5: sha256 of every unspecialised rank-5 classical member in
  each format, rendered from its ``table --format json`` row.  Rendering
  the 120-row rank-5 tables on every run would cost more than the
  requests being measured.
- compute_seed0: sha256 of each request of the default-seed compute
  stream, after checking each one against its table row.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
import time

import run
from oracle import render_text
from workloads import CLASSICAL, FORMATS, Request, ideal_pool, requests_for


def _cli(argv, env) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "grothpoly", *argv], env=env, cwd=run.ROOT,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return proc.stdout


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _verify_lines(n, seed, env):
    out = _cli(("verify", "--all", "--n", str(n), "--seed", str(seed)), env)
    return [run._MS_FIELD.sub("", line, count=1) for line in out.decode().splitlines()]


def main() -> int:
    env = run.child_env()
    scratch = run.ROOT / ".perfbench" / "tmp-goldens"
    scratch.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + 3600
    goldens = {"verify": {}, "table": {}, "compute_ideal": {}, "compute_n5": {}, "compute_seed0": {}}

    for n in (4, 2):
        lines = _verify_lines(n, 0, env)
        if lines != _verify_lines(n, 1, env):
            raise SystemExit(f"verify --all --n {n} lines depend on the seed")
        if not all(json.loads(line)["status"] == "pass" for line in lines):
            raise SystemExit(f"verify --all --n {n} has a failing check")
        goldens["verify"][str(n)] = lines

    tables = {}
    for smoke in (False, True):
        for r in requests_for("table_sweep", 0, smoke):
            tables[r.argv] = out = _cli(r.argv, env)
            goldens["table"][r.key] = _digest(out)
    # the oracle's renderer must agree with the package's on every table
    for argv, out in tables.items():
        text_argv = tuple("text" if a == "json" else a for a in argv)
        if text_argv != argv and text_argv in tables:
            rendered = "".join(render_text(json.loads(line)["poly"]) + "\n"
                               for line in out.decode().splitlines())
            if rendered.encode() != tables[text_argv]:
                raise SystemExit(f"oracle text renderer disagrees on {' '.join(argv)}")

    for r in ideal_pool():
        goldens["compute_ideal"][r.key] = _digest(_cli(r.argv, env))

    members = []
    for family, fmt in itertools.product(CLASSICAL, FORMATS):
        for w in itertools.permutations(range(1, 6)):
            members.append(Request(argv=("member", family, fmt, *map(str, w)), family=family,
                                   n=5, w=w, fmt=fmt))
    by_key = run.table_oracle(members, env, scratch, deadline)
    goldens["compute_n5"] = {r.member_key: by_key[r.key] for r in members}

    stream = requests_for("compute_stream", run.DEFAULT_SEED)
    checker = run.Checker("compute_stream", stream, goldens, env, scratch, deadline)
    for r in stream:
        digest = _digest(_cli(r.argv, env))
        if digest != checker.expected[r.key]:
            raise SystemExit(f"compute answer differs from its table row: {r.key}")
        if r.ideal is None:
            goldens["compute_seed0"][r.key] = digest

    with open(run.HERE / "goldens.json", "w") as f:
        json.dump(goldens, f, indent=0, sort_keys=True)
        f.write("\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
