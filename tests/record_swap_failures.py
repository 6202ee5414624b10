"""Record, or check, every verify line under the 32 operator-kind swaps.

For each base family in TOWERS and each of the four operator kinds other
than its own, the base's tower is rebuilt with that kind (the table cache
emptied first) and every check runs at n = 2, 3 and 4, clamped to its
default cap as `verify --all --n n` clamps it, with seed 0.  Each JSON
line, its timing field ms dropped, is kept as the first 16 hex digits of
its sha256, under the key "<base> <kind> <n> <id>".  A refactor that must
not change what a failing check prints leaves every hash as it is.

    PYTHONPATH=src python tests/record_swap_failures.py            # re-record n = 2, 3, 4
    PYTHONPATH=src python tests/record_swap_failures.py --check 4  # name each rank-4 line that differs

Re-record only when a failing payload is meant to change, and say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from grothpoly import classical
from grothpoly.classical import TOWERS
from grothpoly.divdiff import DEL, PI_MINUS, PI_PLUS, PSI_MINUS, PSI_PLUS
from grothpoly.report import CHECKS, rank_caps, verify

GOLDEN = Path(__file__).with_name("swap_failures.json")
RANKS = (2, 3, 4)
KINDS = (DEL, PI_PLUS, PI_MINUS, PSI_PLUS, PSI_MINUS)


def _digest(line: str) -> str:
    obj = json.loads(line)
    del obj["ms"]
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()[:16]


def swap_hashes(ranks=RANKS) -> dict[str, str]:
    """The hash of every (base, kind, n, id) line at the given ranks.  Each
    swapped tower is put back, and the table cache emptied, when done."""
    out = {}
    for base, (seed, own, alphabet) in list(TOWERS.items()):
        for kind in KINDS:
            if kind == own:
                continue
            TOWERS[base] = (seed, kind, alphabet)
            classical._TABLE_CACHE.clear()
            try:
                for n in ranks:
                    for cid in CHECKS:
                        line = verify(cid, min(n, rank_caps(cid)[0])).json_line()
                        out[f"{base} {kind} {n} {cid}"] = _digest(line)
            finally:
                TOWERS[base] = (seed, own, alphabet)
                classical._TABLE_CACHE.clear()
    return out


def mismatches(ranks=RANKS) -> list[str]:
    """The keys at the given ranks whose line differs from the golden, or
    that only one side has."""
    golden = json.loads(GOLDEN.read_text())
    want = {key: h for key, h in golden.items() if int(key.split()[2]) in ranks}
    got = swap_hashes(ranks)
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--check"]:
        bad = mismatches(tuple(map(int, argv[1:])) or RANKS)
        for key in bad:
            print(f"differs: {key}")
        return 1 if bad else 0
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    hashes = swap_hashes()
    GOLDEN.write_text(json.dumps(hashes, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(hashes)} lines in {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
