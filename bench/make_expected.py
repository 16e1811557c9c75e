"""Write expected.json: the fixed values of every finite-key input.

Run from the repository root:  python3 bench/make_expected.py

Each value is taken from the program and passed through the same independent
checks the benchmark applies, so a table written from a wrong program fails
here rather than freezing the error in.  Rerun only when a workload's key set
changes; a program change must leave the table as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def keys(name: str):
    if name == "pipeline":
        yield from (["quad", s, m] for s in range(W.QUAD_SEEDS) for m in W.QUAD_FIELDS)
        yield from (["noclaim", n] for n in range(W.NOCLAIM_N[0], W.NOCLAIM_N[1] + 1))
        yield from (["claim", n] for n in range(W.CLAIM_N[0], W.CLAIM_N[1] + 1))
    elif name == "study-random":
        for n in range(W.STUDY_N[0], W.STUDY_N[1] + 1):
            yield from ([n, t] for t in range(W.STUDY_TRIALS))


def main() -> None:
    table = {}
    for name in ("pipeline", "study-random"):
        w = W.WORKLOADS[name]({})
        table[name] = {}
        for key in keys(name):
            inp = w.make(key)
            table[name][json.dumps(key)] = w.values(inp, w.run(inp))
        print(name, len(table[name]), "keys", file=sys.stderr)
    write(table)


def write(table: dict) -> None:
    """One entry per line, so a changed value shows as a one-line diff."""
    lines = []
    for name in sorted(table):
        rows = [f"    {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in table[name].items()]
        lines.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n  }")
    W.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
