"""Regenerate references.json, the benchmark's pinned reference answers.

For each sigma-monomial battery pair it pins the closed Newton ideal, the
integral closure and the lct.  fsing proposes them and each is pinned only
after the Fourier-Motzkin certificate in workloads.py accepts it.  From the
repository root:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import workloads  # noqa: E402


def certified_pair(p, gens, t) -> dict:
    instance = workloads._monomial_pair_instance("pin", gens, t, p, None)
    ans = instance.encode(instance.call())
    problem = workloads.certify_pair(gens, t, ans)
    if problem:
        raise SystemExit(f"pair {gens} at t = {t}, p = {p}: {problem}")
    return {"p": p, "gens": [list(g) for g in gens], "t": str(t), "closed": ans["closed"],
            "closure": ans["closure"], "lct": ans["lct"]}


def main() -> None:
    references = {"monomial": [certified_pair(p, gens, t) for p, gens, t in workloads.monomial_battery()]}
    workloads.REFERENCES.write_text(json.dumps(references, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
