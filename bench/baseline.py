"""Regenerate the ROADMAP "Baseline" table from the traced replay.

    python3 bench/baseline.py

Each row classifies trimmed_ideal(TrimChoice(m, "d")) in-process over
F_32003.  "mult" is the quotient ring plus the multiplication matrices and
"invariants" is products and (p, q, r), as in the ROADMAP.  The report only
prints; it edits no file.
"""

from __future__ import annotations

import sys

import run
import tracing
from workloads import Job

M_VALUES = (8, 12, 16)
SELECTOR = "d"


def main() -> int:
    run.pin_to_one_cpu()
    sys.path.insert(0, str(run.SRC))
    import gtrim

    stamp = run.environment_stamp()
    print(f"nproc {stamp['nproc']}, Python {stamp['python']}, "
          f"gmpy2 {'yes' if stamp['gmpy2'] else 'no'}, rev {stamp['git_rev'][:12]}; "
          "times in nominal seconds (bench/speed.py)")
    print()
    print("| m  | dim R | total  | Groebner | mult  | homology | invariants |")
    print("|----|-------|--------|----------|-------|----------|------------|")
    failed = False
    for m in M_VALUES:
        rp, total = tracing.replay(gtrim, [Job("classify", m, SELECTOR)])
        failed = failed or bool(rp.errors)
        sec = rp.tracer.seconds
        print(f"| {m:<2} | {rp.counts['ideals.quotient_dim']:<5} | {total:<4.2f} s "
              f"| {sec('ideals.groebner'):<8.2f} "
              f"| {sec('ideals.quotient') + sec('ideals.mult'):<5.2f} "
              f"| {sec('koszul.homology'):<8.2f} | {sec('koszul.products'):<10.2f} |")
        for problem in rp.errors:
            print(f"FAILED {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
