"""Compare two benchmark results written by bench/run.py.

    python3 bench/compare.py .bench_out/OLD.json .bench_out/NEW.json

Prints each metric of both results with the ratio new/old.  A warning goes
to stderr when the two environment stamps differ in anything that moves the
numbers besides the code, or when either result failed a check.
"""

from __future__ import annotations

import json
import sys

# Stamp keys that must match for a comparison to mean something; git_rev is
# what is being compared and load1 is checked with a tolerance.
SAME_ENVIRONMENT = ("nproc", "python", "gmpy2")
LOAD_TOLERANCE = 0.5


def stamp_warnings(old: dict, new: dict) -> list:
    warnings = []
    for key in ("workload", "seed", "seconds", "trace"):
        if old[key] != new[key]:
            warnings.append(f"{key} differs: {old[key]} vs {new[key]}")
    a, b = old["stamp"], new["stamp"]
    for key in SAME_ENVIRONMENT:
        if a[key] != b[key]:
            warnings.append(f"stamp {key} differs: {a[key]} vs {b[key]}")
    if abs(a["load1"] - b["load1"]) > LOAD_TOLERANCE:
        warnings.append(f"stamp load1 differs: {a['load1']:.2f} vs {b['load1']:.2f}")
    for name, rec in (("old", old), ("new", new)):
        if rec["stamp"]["git_dirty"]:
            warnings.append(f"{name} result was measured on a dirty tree")
        if rec["failed"]:
            warnings.append(f"{name} result failed {rec['failed']}/{rec['attempted']} checks")
    return warnings


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(open(path).read()) for path in argv)
    for warning in stamp_warnings(old, new):
        print(f"warning: {warning}", file=sys.stderr)
    print(f"{old['workload']}  old {old['stamp']['git_rev'][:12]}  "
          f"new {new['stamp']['git_rev'][:12]}")
    for key, metric in old["metrics"].items():
        if key not in new["metrics"]:
            print(f"  {key:24} {metric['value']:.6g} -> (missing)")
            continue
        a, b = metric["value"], new["metrics"][key]["value"]
        ratio = f"x{b / a:.3f}" if a else "-"
        print(f"  {key:24} {a:.6g} -> {b:.6g} {metric['unit']}  {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
