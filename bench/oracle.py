"""Expected gtrim outputs from closed forms, sharing no code with gtrim.

For the trims of the Pfaffian family g_m (m >= 2) the paper gives:

- mu = 2m for an interior selector xI/yI and 2m+1 for x0, d and y0;
- type 2 and Koszul homology ranks (1, mu, mu+1, 2);
- class G(2m-3) for interior selectors and G(2m-2) for x0/d/y0 when m >= 3,
  and H(3,2) (interior) or B (x0/d/y0) when m = 2;
- the Hilbert function of g_m, binomials mirrored around degree m-1, plus 1
  in degree m for a trim, which frees the trimmed generator there.
"""

from __future__ import annotations

import json
from math import comb


def selectors(m: int) -> list:
    """Trim selectors in canonical generator order: x0..x(m-1), d, y(m-1)..y0."""
    return ([f"x{i}" for i in range(m)] + ["d"]
            + [f"y{i}" for i in range(m - 1, -1, -1)])


def is_interior(selector: str) -> bool:
    return selector != "d" and int(selector[1:]) > 0


def family_hilbert(m: int) -> list:
    """Hilbert function of Q/g_m: C(k+2, 2) with k the distance to the nearer end."""
    top = 2 * m - 2
    return [comb(min(d, top - d) + 2, 2) for d in range(top + 1)]


def trimmed_hilbert(m: int) -> list:
    h = family_hilbert(m)
    h[m] += 1
    return h


def trim_class(m: int, selector: str) -> tuple:
    """(p, q, r, tag, params, display) of the trim at `selector`."""
    interior = is_interior(selector)
    if m == 2:
        if interior:
            return 3, 2, 2, "H", {"p": 3, "q": 2}, "H(3,2)"
        return 1, 1, 2, "B", {}, "B"
    r = 2 * m - 3 if interior else 2 * m - 2
    return 0, 1, r, "G", {"r": r}, f"G({r})"


def trim_report(m: int, selector: str) -> dict:
    """The `gtrim classify --m M --trim SEL` JSON report."""
    mu = 2 * m if is_interior(selector) else 2 * m + 1
    p, q, r, tag, params, _ = trim_class(m, selector)
    return {"mu": mu, "type": 2, "hilbert": trimmed_hilbert(m),
            "ranks": [1, mu, mu + 1, 2], "p": p, "q": q, "r": r,
            "class": tag, "class_params": params, "gorenstein": False}


def table_row(m: int, selector: str) -> dict:
    """One `gtrim table` row without its generator text `g`."""
    report = trim_report(m, selector)
    row = {"m": m}
    row.update((k, report[k]) for k in ("mu", "type", "p", "q", "r"))
    row["class"] = trim_class(m, selector)[5]
    return row


def expected(job):
    """Parsed JSON that `job` must print; table rows omit `g`."""
    if job.command == "classify":
        return trim_report(job.m, job.trim)
    if job.command == "table":
        lo, hi = job.m
        return [table_row(m, sel) for m in range(lo, hi + 1) for sel in selectors(m)]
    if job.command == "hilbert":
        h = family_hilbert(job.m)
        return {"m": job.m, "coefficients": h, "closed_form": h, "match": True}
    raise ValueError(f"no closed form for {job.command!r}")


def check_output(job, stdout: str) -> str | None:
    """None when stdout is the expected output of `job`, else what differs."""
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if job.command == "table" and isinstance(got, list):
        for row in got:
            g = row.pop("g", None) if isinstance(row, dict) else None
            if not isinstance(g, str) or not g:
                return f"table row without generator text: {row}"
    return check_value(job, got)


def check_value(job, got) -> str | None:
    """None when the parsed result `got` equals the closed form for `job`."""
    want = expected(job)
    if got == want:
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{len(got)} rows, expected {len(want)}"
        got, want = next((g, w) for g, w in zip(got, want) if g != w)
    return f"got {json.dumps(got)}, expected {json.dumps(want)}"
