"""The benchmark's workloads: the gtrim CLI jobs each one runs.

Every workload is a closed loop with one client: the next job starts only
after the previous one has exited, so at most one gtrim process is alive at
a time.  The seed picks the interior trim selector of each round of the
classify workloads; everything else is fixed, so any seed is checked by the
same closed-form oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("classify-fp", "classify-q", "table-fp", "hilbert-fp")

# Instance sizes.  FULL is what the benchmark measures; TINY (m <= 4) runs
# every workload end to end in seconds and backs the self-check.
FULL = {"classify-fp": 14, "classify-q": 9, "table-fp": (2, 8), "hilbert-fp": (16, 17)}
TINY = {"classify-fp": 4, "classify-q": 4, "table-fp": (2, 4), "hilbert-fp": (3, 4)}


@dataclass(frozen=True)
class Job:
    """One gtrim CLI invocation; `m` is an int, or (lo, hi) for `table`."""

    command: str
    m: object
    trim: str | None = None
    char: int | None = None

    def argv(self) -> list:
        if self.command == "table":
            args = ["table", "--m", f"{self.m[0]}..{self.m[1]}"]
        else:
            args = [self.command, "--m", str(self.m)]
        if self.trim is not None:
            args += ["--trim", self.trim]
        if self.char is not None:
            args += ["--char", str(self.char)]
        return args

    @property
    def label(self) -> str:
        return " ".join(self.argv())

    @property
    def instances(self) -> int:
        """Ideals one run of the job processes: 2m+1 per table row block."""
        if self.command == "table":
            lo, hi = self.m
            return sum(2 * m + 1 for m in range(lo, hi + 1))
        return 1


def interior_selector(rng: random.Random, m: int) -> str:
    """A random interior selector xI or yI, with 1 <= I <= m-1."""
    side = rng.choice("xy")
    return f"{side}{rng.randint(1, m - 1)}"


def rounds(workload: str, seed: int, sizes: dict = FULL):
    """Endless iterator over the rounds of `workload`, each a list of jobs.

    A classify round is d, y0 and an interior selector drawn from the seed's
    generator, a fresh one each round, so one run covers several interior
    selectors and the seed moves the result less.
    """
    rng = random.Random(seed)
    size = sizes[workload]
    char = 0 if workload == "classify-q" else None
    while True:
        if workload == "table-fp":
            yield [Job("table", size)]
        elif workload == "hilbert-fp":
            yield [Job("hilbert", m) for m in size]
        else:
            yield [Job("classify", size, sel, char)
                   for sel in ("d", "y0", interior_selector(rng, size))]
