"""Pure arithmetic of the benchmark: summaries, span self times, computed counts.

Nothing here imports the package under test, so the formulas can be tested
on synthetic inputs.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

# (metric, unit) reported with tracing off
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Span(NamedTuple):
    """One traced call: ids index the span list, parent is None at the root."""

    name: str
    start: float
    end: float
    parent: int | None
    tag: float = 0.0  # per-call size recorded at the boundary (grid n, bytes, points)

    @property
    def duration(self) -> float:
        return self.end - self.start


def summary(values) -> dict:
    """Median, first and third quartile and sample count of a sample."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("summary of an empty sample")
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def child_time(spans, only: frozenset | None = None) -> list[float]:
    """Time each span's direct children cover (calls nest; one thread).

    With `only`, only children whose names are in it count.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None and (only is None or s.name in only):
            covered[s.parent] += s.duration
    return covered


def self_time(spans, name: str, minus: frozenset | None = None) -> float:
    """Summed duration of spans called `name` less their direct children.

    With `minus`, only children whose names are in it are subtracted; the
    default subtracts every child.
    """
    covered = child_time(spans, minus)
    return sum(s.duration - covered[i] for i, s in enumerate(spans) if s.name == name)


def bmo_cell_visits(n: int) -> int:
    """Cells one BMO scan reads: n^2 translates of an s x s square, s = n/2 .. 2."""
    total = 0
    s = n // 2
    while s >= 2:
        total += n * n * s * s
        s //= 2
    return total


def state_bytes(samples: int, n: int) -> int:
    """Retained bytes of `samples` flow states: complex vorticity spectrum plus
    the two cached float64 velocity components, n x n each."""
    return samples * (16 + 2 * 8) * n * n
