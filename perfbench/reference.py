"""A fixed reference job: it measures the host's speed, not cobarlab's.

    python3 perfbench/reference.py

The benchmark runs it as a fresh process between its jobs.  The work never
changes (a seeded sparse elimination over exact fractions, the kind of work
cobarlab does, after the same interpreter start-up), so its time moves only
with the speed the shared host gives the benchmark at that moment.  Stdlib
only; prints the rank it finds.
"""

import random
from fractions import Fraction

SIZE = 80
PER_ROW = 5


def rank(rows):
    """Rank of sparse rows ({column: Fraction}) by Gaussian elimination."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            prow = pivots[col]
            factor = row[col] / prow[col]
            for c, v in prow.items():
                w = row.get(c, 0) - factor * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def main():
    rng = random.Random(20230123)
    rows = []
    for _ in range(SIZE):
        cols = rng.sample(range(SIZE), PER_ROW)
        rows.append({c: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for c in cols})
    print(rank(rows))


if __name__ == "__main__":
    main()
