"""theory: `stst theory` at the default TheoryConfig, the only caller of stst.simulator.

Workload seed k maps to the CLI base seed 20_240_001 + 10 * k; k = 0 gives
the pinned TheoryConfig seeds. Every row must be finite, and every row must
pass except the three stop_error rows, which fail by design: they document
the gap between the paper's delta placement and sign-conditioned stop-error.
"""

import csv
import math
import os
import time

BASE_SEED = 20_240_001
SIZES = {
    "full": [],  # the default TheoryConfig
    "smoke": ["--bridge-trials", "4000", "--stop-error-trials", "4000", "--stopping-trials", "1000"],
}
FAILS_BY_DESIGN = "stop_error"
FLOAT_COLUMNS = ("tau", "theta", "estimate", "stderr", "closed_form")


class Theory:
    min_passes = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.argv = ["--seed", str(BASE_SEED + 10 * ctx.seed)] + SIZES[ctx.size]
        self.passes = 0
        self.rows = None

    def setup(self) -> None:
        """Nothing to generate: the CLI draws its walks from the seed."""

    def task(self) -> float:
        from stst import cli

        path = os.path.join(self.ctx.workdir, f"theory{self.passes}.csv")
        with self.ctx.tracer.span("cli.theory"):
            t0 = time.perf_counter()
            code = cli.main(["theory", *self.argv, "-o", path])
            seconds = time.perf_counter() - t0
        self.passes += 1
        if not self.ctx.checks.check(code == 0, f"stst theory exited {code}"):
            return seconds
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        self.ctx.checks.check(bool(rows), "theory CSV has no rows")
        for row in rows:
            finite = all(math.isfinite(float(row[c])) for c in FLOAT_COLUMNS)
            self.ctx.checks.check(finite, f"non-finite theory row {row}")
            expected = "false" if row["experiment"] == FAILS_BY_DESIGN else "true"
            self.ctx.checks.check(row["passed"] == expected, f"theory row passed={row['passed']}: {row}")
        self.ctx.checks.check(
            sum(r["experiment"] == FAILS_BY_DESIGN for r in rows) == 3, "expected three stop_error rows"
        )
        if self.rows is None:
            self.rows = rows
        else:
            self.ctx.checks.check(rows == self.rows, "theory rows differ between passes")
        return seconds

    def finish(self) -> None:
        self.layer_extras = {}

    def detail(self) -> dict:
        return {
            "cli_seed": int(self.argv[1]),
            "passes": self.passes,
            "failed_rows": [r["experiment"] + "@" + r["n"] for r in self.rows or [] if r["passed"] != "true"],
        }
