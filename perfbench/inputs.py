"""Print the make-up of each workload's inputs (the README's input table).

    python3 perfbench/inputs.py

For every table a workload fits: rows fitted, held-out rows in the pool
it streams or serves from, attributes, the true error rate of the fit
slice and of the pool, and the share of held-out cells whose value never
occurs in the same column of the fit slice -- the cells a scorer that
looks values up in its fit-time vocabulary has never seen.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from repro.data.registry import get_dataset  # noqa: E402

TABLES = [
    ("tax_bulk", "tax", w.TAX_FIT_ROWS, w.TAX_HELD_ROWS),
    ("hospital_http", "hospital", w.HOSP_FIT_ROWS, w.HOSP_POOL_ROWS),
    ("tenants_http", "hospital", w.TENANT_FIT_ROWS, w.TENANT_POOL_ROWS),
    ("tenants_http", "flights", w.TENANT_FIT_ROWS, w.TENANT_POOL_ROWS),
]


def makeup(dataset: str, fit_rows: int, pool_rows: int) -> dict:
    data = get_dataset(dataset).make(n_rows=fit_rows + pool_rows, seed=w.DATA_SEED)
    table, truth = data.dirty, data.mask.matrix
    unseen = 0
    for attr in table.attributes:
        column = table.column(attr)
        vocabulary = set(column[:fit_rows])
        unseen += sum(v not in vocabulary for v in column[fit_rows:])
    return {
        "attributes": table.n_attributes,
        "fit_error_rate": float(np.mean(truth[:fit_rows])),
        "pool_error_rate": float(np.mean(truth[fit_rows:])),
        "unseen_share": unseen / (pool_rows * table.n_attributes),
    }


def main() -> None:
    print("| workload | table | rows fitted | held-out pool | attributes | "
          "error rate (fit / pool) | held-out cells unseen at fit |")
    print("|---|---|---|---|---|---|---|")
    for workload, dataset, fit_rows, pool_rows in TABLES:
        m = makeup(dataset, fit_rows, pool_rows)
        print(f"| {workload} | {dataset} | {fit_rows:,} | {pool_rows:,} | "
              f"{m['attributes']} | {m['fit_error_rate']:.2%} / "
              f"{m['pool_error_rate']:.2%} | {m['unseen_share']:.1%} |")


if __name__ == "__main__":
    main()
