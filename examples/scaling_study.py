"""Scenario: a scaling study across network sizes, exported to CSV.

Sweeps routing and MST over expander sizes, prints the tables, and
writes CSV files next to this script for external plotting.
Correctness (delivery, Kruskal equality) is verified on every run.

Run:  python examples/scaling_study.py [max_n]
        (max_n in {128, 256, 512}; default 256)
"""

import csv
import os
import sys

from repro.analysis import format_table, mst_scaling, routing_scaling


def write_csv(rows, path: str) -> None:
    """Write experiment rows to ``path`` as CSV (header from row one)."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    sizes = tuple(n for n in (64, 128, 256, 512) if n <= max_n)
    out_dir = os.path.dirname(os.path.abspath(__file__))

    print(f"=== Routing scaling (Theorem 1.2) over n = {sizes}")
    routing_rows = routing_scaling(sizes=sizes)
    print(format_table(routing_rows))
    routing_csv = os.path.join(out_dir, "scaling_routing.csv")
    write_csv(routing_rows, routing_csv)
    print(f"    -> {routing_csv}")

    print(f"\n=== MST scaling (Theorem 1.1) over n = {sizes}")
    mst_rows = mst_scaling(sizes=sizes)
    print(format_table(mst_rows))
    mst_csv = os.path.join(out_dir, "scaling_mst.csv")
    write_csv(mst_rows, mst_csv)
    print(f"    -> {mst_csv}")

    assert all(row["delivered"] for row in routing_rows)
    assert all(row["correct"] for row in mst_rows)
    print("\nAll runs verified (delivery + Kruskal equality).")


if __name__ == "__main__":
    main()
