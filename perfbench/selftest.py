#!/usr/bin/env python3
"""Self-test of the table parser and output checks.

    python3 perfbench/selftest.py

Reads the committed goldens `results/fig2.txt`, `results/fig4.txt` and
`results/validate.txt` (read-only) and asserts that:

* each parses and passes every check;
* every `-` cell is counted as a failed operation, not an error;
* corrupted in-memory copies, one per check, are rejected.

Exits non-zero on the first failed assertion.
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tables  # noqa: E402

RESULTS = Path(__file__).resolve().parent.parent / "results"


def dash_cells(text):
    """`-` cells of a sweep table, counted without the parser."""
    body = text[text.index("#"):]
    return sum(line.split().count("-") for line in body.splitlines()
               if line and not line.startswith("#") and re.match(r"^\s*\d", line))


def replace_row(text, row_start, new_row):
    """`text` with the row starting `row_start` replaced (first match)."""
    lines = text.splitlines()
    i = next(i for i, l in enumerate(lines) if l.lstrip().startswith(row_start))
    lines[i] = new_row
    return "\n".join(lines) + "\n"


def expect_rejected(name, text, want):
    try:
        found = tables.violations(tables.parse(text))
    except tables.ParseError as e:
        found = [f"parse error: {e}"]
    assert any(want in v for v in found), f"{name}: want a violation containing `{want}`, got {found}"
    print(f"ok  corrupted {name}: {found[0]}")


def main():
    goldens = {n: (RESULTS / f"{n}.txt").read_text() for n in ("fig2", "fig4", "validate")}
    for name, text in goldens.items():
        table = tables.parse(text)
        found = tables.violations(table)
        assert not found, f"golden {name} fails its checks: {found}"
        attempted, failed = tables.operations(table)
        if table.kind != "validate":
            dashes = dash_cells(text)
            # A `-` bound also prints `-` in fig2's FIFO/BMUX ratio column.
            ratio_dashes = sum(r["FIFO"] is None or r["BMUX"] is None
                               for s in table.sections for r in s.rows
                               if table.kind == "utilization_sweep")
            assert failed == dashes - ratio_dashes, f"{name}: {failed} failed, {dashes} dashes"
        geomean = tables.bound_geomean(table)
        print(f"ok  golden {name}: {attempted} operations, {failed} failed, "
              f"bound geomean {geomean:.2f} ms")

    fig2, fig4, val = goldens["fig2"], goldens["fig4"], goldens["validate"]
    # Rows of the goldens (`U Nc BMUX FIFO EDF ratio` and `H add BMUX FIFO EDF`).
    expect_rejected("fig2 FIFO > BMUX", replace_row(
        fig2, "35    133      25.22", "    35    133      21.92      25.22      11.03       1.1505"),
        "FIFO 25.22 > BMUX 21.92")
    expect_rejected("fig2 EDF > FIFO", replace_row(
        fig2, "20     33       8.25", "    20     33       8.25       8.23       8.30       0.9967"),
        "EDF 8.3 > FIFO 8.23")
    expect_rejected("fig2 BMUX falls with U", replace_row(
        fig2, "25     67      13.34", "    25     67       7.34      13.23       7.96       0.9918"),
        "BMUX decreased")
    expect_rejected("fig4 BMUX-add < BMUX", replace_row(
        fig4, "2        62.31", "   2        30.00      32.84      32.48      16.42"),
        "BMUX 32.84 > BMUX-add 30.0")
    expect_rejected("fig4 FIFO falls with H", replace_row(
        fig4, "3       120.10", "   3       120.10      46.08      30.00      23.04"),
        "FIFO decreased")
    expect_rejected("validate row invalid", val.replace("[0.0e0, 0.0e0]            yes",
                                                        "[0.0e0, 0.0e0]             NO", 1),
                    "valid = NO")
    expect_rejected("validate min-plus mismatch",
                    val + "\n# min-plus cross-check (H = 4, BMUX, leaky buckets): optimizer "
                          "6.363636 vs convolution pipeline 6.000000 -> MISMATCH\n",
                    "min-plus cross-check: MISMATCH")
    expect_rejected("fig2 truncated row", replace_row(
        fig2, "30    100      19.01", "    30    100      19.01      18.74"), "parse error")
    print("selftest passed")


if __name__ == "__main__":
    main()
