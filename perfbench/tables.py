"""Parser and output checks for the tables `linksched run` prints.

Three table kinds are understood: `utilization_sweep` (Fig. 2),
`path_sweep` (Fig. 4) and `validate`. `parse` turns stdout into a
`Table`; `violations` lists every broken invariant; `operations` counts
attempted and failed bound cells and Monte Carlo replications;
`bound_geomean` is the tightness figure the benchmark reports.

A `-` cell is a failed operation, not a violation.
"""

import math
import re
from dataclasses import dataclass, field

# Values are printed with two decimals, so two rounded values can be out
# of order by up to 0.01 when the true values are equal.
ROUNDING = 0.01

_VALIDATE_ROW = re.compile(
    r"^\s*(?P<label>.+?)\s+(?P<bound>-|[0-9.]+)\s+(?P<q>\S+)\s+(?P<qs>\[[^\]]*\]|-)\s+"
    r"(?P<p>\S+)\s+(?P<ps>\[[^\]]*\]|-|n/a)\s+"
    r"(?P<valid>yes \(vs BMUX\)|NO \(vs BMUX\)|yes|NO|-)\s*$"
)
_MINPLUS = re.compile(r"^# min-plus cross-check .*-> (?P<verdict>\S+)\s*$")
_REPS = re.compile(r"^# (?P<reps>\d+) reps x (?P<slots>\d+) slots")
_FIG2_SECTION = re.compile(r"^## H = (?P<h>\d+)\s*$")
_FIG4_SECTION = re.compile(r"^## U = (?P<u>\d+)% \(N0 = Nc = (?P<n>\d+)\)\s*$")
_VALIDATE_SECTION = re.compile(r"^## H = (?P<h>\d+), N0 = (?P<n0>\d+), Nc = (?P<nc>\d+) ")


class ParseError(ValueError):
    """The text is not a table this parser understands."""


@dataclass
class Section:
    key: dict
    columns: list
    rows: list = field(default_factory=list)


@dataclass
class Table:
    kind: str
    sections: list = field(default_factory=list)
    minplus: str = None
    reps: int = None


def _value(tok):
    if tok == "-":
        return None
    try:
        return float(tok)
    except ValueError as e:
        raise ParseError(f"bad number `{tok}`") from e


def parse(text):
    """Parses one table. Lines before the first `#` line are ignored."""
    lines = text.splitlines()
    start = next((i for i, l in enumerate(lines) if l.startswith("#")), None)
    if start is None:
        raise ParseError("no table header")
    table = None
    section = None
    reps = None
    for line in lines[start:]:
        if not line.strip():
            continue
        if line.startswith("## "):
            key = _section_key(line)
            section = Section(key=key, columns=[])
            if table is None:
                table = Table(kind=key.pop("kind"))
            elif table.kind != key.pop("kind"):
                raise ParseError(f"mixed sections: `{line}`")
            table.sections.append(section)
            continue
        if line.startswith("#"):
            m = _MINPLUS.match(line)
            if m:
                if table is None:
                    raise ParseError("min-plus line before any section")
                table.minplus = m.group("verdict")
            m = _REPS.match(line)
            if m:
                reps = int(m.group("reps"))
            continue
        if section is None:
            raise ParseError(f"row outside a section: `{line}`")
        if not section.columns:
            section.columns = _columns(table.kind, line)
            continue
        section.rows.append(_row(table.kind, section.columns, line))
    if table is None or not table.sections:
        raise ParseError("no sections")
    if any(not s.rows for s in table.sections):
        raise ParseError("empty section")
    if table.kind == "validate":
        table.reps = reps
        if reps is None:
            raise ParseError("validate table without a `# N reps x M slots` line")
    return table


def _section_key(line):
    m = _FIG4_SECTION.match(line)
    if m:
        return {"kind": "path_sweep", "u": int(m.group("u")), "n": int(m.group("n"))}
    m = _VALIDATE_SECTION.match(line)
    if m:
        return {"kind": "validate", "h": int(m.group("h")),
                "n0": int(m.group("n0")), "nc": int(m.group("nc"))}
    m = _FIG2_SECTION.match(line)
    if m:
        return {"kind": "utilization_sweep", "h": int(m.group("h"))}
    raise ParseError(f"unknown section header `{line}`")


_COLUMNS = {
    "utilization_sweep": ["U[%]", "Nc", "BMUX", "FIFO", "EDF", "FIFO/BMUX"],
    "path_sweep": ["H", "BMUX-add", "BMUX", "FIFO", "EDF"],
}


def _columns(kind, line):
    if kind == "validate":
        if not line.split() or line.split()[0] != "scheduler":
            raise ParseError(f"bad validate column header `{line}`")
        return ["scheduler", "bound", "valid"]
    cols = line.split()
    if cols != _COLUMNS[kind]:
        raise ParseError(f"unexpected columns {cols}")
    return cols


def _row(kind, columns, line):
    if kind == "validate":
        m = _VALIDATE_ROW.match(line)
        if not m:
            raise ParseError(f"bad validate row `{line}`")
        return {"scheduler": m.group("label"), "bound": _value(m.group("bound")),
                "valid": m.group("valid")}
    toks = line.split()
    if len(toks) != len(columns):
        raise ParseError(f"row has {len(toks)} cells, want {len(columns)}: `{line}`")
    return {c: _value(t) for c, t in zip(columns, toks)}


def _bound_columns(kind):
    return {"utilization_sweep": ["BMUX", "FIFO", "EDF"],
            "path_sweep": ["BMUX-add", "BMUX", "FIFO", "EDF"],
            "validate": ["bound"]}[kind]


def _le(a, b):
    """`a <= b` up to print rounding; true when either is missing."""
    return a is None or b is None or a <= b + ROUNDING + 1e-9 * abs(b)


def violations(table):
    """Every broken invariant of the table, as readable strings."""
    out = []
    for s in table.sections:
        where = ", ".join(f"{k}={v}" for k, v in s.key.items())
        if table.kind == "validate":
            for r in s.rows:
                if r["bound"] is not None and not r["valid"].startswith("yes"):
                    out.append(f"[{where}] {r['scheduler']}: valid = {r['valid']}")
            continue
        axis = "U[%]" if table.kind == "utilization_sweep" else "H"
        prev = None
        for r in s.rows:
            tag = f"[{where}] {axis}={r[axis]:g}"
            if not _le(r["EDF"], r["FIFO"]):
                out.append(f"{tag}: EDF {r['EDF']} > FIFO {r['FIFO']}")
            if not _le(r["FIFO"], r["BMUX"]):
                out.append(f"{tag}: FIFO {r['FIFO']} > BMUX {r['BMUX']}")
            if table.kind == "path_sweep" and r["H"] >= 2 and not _le(r["BMUX"], r["BMUX-add"]):
                out.append(f"{tag}: BMUX {r['BMUX']} > BMUX-add {r['BMUX-add']}")
            if prev is not None:
                if r[axis] <= prev[axis]:
                    out.append(f"{tag}: {axis} not increasing")
                for col in ("BMUX", "FIFO"):
                    if not _le(prev[col], r[col]):
                        out.append(f"{tag}: {col} decreased from {prev[col]} to {r[col]}")
            prev = r
    if table.minplus is not None and table.minplus != "consistent":
        out.append(f"min-plus cross-check: {table.minplus}")
    return out


def shape_violations(table, shape):
    """Mismatches between the table and the scenario that produced it."""
    out = []
    if table.kind != shape["kind"]:
        return [f"table kind {table.kind}, want {shape['kind']}"]
    keys = [s.key for s in table.sections]
    if table.kind == "utilization_sweep":
        got = [(k["h"], [(r["U[%]"], r["Nc"]) for r in s.rows])
               for k, s in zip(keys, table.sections)]
        want = [(h, [(float(round(u * 100)), float(nc)) for u, nc in shape["rows"]])
                for h in shape["sections"]]
        if got != want:
            out.append(f"sections {got}, want {want}")
    elif table.kind == "path_sweep":
        got = [(k["n"], [r["H"] for r in s.rows]) for k, s in zip(keys, table.sections)]
        want = [(n, [float(h) for h in shape["hops"]]) for n in shape["sections"]]
        if got != want:
            out.append(f"sections {got}, want {want}")
    else:
        got = [(k["h"], k["n0"], k["nc"], [r["scheduler"] for r in s.rows])
               for k, s in zip(keys, table.sections)]
        want = [(h, shape["n0"], shape["nc"], shape["labels"]) for h in shape["sections"]]
        if got != want:
            out.append(f"sections {got}, want {want}")
        if table.reps != shape["reps"]:
            out.append(f"{table.reps} reps, want {shape['reps']}")
        if table.minplus is None:
            out.append("min-plus cross-check line missing")
    return out


def operations(table):
    """(attempted, failed): one operation per bound cell and per Monte
    Carlo replication; a cell fails when it prints `-`."""
    cols = _bound_columns(table.kind)
    cells = [r[c] for s in table.sections for r in s.rows for c in cols]
    attempted = len(cells)
    failed = sum(v is None for v in cells)
    if table.kind == "validate":
        attempted += len(cells) * table.reps
    return attempted, failed


def bound_geomean(table):
    """Geometric mean of every positive printed BMUX, FIFO and BMUX-add
    bound, or of every bound row of a validate table. Lower means
    tighter. EDF is left out on purpose: fixing its fixed point turns
    `-` cells into values, which the failed-cell count tracks instead."""
    cols = ["bound"] if table.kind == "validate" else ["BMUX", "FIFO", "BMUX-add"]
    vals = [r[c] for s in table.sections for r in s.rows for c in cols
            if r.get(c) is not None and r[c] > 0]
    if not vals:
        raise ParseError("no bounds to average")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def edf_cells(table):
    """(EDF cells, EDF cells printed `-`) of a sweep table."""
    if table.kind == "validate":
        return 0, 0
    vals = [r["EDF"] for s in table.sections for r in s.rows]
    return len(vals), sum(v is None for v in vals)
