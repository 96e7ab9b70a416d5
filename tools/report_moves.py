"""Print what moved between the two output trees of tools/compare_outputs.sh.

    python3 tools/report_moves.py BASE_DIR HEAD_DIR

Each directory holds one run per subdirectory (`<config>-<command>/`), with
the exit code in `exit` and, where the command wrote one, `report.json`.
For each run, every float leaf of report.json that moved is printed as
old -> new with its relative move, largest first; a last table gives the
largest relative move of each key, list indices dropped.  Every other
change is listed apart: an exit code, a bool, an int, a string, a null, a
type, a leaf or key present on one side only, a run present in one tree
only.  Exits 1 when there is such a change and 0 otherwise.  Standard
library only.
"""

import json
import math
import re
import sys
from pathlib import Path


def leaves(value, path: str = "") -> dict:
    """The leaves of a JSON value by path: `a.b[2].c`."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return {path: value}
    return {key: leaf for sub, item in items for key, leaf in leaves(item, sub).items()}


def relative_move(old: float, new: float) -> float:
    """|new - old| / |old|; inf where old is 0 or either value is not finite."""
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def compare_run(base: Path, head: Path) -> tuple[list, list]:
    """(float moves as (path, old, new, relative move), other changes as text) of one run."""
    def read(run: Path) -> dict:
        found = {"exit code": (run / "exit").read_text().strip()}
        if (run / "report.json").exists():
            found.update(leaves(json.loads((run / "report.json").read_text())))
        return found

    old, new = read(base), read(head)
    moves, other = [], []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            other.append(f"{path}: only in base")
        elif path not in old:
            other.append(f"{path}: only in head")
        elif type(old[path]) is float and type(new[path]) is float:
            a, b = old[path], new[path]
            if a != b and not (a != a and b != b):     # NaN on both sides is no move
                moves.append((path, a, b, relative_move(a, b)))
        elif type(old[path]) is not type(new[path]) or old[path] != new[path]:
            other.append(f"{path}: {old[path]!r} -> {new[path]!r}")
    moves.sort(key=lambda move: move[3], reverse=True)
    return moves, other


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, head = (Path(arg) for arg in argv)
    runs = sorted({p.name for p in base.iterdir() if p.is_dir()}
                  | {p.name for p in head.iterdir() if p.is_dir()})
    by_key, other = {}, []
    for run in runs:
        if not (base / run).is_dir() or not (head / run).is_dir():
            other.append(f"{run}: only in {'head' if (head / run).is_dir() else 'base'}")
            continue
        moves, changes = compare_run(base / run, head / run)
        other += [f"{run} {change}" for change in changes]
        if moves:
            print(f"{run}: {len(moves)} float(s) moved")
        for path, a, b, rel in moves:
            print(f"  {path}: {a!r} -> {b!r} (relative {rel:.2g})")
            key = re.sub(r"\[\d+\]", "[]", path)
            largest, count = by_key.get(key, (0.0, 0))
            by_key[key] = (max(largest, rel), count + 1)
    if by_key:
        print("largest relative move per key (moves):")
        for key, (rel, count) in sorted(by_key.items(), key=lambda item: -item[1][0]):
            print(f"  {key}: {rel:.2g} ({count})")
    print(f"{len(runs)} runs, {sum(c for _, c in by_key.values())} float(s) moved, "
          f"{len(other)} other change(s)")
    for change in other:
        print(f"  {change}")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
