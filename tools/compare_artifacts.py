"""Compare two artifact directories file by file, number by number.

    python3 tools/compare_artifacts.py A B

A and B are outputs of ``tools/artifacts.py`` (or any two directories of
the same files). For each file, in path order, it prints ``identical``
when the bytes match, and otherwise the largest absolute and relative
difference over the file's numbers:

- ``.csv``: every cell that parses as a number;
- ``.json`` and ``.jsonl``: every JSON number, by position in the document;
- ``.bin`` and ``.f64`` (checkpoints, dataset sidecars): the raw
  little-endian float64 values;
- any other file: every number in its text, as a regular expression finds
  them.

The relative difference of two numbers is |a - b| / max(|a|, |b|). Text
outside the numbers (CSV cells, JSON keys and strings, the words of a text
file) must match, and so must the count of numbers; a file that differs
there, or exists on one side only, is reported as such and makes the exit
status 1. Numeric differences alone exit 0: the tolerance is the reader's
call.
"""

import csv
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _csv(text):
    numbers, rest = [], []
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                numbers.append(float(cell))
            except ValueError:
                rest.append(cell)
    return numbers, rest


def _json_walk(doc, numbers, rest):
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        rest.append(doc)
    elif isinstance(doc, (int, float)):
        numbers.append(float(doc))
    elif isinstance(doc, dict):
        for key in doc:
            rest.append(key)
            _json_walk(doc[key], numbers, rest)
    else:
        rest.append(len(doc))
        for item in doc:
            _json_walk(item, numbers, rest)


def _json(text, lines):
    numbers, rest = [], []
    for doc in (text.splitlines() if lines else [text]):
        _json_walk(json.loads(doc), numbers, rest)
    return numbers, rest


def _text(text):
    return [float(m) for m in NUMBER.findall(text)], NUMBER.sub("#", text)


def numbers_of(path):
    """The file's numbers as a float64 array, and everything else in it."""
    if path.suffix in (".bin", ".f64"):
        return np.fromfile(path, dtype="<f8"), None
    text = path.read_text()
    if path.suffix == ".csv":
        numbers, rest = _csv(text)
    elif path.suffix in (".json", ".jsonl"):
        numbers, rest = _json(text, lines=path.suffix == ".jsonl")
    else:
        numbers, rest = _text(text)
    return np.array(numbers, dtype=np.float64), rest


def compare(a, b):
    """One line on how file b differs from file a, and whether they match
    outside their numbers."""
    if a.read_bytes() == b.read_bytes():
        return "identical", True
    (xa, rest_a), (xb, rest_b) = numbers_of(a), numbers_of(b)
    if rest_a != rest_b or xa.shape != xb.shape:
        return "differs outside its numbers", False
    same = (xa == xb) | (np.isnan(xa) & np.isnan(xb))
    if same.all():
        return "same numbers, formatted differently", True
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(xa - xb))
        scale = np.maximum(np.abs(xa), np.abs(xb))
        rel = np.where(same, 0.0, diff / np.where(scale > 0, scale, 1.0))
    return (f"max abs diff {np.nanmax(diff):.3g}, max rel diff {np.nanmax(rel):.3g} "
            f"({np.count_nonzero(~same)} of {len(xa)} numbers differ)"), True


def main():
    if len(sys.argv) != 3:
        raise SystemExit("usage: python3 tools/compare_artifacts.py A B")
    roots = [Path(p) for p in sys.argv[1:]]
    for root in roots:
        if not root.is_dir():
            raise SystemExit(f"{root} is not a directory")
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in roots]
    ok = True
    for rel in sorted(files[0] | files[1]):
        if rel not in files[1]:
            line, match = f"only in {roots[0]}", False
        elif rel not in files[0]:
            line, match = f"only in {roots[1]}", False
        else:
            line, match = compare(roots[0] / rel, roots[1] / rel)
        ok &= match
        print(f"{rel}: {line}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
