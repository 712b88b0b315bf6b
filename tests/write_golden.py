"""Pinned outputs of the bundled experiments, and the script that writes them.

    PYTHONPATH=src python tests/write_golden.py [--check] [fig3 fig4 ...]

writes tests/golden/<name>.json for the named experiments (all six by
default).  With --check it writes nothing: it reruns the experiments,
prints every pinned value that moved at all (floats with their relative
change) and every key or list entry added or removed, ends each experiment with its
count of moves and its largest relative move with its key, and exits 1
if anything moved.  Each file
holds what `gridobs reproduce <name>` prints and writes: the check lines,
every column of every CSV file, the manifest's result payload and a
sha256 of each trajectory's switching paths (which replace the path table
itself).  `test_experiments` compares each run with its file, floats to
1e-9 relative and everything else exactly; a change that moves a pinned
number reruns this script and lists the moved values.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from gridobs import cli, experiments

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9


def snapshot(name, result):
    """The pinned outputs of one `experiments.run_experiment` result, as
    plain JSON values."""
    csvs, payload, lines = cli.reproduce_outputs(name, result)
    payload = {k: v for k, v in payload.items() if k != "switching_paths"}
    tables = {}
    paths = {}
    for filename, traj in csvs.items():
        header, rows = cli.trajectory_table(traj)
        tables[filename] = {h: [row[j] for row in rows] for j, h in enumerate(header)}
        paths[filename] = hashlib.sha256(
            np.ascontiguousarray(traj.paths, dtype=np.int64).tobytes()).hexdigest()
    doc = {"checks": lines, "paths_sha256": paths, "csv": tables, "result": payload}
    return json.loads(json.dumps(doc, default=cli._jsonable))


def moves(got, want, where="", rtol=RTOL):
    """(key, description, relative change) of each place where `got`
    differs from `want`: floats beyond `rtol` relative, anything else not
    exactly equal, whose relative change is None.  A dict key or list
    entry that only one side has is reported as added or removed, and the
    keys and entries both sides have are still compared."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or abs(got - want) <= rtol * abs(want):
            return []
        rel = abs(got - want) / abs(want) if want else math.inf
        return [(where, f"{got!r} != {want!r} (relative change {rel:.3g})", rel)]
    if type(got) is not type(want):
        return [(where, f"{got!r} != {want!r}", None)]
    if isinstance(want, dict):
        added = [(f"{where}.{k}", "added", None) for k in got if k not in want]
        removed = [(f"{where}.{k}", "removed", None) for k in want if k not in got]
        return added + removed + [m for k in want if k in got
                                  for m in moves(got[k], want[k], f"{where}.{k}", rtol)]
    if isinstance(want, list):
        shared = [m for i, (g, w) in enumerate(zip(got, want))
                  for m in moves(g, w, f"{where}[{i}]", rtol)]
        added = [(f"{where}[{i}]", "added", None) for i in range(len(want), len(got))]
        removed = [(f"{where}[{i}]", "removed", None) for i in range(len(got), len(want))]
        return shared + added + removed
    return [] if got == want else [(where, f"{got!r} != {want!r}", None)]


def mismatches(got, want, where="", rtol=RTOL):
    """`moves` as one "key: description" line each."""
    return [f"{key}: {text}" for key, text, _ in moves(got, want, where, rtol)]


def _dumps(obj, pad=""):
    """Indented JSON with each list of plain values on one line."""
    if isinstance(obj, dict) and obj:
        inner = pad + " "
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_dumps(v, inner)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        inner = pad + " "
        return "[\n" + ",\n".join(inner + _dumps(v, inner) for v in obj) + "\n" + pad + "]"
    return json.dumps(obj)


def check(names):
    """Rerun the experiments against their golden files; 1 if any pinned
    value moved at all, else 0."""
    moved = 0
    for name in names:
        want = json.loads((GOLDEN / f"{name}.json").read_text())
        diffs = moves(snapshot(name, experiments.run_experiment(name)), want,
                      name, rtol=0.0)
        for key, text, _ in diffs:
            print(f"{key}: {text}")
        summary = f"{name}: {len(diffs)} moved"
        floats = [(rel, key) for key, _, rel in diffs if rel is not None]
        if floats:
            rel, key = max(floats)
            summary += f", largest relative move {rel:.3g} at {key}"
        print(summary)
        moved += len(diffs)
    return 1 if moved else 0


def main(argv):
    names = [a for a in argv if a != "--check"] or list(experiments.EXPERIMENTS)
    if "--check" in argv:
        return check(names)
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        doc = snapshot(name, experiments.run_experiment(name))
        (GOLDEN / f"{name}.json").write_text(_dumps(doc) + "\n")
        print(f"wrote {GOLDEN / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
