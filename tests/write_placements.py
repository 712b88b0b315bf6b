"""scipy's converged pole placements for the bundled designs, pinned, and
the script that pins them.

    PYTHONPATH=src python tests/write_placements.py [--check]

`TestConvergedPlacement` in test_numerics.py compares production's
placements with `scipy.signal.place_poles(rtol=1e-15, maxiter=20000)` on
every distinct optimised placement of fig3..fig8 and ALPHABET16.  scipy
needs 54 to 3518 sweeps per placement to meet that tolerance, so its
`gain_matrix` and `X` are pinned in tests/golden/placements.json, keyed by
`placement_key` of each placement's inputs; the tests fail when the keys
no longer match the inputs the designs produce.  This script writes that
file.  With --check it writes nothing: it reruns scipy, prints every
placement that is new, stale or moved at all, and exits 1 if any is.
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

PLACEMENTS = Path(__file__).resolve().parent / "golden" / "placements.json"

# scipy's budget for a converged two-output placement: the bundled designs
# need 54 to 3518 sweeps to meet rtol 1e-15
CONVERGED = {"rtol": 1e-15, "maxiter": 20000}


def placement_key(A22, C2, desired):
    """sha256 of a placement's inputs: the dtype, shape and bytes of A22,
    C2 and the desired poles."""
    h = hashlib.sha256()
    for a in (A22, C2, desired):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def load_placements():
    """{key: result with `gain_matrix` and `X`} from the pinned file."""
    doc = json.loads(PLACEMENTS.read_text())
    return {key: SimpleNamespace(gain_matrix=np.array(v["gain_matrix"]), X=np.array(v["X"]))
            for key, v in doc.items()}


def converged_placements():
    """{key: {"gain_matrix", "X"}} of scipy run to convergence on the
    placements the bundled designs make today, as plain lists."""
    import pytest
    from test_numerics import _bundled_inputs, _scipy_placement

    with pytest.MonkeyPatch.context() as mp:
        inputs = _bundled_inputs(mp)
    out = {}
    for A22, C2, desired in inputs:
        res = _scipy_placement(A22, C2, desired, **CONVERGED)
        if np.any(np.imag(res.X) != 0):
            raise ValueError("a complex X cannot be pinned as real numbers")
        out[placement_key(A22, C2, desired)] = {
            "gain_matrix": res.gain_matrix.tolist(), "X": np.real(res.X).tolist()}
    return out


def check():
    """1 if any placement is new, stale or moved at all, else 0."""
    got = converged_placements()
    want = json.loads(PLACEMENTS.read_text())
    lines = [f"{key}: new" for key in got.keys() - want.keys()]
    lines += [f"{key}: stale" for key in want.keys() - got.keys()]
    for key in got.keys() & want.keys():
        for name in ("gain_matrix", "X"):
            g, w = np.array(got[key][name]), np.array(want[key][name])
            if g.shape != w.shape or not np.array_equal(g, w):
                change = (np.max(np.abs(g - w)) / np.max(np.abs(w))
                          if g.shape == w.shape else np.inf)
                lines.append(f"{key}: {name} moved (relative change {change:.3g})")
    for line in sorted(lines):
        print(line)
    print(f"{len(got)} placements: {len(lines)} new, stale or moved")
    return 1 if lines else 0


def main(argv):
    if "--check" in argv:
        return check()
    PLACEMENTS.write_text(json.dumps(converged_placements(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PLACEMENTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
