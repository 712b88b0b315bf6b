"""sha256 digests of Monte Carlo outputs, for bit-identity checks between commits.

    PYTHONPATH=src python tests/mc_digest.py > digests.txt

runs `sim.monte_carlo` on fig3, fig5, fig8 and the mc_alphabet16
benchmark's 16-scenario alphabet (`perfbench/inputs.py`'s `ALPHABET16`),
each with its own K and e0, at master seeds 0, 777 and 2**64 - 1 and
R = 1, 2, 7 and 200 replicas, and prints one line per output:

    <design> seed=<seed> R=<R> <field> <dtype><shape> <sha256 of the bytes>

for `paths`, `err_sq`, `per_state_mean_sq`, `mean_err_sq` and
`var_err_sq`.  Run it at two commits and `diff` the outputs: an empty diff
means the engine gives the same bits.  The name keeps pytest from
collecting it; its `paths` lines, which do not depend on the BLAS build,
are pinned in golden/mc_paths.txt and checked by test_sim.py.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

from gridobs import experiments

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import ALPHABET16  # noqa: E402

SEEDS = (0, 777, 2**64 - 1)
REPLICAS = (1, 2, 7, 200)
FIELDS = ("paths", "err_sq", "per_state_mean_sq", "mean_err_sq", "var_err_sq")


def designs():
    """(name, config) of each digested design."""
    for name in ("fig3", "fig5", "fig8"):
        yield name, experiments.load_experiment(name)
    yield "alphabet16", ALPHABET16


def digest(array):
    array = np.ascontiguousarray(array)
    return f"{array.dtype}{list(array.shape)} {hashlib.sha256(array.tobytes()).hexdigest()}"


def main():
    for name, cfg in designs():
        _, lin, scs, obs = experiments.build_pipeline(cfg)
        for seed in SEEDS:
            for R in REPLICAS:
                _, traj = experiments.run_simulation(cfg, lin, obs, scs,
                                                     seed=seed, replicas=R)
                for f in FIELDS:
                    print(f"{name} seed={seed} R={R} {f} {digest(getattr(traj, f))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
