"""Sensor contingency layer: scenario alphabet and switching sequence.

Each sensor channel measures one linear functional of the state and is
delivered per sampling interval with some probability.  Enumerating the
up/down subsets of the channels gives the scenario set: a finite alphabet
of output matrices with i.i.d. activation probabilities.  The switching
sequence is sampled from that categorical distribution on a dedicated RNG
stream so it never interacts with measurement-noise draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .numerics import is_finite_real


class ScenarioError(Exception):
    pass


def _finite_real(value, what):
    """float(value) for a finite real number; bool, str and None are refused."""
    if not is_finite_real(value):
        raise ScenarioError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


@dataclass
class SensorChannel:
    name: str
    row: np.ndarray               # 1 x n selector into the state vector
    delivery_ratio: float
    noise_std: float = 0.0

    def __post_init__(self):
        self.row = np.asarray(self.row, dtype=float).reshape(-1)
        if not np.any(self.row):
            raise ScenarioError(f"channel {self.name!r} has a zero selector row")
        self.delivery_ratio = _finite_real(self.delivery_ratio,
                                           f"channel {self.name!r}: delivery ratio")
        self.noise_std = _finite_real(self.noise_std, f"channel {self.name!r}: noise level")
        if not 0.0 < self.delivery_ratio <= 1.0:
            raise ScenarioError(f"channel {self.name!r}: delivery ratio must be in (0, 1]")
        if self.noise_std < 0:
            raise ScenarioError(f"channel {self.name!r}: noise level must be >= 0")


@dataclass
class Scenario:
    index: int
    C: np.ndarray                 # r x n output matrix (r may be 0)
    sigma: np.ndarray             # r x r diagonal noise intensity
    probability: float
    up_channels: tuple = ()       # positions into the channel list

    @property
    def r(self):
        return self.C.shape[0]


@dataclass
class ScenarioSet:
    scenarios: list
    n: int
    channels: list = field(default_factory=list)

    def __post_init__(self):
        total = sum(s.probability for s in self.scenarios)
        if abs(total - 1.0) > 1e-12:
            raise ScenarioError(f"scenario probabilities sum to {total}, not 1")
        for s in self.scenarios:
            if s.C.shape[1] != self.n:
                raise ScenarioError(f"scenario {s.index}: C has {s.C.shape[1]} columns, expected {self.n}")
            if s.probability <= 0:
                raise ScenarioError(f"scenario {s.index}: probability must be positive")
        # inverse-CDF tables for inverse_cdf
        self._indices = np.array([s.index for s in self.scenarios])
        self._edges = np.cumsum([s.probability for s in self.scenarios])
        # the observer keys its maps by index, so a repeat would overwrite one
        indices, counts = np.unique(self._indices, return_counts=True)
        if np.any(counts > 1):
            raise ScenarioError(f"scenario indices {indices[counts > 1].tolist()} "
                                "are repeated; each scenario needs its own index")

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self):
        return len(self.scenarios)

    def inverse_cdf(self, u, out=None):
        """Scenario index of each uniform in `u` (any shape): the first
        scenario whose cumulative probability exceeds it.  A uniform past
        the last edge, which rounding of the sum can leave, picks the last
        scenario.  That is the clipped take: a position past the end, which
        is also where NaN sorts, clips to the last index.  With `out`, an
        integer array of u's shape, the indices are written into it and
        `out` is returned."""
        return self._indices.take(self._edges.searchsorted(u, side="right"),
                                  mode="clip", out=out)

    def by_index(self, index):
        for s in self.scenarios:
            if s.index == index:
                return s
        raise ScenarioError(f"no scenario with index {index}; the scenarios "
                            f"are {[s.index for s in self.scenarios]}")


_MAX_CHANNELS = 16


def scenarios_from_channels(channels, sigma_overrides=None):
    """Enumerate all up/down channel subsets into a ScenarioSet.

    Subsets are ordered all-up first (so index 1 is always normal
    operation), then with later channels dropping before earlier ones,
    matching the convention that channel 1 is the most prominent sensor.
    Probabilities are products of delivery ratios and their complements;
    subsets of probability zero (channels with delivery ratio 1) are
    pruned.  `sigma_overrides` may replace the per-channel noise levels
    for specific scenario indices with explicit diagonals.
    """
    if not channels:
        raise ScenarioError("need at least one channel")
    if len(channels) > _MAX_CHANNELS:
        raise ScenarioError(f"refusing to enumerate more than {_MAX_CHANNELS} channels")
    n = channels[0].row.size
    for ch in channels:
        if ch.row.size != n:
            raise ScenarioError("channel selector rows disagree on state dimension")
    scenarios = []
    index = 0
    for ups in product([True, False], repeat=len(channels)):
        prob = 1.0
        for ch, up in zip(channels, ups):
            prob *= ch.delivery_ratio if up else (1.0 - ch.delivery_ratio)
        if prob == 0.0:
            continue
        index += 1
        active = tuple(k for k, up in enumerate(ups) if up)
        C = (np.array([channels[k].row for k in active])
             if active else np.zeros((0, n)))
        sig = np.diag([channels[k].noise_std for k in active])
        scenarios.append(Scenario(index, C, sig, prob, active))
    scenario_set = ScenarioSet(scenarios, n, list(channels))
    if sigma_overrides:
        for idx, values in sigma_overrides.items():
            s = scenario_set.by_index(idx)
            what = f"scenario {idx}: override noise level"
            vals = values if isinstance(values, (list, tuple, np.ndarray)) else [values]
            vals = np.array([_finite_real(v, what) for v in vals], dtype=float)
            if np.any(vals < 0):
                raise ScenarioError(f"{what} must be >= 0, got {values!r}")
            if vals.size == 1:
                vals = np.full(s.r, vals[0])
            if vals.size != s.r:
                raise ScenarioError(
                    f"scenario {idx}: override has {vals.size} entries, needs {s.r}")
            s.sigma = np.diag(vals)
    return scenario_set


def sample_skeleton(scenario_set, horizon, seed, out=None):
    """i.i.d. draws of scenario indices, reproducible per seed.

    Implemented as inverse-CDF sampling of one uniform per interval from a
    dedicated Generator: `np.random.default_rng(seed)`, or `seed` itself
    when it is a Generator already.  With `out`, a (horizon,) integer row,
    the path is written into it and `out` is returned, the same values
    the allocating call gives.  Besides keeping the switching stream
    independent of any noise stream, this couples runs that differ only in
    the delivery ratios: the same underlying uniforms fall into shifted
    probability bins, so reliability sweeps compare like against like.
    """
    if horizon < 1:
        raise ScenarioError("horizon must be >= 1")
    return scenario_set.inverse_cdf(np.random.default_rng(seed).random(horizon), out=out)
