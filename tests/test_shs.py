"""Scenario alphabet construction and skeleton sampling."""

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from gridobs import shs
from gridobs.shs import (Scenario, ScenarioError, ScenarioSet, SensorChannel,
                         sample_skeleton, scenarios_from_channels)

from conftest import five_bus_scenarios


def chans(*specs):
    n = 4
    out = []
    for k, (rho, sigma) in enumerate(specs):
        row = np.zeros(n)
        row[k % n] = 1.0
        out.append(SensorChannel(f"ch{k}", row, rho, sigma))
    return out


class TestScenarioEnumeration:
    def test_two_channel_probabilities(self):
        scs = scenarios_from_channels(chans((0.99, 0.01), (0.995, 0.01)))
        p = [s.probability for s in scs]
        # products of delivery ratios and complements, normal operation first
        assert p[0] == pytest.approx(0.99 * 0.995, abs=1e-15)
        assert p[1] == pytest.approx(0.99 * 0.005, abs=1e-15)
        assert p[2] == pytest.approx(0.01 * 0.995, abs=1e-15)
        assert p[3] == pytest.approx(0.01 * 0.005, abs=1e-15)
        assert sum(p) == pytest.approx(1.0, abs=1e-15)
        # scenario structure: which channels feed C
        assert scs.scenarios[0].C.shape == (2, 4)
        assert scs.scenarios[1].up_channels == (0,)
        assert scs.scenarios[2].up_channels == (1,)
        assert scs.scenarios[3].C.shape == (0, 4)

    def test_all_up_scenario_is_index_one(self):
        scs = scenarios_from_channels(chans((0.7, 0.0), (0.8, 0.0), (0.9, 0.0)))
        first = scs.scenarios[0]
        assert first.index == 1
        assert first.up_channels == (0, 1, 2)

    def test_certain_delivery_prunes_down_scenarios(self):
        scs = scenarios_from_channels(chans((1.0, 0.01)))
        assert len(scs) == 1
        assert scs.scenarios[0].probability == 1.0

    def test_three_symmetric_channels(self):
        scs = scenarios_from_channels(chans(*[(0.5, 0.0)] * 3))
        assert len(scs) == 8
        assert all(s.probability == pytest.approx(0.125) for s in scs)

    def test_channel_guard(self):
        with pytest.raises(ScenarioError, match="16"):
            scenarios_from_channels(chans(*[(0.9, 0.0)] * 17))

    def test_sigma_overrides(self):
        scs = scenarios_from_channels(
            chans((0.99, 0.01), (0.995, 0.01)), {2: 0.0015, 3: 0.002})
        assert np.allclose(np.diag(scs.by_index(1).sigma), [0.01, 0.01])
        assert np.allclose(np.diag(scs.by_index(2).sigma), [0.0015])
        assert np.allclose(np.diag(scs.by_index(3).sigma), [0.002])

    def test_probability_sum_invariant_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            rhos = rng.uniform(0.05, 0.999, size=k)
            scs = scenarios_from_channels(chans(*[(r, 0.0) for r in rhos]))
            assert sum(s.probability for s in scs) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ScenarioError):
            SensorChannel("bad", np.zeros(4), 0.9)
        with pytest.raises(ScenarioError):
            SensorChannel("bad", np.array([1.0, 0, 0, 0]), 0.0)
        with pytest.raises(ScenarioError):
            scenarios_from_channels([])
        # channel 2 at delivery 1.0 prunes scenarios 2 and 4 before renumbering
        with pytest.raises(ScenarioError, match=r"index 3; the scenarios are \[1, 2\]"):
            scenarios_from_channels(chans((0.9, 0.0), (1.0, 0.0)), {3: 0.002})


def _scenario_set(indices, probabilities):
    """A set over the given scenario indices, with zero output matrices."""
    return ScenarioSet([Scenario(i, np.zeros((0, 2)), np.zeros((0, 0)), p)
                        for i, p in zip(indices, probabilities)], 2)


class TestScenarioSetValidation:
    def test_repeated_indices_are_refused(self):
        # the observer keys C by index: a second index-1 scenario would
        # silently replace the first one's output matrix
        C1, C2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        with pytest.raises(ScenarioError, match=r"indices \[1\] are repeated"):
            ScenarioSet([Scenario(1, C1, np.zeros((1, 1)), 0.5),
                         Scenario(1, C2, np.zeros((1, 1)), 0.5)], 2)
        with pytest.raises(ScenarioError, match=r"indices \[2, 3\] are repeated"):
            _scenario_set([3, 2, 1, 2, 3], [0.2] * 5)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ScenarioError, match="sum to 0.9, not 1"):
            _scenario_set([1, 2], [0.5, 0.4])

    def test_output_matrix_must_match_the_state_dimension(self):
        with pytest.raises(ScenarioError, match="scenario 2: C has 3 columns, expected 2"):
            ScenarioSet([Scenario(1, np.zeros((0, 2)), np.zeros((0, 0)), 0.5),
                         Scenario(2, np.ones((1, 3)), np.zeros((1, 1)), 0.5)], 2)

    @pytest.mark.parametrize("probabilities", [[1.0, 0.0], [1.5, -0.5]])
    def test_probabilities_must_be_positive(self, probabilities):
        with pytest.raises(ScenarioError, match="scenario 2: probability must be positive"):
            _scenario_set([1, 2], probabilities)


def _searchsorted_minimum(scs, u):
    """The inverse CDF as a searchsorted followed by np.minimum."""
    pos = np.searchsorted(scs._edges, u, side="right")
    return scs._indices[np.minimum(pos, len(scs._indices) - 1)]


class TestInverseCdf:
    def test_uniform_past_a_short_sum_picks_the_last_scenario(self):
        # rounding can leave the probabilities summing to just below 1
        scs = _scenario_set([1, 2, 3], [0.5, 0.25, 0.25 - 1e-13])
        total = scs._edges[-1]
        assert total < 1.0
        u = np.concatenate([[total, np.nextafter(total, 1.0), np.nextafter(1.0, 0.0)],
                            np.linspace(total, 1.0, 50, endpoint=False)])
        assert np.all(scs.inverse_cdf(u) == 3)

    def test_uniform_on_an_inner_edge_picks_the_next_scenario(self):
        scs = _scenario_set([1, 2, 3], [0.5, 0.25, 0.25])
        assert scs.inverse_cdf(np.array([0.5, 0.75])).tolist() == [2, 3]
        assert scs.inverse_cdf(np.array([np.nextafter(0.5, 0.0), 0.0])).tolist() == [1, 1]

    def test_scenario_indices_map_through_the_index_table(self):
        scs = _scenario_set([2, 5, 9], [0.2, 0.3, 0.5])
        u = np.array([0.1, 0.2, 0.45, 0.5, 0.99])
        assert scs.inverse_cdf(u).tolist() == [2, 5, 5, 9, 9]

    def test_equals_searchsorted_then_minimum(self):
        u = np.concatenate([np.random.default_rng(3).random(1_000_000),
                            [0.0, np.nextafter(1.0, 0.0), 1.0, 1.5, -0.5, np.nan]])
        for scs in (scenarios_from_channels(chans(*[(0.8, 0.0)] * 4)),
                    _scenario_set([1, 2, 3], [0.5, 0.25, 0.25 - 1e-13]),
                    _scenario_set([2, 5, 9], [0.2, 0.3, 0.5])):
            got = scs.inverse_cdf(u)
            assert np.array_equal(got, _searchsorted_minimum(scs, u))
            assert got.dtype == scs._indices.dtype


class TestWrittenInPlace:
    """With `out`, the path lands in a given row, the values the
    allocating call returns."""

    @pytest.fixture(params=["fig3", "sparse"])
    def scs(self, request):
        if request.param == "fig3":
            return five_bus_scenarios()
        return _scenario_set([2, 5, 9], [0.2, 0.3, 0.5])

    def test_inverse_cdf_into_a_row(self, scs):
        u = np.random.default_rng(5).random(200)
        rows = np.full((3, 200), -1)
        row = rows[1]
        assert scs.inverse_cdf(u, out=row) is row
        assert np.array_equal(row, scs.inverse_cdf(u))
        assert len(set(row.tolist())) > 1
        assert np.all(rows[[0, 2]] == -1)

    def test_skeleton_into_a_row(self, scs):
        row = np.full(50, -1)
        assert sample_skeleton(scs, 50, 9, out=row) is row
        assert np.array_equal(row, sample_skeleton(scs, 50, 9))
        assert len(set(row.tolist())) > 1
        rows = np.full((3, 50), -1)
        sample_skeleton(scs, 50, np.random.default_rng(9), out=rows[1])
        assert np.array_equal(rows[1], row)
        assert np.all(rows[[0, 2]] == -1)


class TestSkeleton:
    def test_single_scenario_constant(self):
        scs = scenarios_from_channels(chans((1.0, 0.0)))
        seq = sample_skeleton(scs, 50, seed=1)
        assert np.all(seq == 1)

    def test_reproducible(self):
        scs = scenarios_from_channels(chans((0.7, 0.0), (0.9, 0.0)))
        a = sample_skeleton(scs, 1000, seed=42)
        b = sample_skeleton(scs, 1000, seed=42)
        assert np.array_equal(a, b)
        c = sample_skeleton(scs, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_empirical_frequency_fair_coin(self):
        scs = scenarios_from_channels(chans((0.5, 0.0)))
        assert len(scs) == 2
        seq = sample_skeleton(scs, 100_000, seed=7)
        freq = np.mean(seq == 1)
        assert 0.494 <= freq <= 0.506   # 3-sigma binomial band

    def test_empirical_frequency_rare_scenario(self):
        scs = scenarios_from_channels(chans((0.99, 0.0), (0.995, 0.0)))
        seq = sample_skeleton(scs, 1_000_000, seed=11)
        p4 = np.mean(seq == 4)
        assert 1e-5 <= p4 <= 1e-4   # around the 5e-5 target

    def test_two_seeds_statistically_independent(self):
        scs = scenarios_from_channels(chans((0.6, 0.0), (0.7, 0.0)))
        a = sample_skeleton(scs, 100_000, seed=100)
        b = sample_skeleton(scs, 100_000, seed=200)
        table = np.zeros((4, 4))
        for i, j in zip(a, b):
            table[i - 1, j - 1] += 1
        _, pvalue, _, _ = chi2_contingency(table)
        assert pvalue > 0.001

    def test_horizon_validation(self):
        scs = scenarios_from_channels(chans((0.5, 0.0)))
        with pytest.raises(ScenarioError):
            sample_skeleton(scs, 0, seed=1)
