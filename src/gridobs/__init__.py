"""Grid state estimation under randomly interrupted sensing.

Builds linearized swing-dynamics models of small power grids, turns
per-channel packet-delivery statistics into a switched sensing model,
designs coordinated fixed-gain observers that stay convergent through
sensor dropouts, quantifies their convergence rate and steady-state error
variance, and verifies the analysis by Monte Carlo simulation.
"""

from . import analysis, grid, numerics, observer, shs, sim
from .grid import (Bus, GridModel, Line, LinearizedSystem, builtin,
                   find_equilibrium, linearize, load_grid,
                   read_matpower, solve_network)
from .observer import (CoordinatedObserver, SubsystemDecomposition, decompose,
                       design, design_gains)
from .shs import (Scenario, ScenarioSet, SensorChannel, sample_skeleton,
                  scenarios_from_channels)
from .sim import ErrorTrajectory, SimConfig, monte_carlo, run_replica

__version__ = "0.1.0"
