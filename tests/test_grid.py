"""Grid modeling: line flows, network solve, equilibrium, linearization."""

import dataclasses
import math

import numpy as np
import pytest

from gridobs import grid
from gridobs.grid import (Bus, GridError, GridModel, Line, builtin,
                          find_equilibrium, linearize,
                          read_matpower, solve_network)

from conftest import (A2BUS_PRINTED, A5_PRINTED, A5_EIGENVALUES, A33_PRINTED,
                      IEEE5_TABLE, physical_ieee5_network, slack_power)


def line_flow(vi, di, vj, dj, line):
    """Sending-end real and reactive power from bus i toward bus j.

    P = Vi^2 cos(theta)/|Z| - Vi Vj cos(theta + dij)/|Z|, and the same with
    sines for Q, where dij = di - dj and |Z|, theta describe the series
    impedance.  An oracle for the network solve's injections.
    """
    Z = math.hypot(line.r, line.x)
    th = math.atan2(line.x, line.r)
    dij = di - dj
    P = vi * vi / Z * math.cos(th) - vi * vj / Z * math.cos(th + dij)
    Q = vi * vi / Z * math.sin(th) - vi * vj / Z * math.sin(th + dij)
    return P, Q


class TestLineFlow:
    def test_equal_voltage_zero_angle_no_transfer(self):
        ln = Line(1, 2, 0.02, 0.06)
        P, _ = line_flow(1.0, 0.0, 1.0, 0.0, ln)
        assert abs(P) < 1e-15

    def test_pure_reactance_recovers_sine_coupling(self):
        # theta = 90 deg: P = (1/X) sin(delta)
        ln = Line(1, 2, 0.0, 0.1)
        for d in (0.05, 0.3, -0.2):
            P, Q = line_flow(1.0, d, 1.0, 0.0, ln)
            assert P == pytest.approx(np.sin(d) / 0.1, rel=1e-12)
            assert Q == pytest.approx((1 - np.cos(d)) / 0.1, rel=1e-12)

    def test_balance_at_solved_five_bus_operating_point(self):
        # At the solved operating point, the received-power sums at the
        # load buses must equal the loads: received = sending-end flow of
        # the opposite direction minus the line loss, so check the balance
        # through the independently computed network injections.
        g = physical_ieee5_network()
        angles = {1: np.radians(IEEE5_TABLE[1]["deg"]),
                  2: np.radians(IEEE5_TABLE[2]["deg"])}
        net = solve_network(g, angles)
        for bus_id in (3, 4, 5):
            # net injection at a load bus equals minus its load
            assert net.injections[bus_id] == pytest.approx(
                -IEEE5_TABLE[bus_id]["pl"], abs=1e-7)
        # line_flow consistency: sending-end sums reproduce the injections
        for b in g.buses:
            sent = 0.0
            for ln in g.lines:
                if ln.from_bus == b.id:
                    o = ln.to_bus
                elif ln.to_bus == b.id:
                    o = ln.from_bus
                else:
                    continue
                P, _ = line_flow(net.voltages[b.id], net.angles[b.id],
                                 net.voltages[o], net.angles[o], ln)
                sent += P
            assert sent == pytest.approx(net.injections[b.id], abs=1e-9)


class TestSolveNetwork:
    def test_two_bus_arccos_identity(self):
        # one dynamic bus, one load bus: the load-bus angle satisfies
        # delta = theta - arccos((beta2 + PL) / beta) relative to bus 1
        R, X, V1, V2, PL = 0.03, 0.09, 1.02, 0.98, 0.30
        g = GridModel(
            [Bus(1, grid.DYNAMIC, V1, 0.0, inertia=1.0, damping=0.1),
             Bus(2, grid.NON_DYNAMIC, V2, 0.0, p_load=PL)],
            [Line(1, 2, R, X)])
        d1 = 0.1
        net = solve_network(g, {1: d1})
        Z = math.hypot(R, X)
        th = math.atan2(X, R)
        beta = V1 * V2 / Z
        beta2 = V2 * V2 / Z * math.cos(th)
        delta = th - math.acos((beta2 + PL) / beta)
        assert net.angles[2] == pytest.approx(d1 - delta, abs=1e-9)
        assert net.residual < 1e-8

    def test_zero_loads_zero_inputs_equal_angles(self):
        g = GridModel(
            [Bus(1, grid.DYNAMIC, 1.0, 0.0, inertia=1.0, damping=0.1),
             Bus(2, grid.NON_DYNAMIC, 1.0), Bus(3, grid.NON_DYNAMIC, 1.0)],
            [Line(1, 2, 0.01, 0.05), Line(2, 3, 0.02, 0.08)])
        net = solve_network(g, {1: 0.25})
        assert net.angles[2] == pytest.approx(0.25, abs=1e-10)
        assert net.angles[3] == pytest.approx(0.25, abs=1e-10)

    def test_five_bus_load_angles_match_published_table(self):
        g = physical_ieee5_network()
        angles = {1: np.radians(IEEE5_TABLE[1]["deg"]),
                  2: np.radians(IEEE5_TABLE[2]["deg"])}
        net = solve_network(g, angles)
        for bus_id in (3, 4, 5):
            want = np.radians(IEEE5_TABLE[bus_id]["deg"])
            assert abs(net.angles[bus_id] - want) < 1e-2

    def test_missing_dynamic_angle_rejected(self):
        g = builtin("two_bus")
        with pytest.raises(GridError, match="missing angle"):
            solve_network(g, {1: 0.0})


class TestFindEquilibrium:
    def test_two_bus_published_angle(self):
        eq = find_equilibrium(builtin("two_bus"))
        delta = eq.angles[1] - eq.angles[2]
        assert abs(delta - 0.1506) < 1e-4
        assert eq.residual < 1e-7

    def test_zero_dispatch_gives_flat_angles(self):
        g = GridModel(
            [Bus(1, grid.DYNAMIC, 1.0, 0.0, inertia=1.0, damping=0.1),
             Bus(2, grid.DYNAMIC, 1.0, 0.0, inertia=2.0, damping=0.2)],
            [Line(1, 2, 0.0, 0.05)])
        eq = find_equilibrium(g)
        assert eq.angles[1] == pytest.approx(0.0, abs=1e-12)
        assert eq.angles[2] == pytest.approx(0.0, abs=1e-9)

    def test_ieee33_published_generator_angles(self):
        eq = find_equilibrium(builtin("ieee33"))
        assert np.degrees(eq.angles[18]) == pytest.approx(-0.01, rel=1e-6)
        assert np.degrees(eq.angles[33]) == pytest.approx(0.12, rel=1e-6)

    def test_feeder_slack_power_and_voltage_profile(self):
        g = builtin("ieee33_feeder")
        eq = find_equilibrium(g)
        # canonical distribution-feeder solution: slack covers load+loss
        assert slack_power(eq.network, g) == pytest.approx(3.9177, abs=2e-3)
        assert min(eq.network.voltages.values()) == pytest.approx(0.9131, abs=1e-3)

    def test_grid_without_dynamic_buses_is_its_network_solution(self):
        g = GridModel(
            [Bus(1, grid.SLACK, 1.0, 0.0), Bus(2, grid.NON_DYNAMIC, 1.0, p_load=0.3)],
            [Line(1, 2, 0.01, 0.05)])
        eq = find_equilibrium(g)
        assert eq.angles == {} and eq.p_in == {}
        assert eq.network.angles == solve_network(g, {}).angles
        assert eq.residual == eq.network.residual < 1e-8
        assert eq.network.angles[2] < 0.0     # the load bus lags the slack

    def test_inconsistent_dispatch_rejected(self):
        g = GridModel(
            [Bus(1, grid.DYNAMIC, 1.0, 0.0, inertia=1.0, damping=0.1, p_in=1.0),
             Bus(2, grid.DYNAMIC, 1.0, 0.0, inertia=1.0, damping=0.1, p_in=1.0)],
            [Line(1, 2, 0.0, 0.05)])
        # lossless two-generator grid cannot absorb net surplus power
        with pytest.raises(GridError):
            find_equilibrium(g)

    def test_equilibrium_out_of_range_rejected(self):
        # requested transfer beyond the line's capability: no solution
        g = GridModel(
            [Bus(1, grid.DYNAMIC, 1.0, 0.0, inertia=1.0, damping=0.1,
                 p_in=300.0, p_load=0.0),
             Bus(2, grid.DYNAMIC, 1.0, 0.0, inertia=1.0, damping=0.1,
                 p_in=0.0, p_load=300.0)],
            [Line(1, 2, 0.0, 0.005)])   # capacity 200 < 300
        with pytest.raises(GridError):
            find_equilibrium(g)


def _started_at(g, eq, extra_p_in=None):
    """Copy of `g` whose bus data start the network solve at the equilibrium
    phasors, with extra dispatched power at the buses in `extra_p_in`."""
    extra_p_in = extra_p_in or {}
    buses = [dataclasses.replace(b, angle=eq.network.angles[b.id],
                                 voltage=eq.network.voltages[b.id],
                                 p_in=b.p_in + extra_p_in.get(b.id, 0.0))
             for b in g.buses]
    return GridModel(buses, g.lines, name=g.name, equilibrium_mode=g.equilibrium_mode)


def _accelerations(work, eq, angles):
    """Rotor accelerations at omega = 0 with the network re-solved."""
    net = solve_network(work, angles)
    return np.array([(eq.p_in[b.id] - b.p_load - net.injections[b.id]) / b.inertia
                     for b in work.dynamic_buses])


def fd_coupling(g, eq, h):
    """Central-difference oracle for A's acceleration-by-angle block."""
    work = _started_at(g, eq)
    cols = []
    for b in g.dynamic_buses:
        up, dn = dict(eq.angles), dict(eq.angles)
        up[b.id] += h
        dn[b.id] -= h
        cols.append((_accelerations(work, eq, up) - _accelerations(work, eq, dn)) / (2 * h))
    return np.array(cols).T


def fd_nd_inputs(g, eq, h):
    """Central-difference oracle for B2's acceleration rows."""
    cols = []
    for b in g.buses:
        if b.kind == grid.NON_DYNAMIC:
            up = _accelerations(_started_at(g, eq, {b.id: h}), eq, eq.angles)
            dn = _accelerations(_started_at(g, eq, {b.id: -h}), eq, eq.angles)
            cols.append((up - dn) / (2 * h))
    return np.array(cols).T


def rel_err(A, A_ref):
    mask = np.abs(A_ref) > 1e-12
    return np.max(np.abs((A[mask] - A_ref[mask]) / A_ref[mask]))


class TestLinearize:
    def test_two_bus_matches_closed_form(self, two_bus_lin):
        assert rel_err(two_bus_lin.A, A2BUS_PRINTED) < 1e-3
        # closed form: coupling = beta cos(delta)/M
        delta = two_bus_lin.equilibrium.angles[1] - two_bus_lin.equilibrium.angles[2]
        beta = 200.0
        assert two_bus_lin.A[1, 0] == pytest.approx(-beta * np.cos(delta), rel=1e-12)

    def test_five_bus_matches_published_matrix(self, ieee5_lin):
        assert rel_err(ieee5_lin.A, A5_PRINTED) < 1e-2
        got = np.sort(np.linalg.eigvals(ieee5_lin.A).real)
        assert np.max(np.abs(got - np.sort(A5_EIGENVALUES))) < 1e-2

    def test_ieee33_diagonal_couplings_and_damping(self, ieee33_lin):
        A = ieee33_lin.A
        for (i, j) in [(1, 0), (3, 2), (1, 1), (3, 3)]:
            assert abs((A[i, j] - A33_PRINTED[i, j]) / A33_PRINTED[i, j]) < 5e-2

    def test_input_and_load_matrices(self, two_bus_lin):
        B1, D1 = two_bus_lin.B1, two_bus_lin.D1
        want = np.array([[0, 0], [1.0, 0], [0, 0], [0, 1 / 1.5]])
        assert np.max(np.abs(B1 - want)) < 1e-6
        assert np.max(np.abs(D1 + want)) < 1e-6
        assert two_bus_lin.B2.shape == (4, 0)

    def test_feeder_load_sensitivity_is_nonzero(self):
        lin = linearize(builtin("ieee33_feeder"))
        # a load change at a mid-feeder bus must reach the generator rows
        assert lin.D2.shape[1] == 30   # load buses (33 minus slack minus 2 dynamic)
        assert np.max(np.abs(lin.D2)) > 1e-3


class TestLinearizationInvariants:
    @pytest.mark.parametrize("name", ["two_bus", "ieee5", "ieee33"])
    def test_kinematic_rows_are_exact_selectors(self, name):
        lin = linearize(builtin(name))
        n = lin.n
        for k in range(n // 2):
            row = lin.A[2 * k]
            want = np.zeros(n)
            want[2 * k + 1] = 1.0
            assert np.max(np.abs(row - want)) < 1e-12

    @pytest.mark.parametrize("name,md", [
        ("two_bus", [(1.0, 0.2), (1.5, 0.31)]),
        ("ieee5", [(1.9, 0.2), (0.9, 0.16)]),
        ("ieee33", [(1.8, 0.22), (0.9, 0.12)]),
    ])
    def test_damping_enters_linearly(self, name, md):
        lin = linearize(builtin(name))
        for k, (M, d) in enumerate(md):
            assert lin.A[2 * k + 1, 2 * k + 1] == pytest.approx(-d / M, rel=1e-12)

    def test_richardson_second_order_convergence(self):
        # halving the step of the central-difference oracle must shrink its
        # error against the analytic coupling block by about 4
        for name in ("two_bus", "ieee33_feeder"):
            g = builtin(name)
            eq = find_equilibrium(g)
            K = linearize(g, eq).A[1::2, 0::2]
            e1 = np.max(np.abs(fd_coupling(g, eq, 2e-3) - K))
            e2 = np.max(np.abs(fd_coupling(g, eq, 1e-3) - K))
            assert e1 / e2 == pytest.approx(4.0, rel=0.05), name

    def test_feeder_input_matrices_match_oracle(self):
        g = builtin("ieee33_feeder")
        eq = find_equilibrium(g)
        lin = linearize(g, eq)
        coarse, fine = fd_nd_inputs(g, eq, 1e-2), fd_nd_inputs(g, eq, 5e-3)
        # Richardson estimate of the fine oracle's truncation error
        trunc = np.max(np.abs(coarse - fine)) / 3
        assert trunc < 1e-7 * np.max(np.abs(fine))
        for M in (lin.B2, -lin.D2):
            assert np.all(M[0::2] == 0)
            assert np.max(np.abs(M[1::2] - fine)) < 1.25 * trunc

    @pytest.mark.parametrize("name", ["two_bus", "ieee5", "ieee33", "ieee33_feeder"])
    def test_load_matrices_negate_input_matrices(self, name):
        lin = linearize(builtin(name))
        assert np.array_equal(lin.D1, -lin.B1)
        assert np.array_equal(lin.D2, -lin.B2)

    @pytest.mark.parametrize("name", ["two_bus", "ieee5", "ieee33", "ieee33_feeder"])
    def test_equilibrium_is_stationary(self, name):
        g = builtin(name)
        eq = find_equilibrium(g)
        net = solve_network(g, eq.angles)
        for b in g.dynamic_buses:
            assert abs(eq.p_in[b.id] - b.p_load - net.injections[b.id]) < 1e-8

    def test_power_balance_at_feeder_equilibrium(self):
        g = builtin("ieee33_feeder")
        eq = find_equilibrium(g)
        # net injections sum to the series losses, which equal
        # generation + slack - loads
        losses = sum(eq.network.injections.values())
        loads = sum(b.p_load for b in g.buses)
        supplied = slack_power(eq.network, g) + sum(eq.p_in.values())
        assert losses > 0
        assert losses == pytest.approx(0.2027, abs=2e-3)
        assert supplied == pytest.approx(loads + losses, abs=1e-6)


class TestModelValidation:
    def test_duplicate_bus_ids(self):
        with pytest.raises(GridError, match="duplicate"):
            GridModel([Bus(1, grid.DYNAMIC, inertia=1, damping=1), Bus(1)],
                      [Line(1, 1, 0.0, 0.1)])

    def test_two_slacks_rejected(self):
        with pytest.raises(GridError, match="slack"):
            GridModel([Bus(1, grid.SLACK), Bus(2, grid.SLACK)],
                      [Line(1, 2, 0.0, 0.1)])

    def test_disconnected_without_reference_rejected(self):
        with pytest.raises(GridError, match="angle reference"):
            GridModel([Bus(1, grid.DYNAMIC, inertia=1, damping=1),
                       Bus(2, grid.NON_DYNAMIC),
                       Bus(3, grid.DYNAMIC, inertia=1, damping=1),
                       Bus(4, grid.NON_DYNAMIC)],
                      [Line(1, 2, 0.0, 0.1), Line(3, 4, 0.0, 0.1)])

    def test_dynamic_bus_needs_positive_inertia_damping(self):
        with pytest.raises(GridError):
            Bus(1, grid.DYNAMIC, inertia=0.0, damping=0.1)
        with pytest.raises(GridError):
            Bus(1, grid.DYNAMIC, inertia=1.0, damping=0.0)

    def test_zero_impedance_line_rejected(self):
        with pytest.raises(GridError):
            Line(1, 2, 0.0, 0.0)


class TestMatpowerImport:
    def test_bundled_feeder_case(self):
        from importlib import resources
        text = resources.files("gridobs").joinpath("cases/case33bw.m").read_text()
        g = read_matpower(text)
        assert len(g.buses) == 33
        assert len(g.lines) == 32          # open tie branches skipped
        assert g.base_mva == 1.0
        slack = [b for b in g.buses if b.kind == grid.SLACK]
        assert [b.id for b in slack] == [1]
        assert g.bus(2).p_load == pytest.approx(0.1)
        assert g.bus(30).q_load == pytest.approx(0.6)
        assert sum(b.p_load for b in g.buses) == pytest.approx(3.715)

    def test_minimal_case_with_pv_bus(self):
        text = """
        function mpc = tiny
        mpc.baseMVA = 10;
        mpc.bus = [
            1 3 0 0 0 0 1 1.0 0 10 1 1.1 0.9;
            2 1 5 2 0 0 1 1.0 0 10 1 1.1 0.9;
            3 2 0 0 0 0 1 1.02 0 10 1 1.1 0.9;
        ];
        mpc.gen = [
            3 4 0 10 -10 1.02 10 1 10 0;
        ];
        mpc.branch = [
            1 2 0.01 0.05 0.02 0 0 0 0 0 1 -360 360;
            2 3 0.02 0.06 0.00 0 0 0 0 0 1 -360 360;
        ];
        """
        g = read_matpower(text)
        b3 = g.bus(3)
        assert b3.voltage == pytest.approx(1.02)
        assert b3.voltage_fixed
        assert b3.p_in == pytest.approx(0.4)   # 4 MW on 10 MVA
        assert g.bus(2).p_load == pytest.approx(0.5)
        assert not g.bus(2).voltage_fixed
        assert g.lines[0].shunt_b == pytest.approx(0.02)


class TestGridLoader:
    def test_load_from_dict(self):
        data = {
            "name": "mini", "base_mva": 50.0,
            "buses": [
                {"id": 1, "kind": "dynamic", "inertia": 1.0, "damping": 0.1,
                 "p_in": 0.5},
                {"id": 2, "p_load": 0.5, "voltage_fixed": False,
                 "q_load": 0.1},
            ],
            "lines": [{"from": 1, "to": 2, "r": 0.01, "x": 0.1}],
        }
        g = grid.load_grid(data)
        assert g.name == "mini"
        assert g.base_mva == 50.0
        assert g.bus(1).kind == grid.DYNAMIC
        assert not g.bus(2).voltage_fixed
        import json
        with pytest.raises(OSError):
            grid.load_grid(json.dumps(data))   # JSON text is not a path

    def test_load_from_file(self, tmp_path):
        import json
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "buses": [{"id": 1, "kind": "dynamic", "inertia": 1.0,
                       "damping": 0.2}],
            "lines": [],
        }))
        g = grid.load_grid(str(path))   # isolated generator is legal
        eq = find_equilibrium(g)
        assert eq.angles[1] == 0.0
        assert grid.load_grid(path).buses == g.buses   # an os.PathLike

    @pytest.mark.parametrize("source", [5, [1], None, b"g.json"])
    def test_load_refuses_other_sources(self, source):
        # an int would otherwise be opened as a file descriptor
        with pytest.raises(GridError, match="dict or a JSON file path"):
            grid.load_grid(source)

    @pytest.mark.parametrize("spec", [5, [1], None, True])
    def test_resolve_names_the_config_key(self, spec):
        with pytest.raises(ValueError, match="config 'grid' must be a string or an object"):
            grid.resolve_grid(spec)

    def test_unknown_builtin(self):
        with pytest.raises(GridError, match="unknown builtin"):
            builtin("not_a_grid")
