"""Power-network modeling: buses, lines, power flow, and linearization.

A grid is a set of buses joined by series-impedance lines.  Dynamic buses
carry second-order rotor dynamics (angle and speed states); non-dynamic
buses are algebraic and get eliminated by the network solve; a slack bus,
when present, holds a fixed phasor and absorbs the residual injection.
Non-dynamic buses may also be anchored (fixed phasor, no balance
equation), which is how the bundled reduced models freeze the part of a
network that was folded away.

The linearization is numerical: central finite differences of the dynamic
right-hand side through the network solve, with a Richardson step check.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .numerics import operator_norm


class GridError(Exception):
    """Raised for model or solver failures (bad data, non-convergence)."""


DYNAMIC = "dynamic"
NON_DYNAMIC = "non_dynamic"
SLACK = "slack"


@dataclass
class Bus:
    id: int
    kind: str = NON_DYNAMIC
    voltage: float = 1.0          # magnitude, pu
    angle: float = 0.0            # rad; operating/fixed value depending on flags
    voltage_fixed: bool = True
    angle_fixed: bool = False     # True freezes the phasor (anchor); slack implies it
    inertia: float = 0.0          # M, dynamic buses only
    damping: float = 0.0          # b, dynamic buses only
    p_load: float = 0.0
    q_load: float = 0.0
    p_in: float = 0.0             # dispatched real power, dynamic buses

    def __post_init__(self):
        if self.kind not in (DYNAMIC, NON_DYNAMIC, SLACK):
            raise GridError(f"unknown bus kind {self.kind!r}")
        if self.kind == DYNAMIC and (self.inertia <= 0 or self.damping <= 0):
            raise GridError(f"bus {self.id}: dynamic bus needs inertia > 0 and damping > 0")
        for v in (self.voltage, self.angle, self.p_load, self.q_load, self.p_in):
            if not math.isfinite(v):
                raise GridError(f"bus {self.id}: non-finite data")


@dataclass
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float
    shunt_b: float = 0.0          # total line-charging susceptance, pu

    def __post_init__(self):
        if math.hypot(self.r, self.x) <= 0:
            raise GridError(f"line {self.from_bus}-{self.to_bus}: |Z| must be positive")

    @property
    def z_mag(self):
        return math.hypot(self.r, self.x)

    @property
    def theta(self):
        return math.atan2(self.x, self.r)


@dataclass
class GridModel:
    buses: list
    lines: list
    base_mva: float = 100.0
    base_kv: float = 230.0
    name: str = "grid"
    equilibrium_mode: str = "solve"   # "solve" or "anchored"

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise GridError("duplicate bus ids")
        if sum(1 for b in self.buses if b.kind == SLACK) > 1:
            raise GridError("at most one slack bus allowed")
        known = set(ids)
        for ln in self.lines:
            if ln.from_bus not in known or ln.to_bus not in known:
                raise GridError(f"line {ln.from_bus}-{ln.to_bus} references unknown bus")
        self._check_components()
        self._index = {b.id: k for k, b in enumerate(self.buses)}

    def _check_components(self):
        # Every island must carry its own angle reference (a slack or an
        # anchored bus); a single fully-connected component may instead be
        # gauge-pinned by the equilibrium solver.
        if not self.buses:
            raise GridError("grid has no buses")
        adj = {b.id: set() for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        unvisited = {b.id for b in self.buses}
        comps = []
        while unvisited:
            root = next(iter(unvisited))
            seen = {root}
            stack = [root]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    stack.append(nxt)
            comps.append(seen)
            unvisited -= seen
        if len(comps) == 1:
            return
        by_id = {b.id: b for b in self.buses}
        for comp in comps:
            if not any(by_id[i].kind == SLACK or by_id[i].angle_fixed for i in comp):
                raise GridError(
                    "disconnected component without an angle reference: "
                    f"buses {sorted(comp)}"
                )

    @property
    def dynamic_buses(self):
        return [b for b in self.buses if b.kind == DYNAMIC]

    @property
    def n_states(self):
        return 2 * len(self.dynamic_buses)

    def bus(self, bus_id):
        return self.buses[self._index[bus_id]]

    def ybus(self):
        n = len(self.buses)
        Y = np.zeros((n, n), dtype=complex)
        for ln in self.lines:
            i = self._index[ln.from_bus]
            j = self._index[ln.to_bus]
            y = 1.0 / complex(ln.r, ln.x)
            Y[i, i] += y + 0.5j * ln.shunt_b
            Y[j, j] += y + 0.5j * ln.shunt_b
            Y[i, j] -= y
            Y[j, i] -= y
        return Y


def line_flow(vi, di, vj, dj, line):
    """Sending-end real and reactive power from bus i toward bus j.

    P = Vi^2 cos(theta)/|Z| - Vi Vj cos(theta + dij)/|Z|, and the same with
    sines for Q, where dij = di - dj and |Z|, theta describe the series
    impedance.
    """
    Z = line.z_mag
    th = line.theta
    dij = di - dj
    P = vi * vi / Z * math.cos(th) - vi * vj / Z * math.cos(th + dij)
    Q = vi * vi / Z * math.sin(th) - vi * vj / Z * math.sin(th + dij)
    return P, Q


@dataclass
class NetworkSolution:
    angles: dict                  # bus id -> rad
    voltages: dict                # bus id -> pu
    injections: dict              # bus id -> net real power into the network, pu
    q_injections: dict
    residual: float
    iterations: int

    def slack_power(self, grid):
        sl = [b for b in grid.buses if b.kind == SLACK]
        if not sl:
            raise GridError("grid has no slack bus")
        return self.injections[sl[0].id]


def _injections(Y, V, th):
    Vc = V * np.exp(1j * th)
    S = Vc * np.conj(Y @ Vc)
    return S.real, S.imag


def _pf_jacobian(Y, V, th, p_rows, q_rows, ang_cols, v_cols):
    """Analytic power-flow Jacobian d(P,Q)/d(theta, V) on the given index sets."""
    Vc = V * np.exp(1j * th)
    Ibus = Y @ Vc
    dV = np.diag(Vc)
    dI = np.diag(Ibus)
    dVn = np.diag(Vc / V)
    dS_dth = 1j * dV @ (np.conj(dI) - np.conj(Y) @ np.conj(dV))
    dS_dV = dV @ np.conj(Y) @ np.conj(dVn) + np.conj(dI) @ dVn
    na, nv = len(ang_cols), len(v_cols)
    J = np.zeros((len(p_rows) + len(q_rows), na + nv))
    J[: len(p_rows), :na] = dS_dth[np.ix_(p_rows, ang_cols)].real
    J[: len(p_rows), na:] = dS_dV[np.ix_(p_rows, v_cols)].real
    J[len(p_rows):, :na] = dS_dth[np.ix_(q_rows, ang_cols)].imag
    J[len(p_rows):, na:] = dS_dV[np.ix_(q_rows, v_cols)].imag
    return J


def solve_network(grid, dynamic_angles, tol=1e-8, max_iter=50, start=None):
    """Solve the algebraic network equations given the dynamic-bus angles.

    Unknowns are the angles of free non-dynamic buses and the magnitudes of
    voltage-free buses; a slack bus, if present, stays pinned and absorbs
    the imbalance.  Newton iteration with an analytic Jacobian and step
    halving; flat start unless `start` provides (angles, voltages) arrays.
    """
    Y = grid.ybus()
    n = len(grid.buses)
    idx = grid._index
    V = np.array([b.voltage for b in grid.buses], dtype=float)
    th = np.array([b.angle for b in grid.buses], dtype=float)
    if start is not None:
        th = np.array(start[0], dtype=float)
        V = np.array(start[1], dtype=float)
    for b in grid.buses:
        if b.kind == DYNAMIC:
            if b.id not in dynamic_angles:
                raise GridError(f"missing angle for dynamic bus {b.id}")
            th[idx[b.id]] = dynamic_angles[b.id]
    p_rows = [idx[b.id] for b in grid.buses
              if b.kind == NON_DYNAMIC and not b.angle_fixed]
    q_rows = [idx[b.id] for b in grid.buses
              if b.kind != SLACK and not b.voltage_fixed]
    Pset = np.array([b.p_in - b.p_load for b in grid.buses])
    Qset = np.array([-b.q_load for b in grid.buses])

    def mismatch(V, th):
        P, Q = _injections(Y, V, th)
        return np.concatenate([(Pset - P)[p_rows], (Qset - Q)[q_rows]])

    mis = mismatch(V, th)
    it = 0
    while mis.size and np.max(np.abs(mis)) > tol:
        if it >= max_iter:
            raise GridError(
                f"network solve did not converge in {max_iter} iterations "
                f"(residual {np.max(np.abs(mis)):.3e})"
            )
        J = _pf_jacobian(Y, V, th, p_rows, q_rows, p_rows, q_rows)
        try:
            dx = np.linalg.solve(J, mis)
        except np.linalg.LinAlgError as exc:
            raise GridError("singular power-flow Jacobian") from exc
        step = 1.0
        base = np.linalg.norm(mis)
        for _ in range(12):
            th_t = th.copy()
            V_t = V.copy()
            th_t[p_rows] += step * dx[: len(p_rows)]
            V_t[q_rows] += step * dx[len(p_rows):]
            if np.all(V_t > 0.05) and np.linalg.norm(mismatch(V_t, th_t)) < base:
                break
            step *= 0.5
        th, V = th_t, V_t
        mis = mismatch(V, th)
        it += 1
    P, Q = _injections(Y, V, th)
    return NetworkSolution(
        angles={b.id: float(th[idx[b.id]]) for b in grid.buses},
        voltages={b.id: float(V[idx[b.id]]) for b in grid.buses},
        injections={b.id: float(P[idx[b.id]]) for b in grid.buses},
        q_injections={b.id: float(Q[idx[b.id]]) for b in grid.buses},
        residual=float(np.max(np.abs(mis))) if mis.size else 0.0,
        iterations=it,
    )


@dataclass
class Equilibrium:
    angles: dict                  # dynamic bus id -> rad (omega = 0 throughout)
    p_in: dict                    # dynamic bus id -> effective dispatched power
    network: NetworkSolution
    residual: float


def _swing_residual(grid, net, p_in):
    res = []
    for b in grid.dynamic_buses:
        res.append(p_in[b.id] - b.p_load - net.injections[b.id])
    return np.array(res)


def find_equilibrium(grid, tol=1e-8, max_iter=50):
    """Stationary operating point: omega = 0, rotor real-power balance.

    In "anchored" mode the dynamic angles are taken from the bus data and
    the dispatched powers are recovered from the balance.  In "solve" mode
    the dynamic angles are unknowns of a joint Newton iteration with the
    network equations; if no fixed-angle bus exists the first dynamic bus
    pins the angle gauge and its own balance is verified afterward.
    """
    dyn = grid.dynamic_buses
    if not dyn:
        net = solve_network(grid, {}, tol=tol, max_iter=max_iter)
        return Equilibrium({}, {}, net, net.residual)
    if grid.equilibrium_mode == "anchored":
        angles = {b.id: b.angle for b in dyn}
        net = solve_network(grid, angles, tol=tol, max_iter=max_iter)
        p_in = {b.id: b.p_load + net.injections[b.id] for b in dyn}
        return Equilibrium(angles, p_in, net, 0.0)

    has_anchor = any(
        b.kind == SLACK or (b.kind == NON_DYNAMIC and b.angle_fixed) for b in grid.buses
    )
    free = list(dyn) if has_anchor else dyn[1:]
    pinned = None if has_anchor else dyn[0]
    p_in = {b.id: b.p_in for b in dyn}
    angles = {b.id: b.angle for b in dyn}

    x = np.array([angles[b.id] for b in free])
    net = None
    for it in range(max_iter):
        for k, b in enumerate(free):
            angles[b.id] = x[k]
        net = solve_network(grid, angles, tol=tol, max_iter=max_iter)
        res = np.array([p_in[b.id] - b.p_load - net.injections[b.id] for b in free])
        if not free or np.max(np.abs(res)) < tol:
            break
        h = 1e-7
        J = np.zeros((len(free), len(free)))
        for k, b in enumerate(free):
            ap = dict(angles)
            ap[b.id] = x[k] + h
            np_ = solve_network(grid, ap, tol=tol, max_iter=max_iter)
            am = dict(angles)
            am[b.id] = x[k] - h
            nm = solve_network(grid, am, tol=tol, max_iter=max_iter)
            J[:, k] = [
                ((p_in[bb.id] - bb.p_load - np_.injections[bb.id])
                 - (p_in[bb.id] - bb.p_load - nm.injections[bb.id])) / (2 * h)
                for bb in free
            ]
        try:
            x = x + np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as exc:
            raise GridError("singular equilibrium Jacobian") from exc
    else:
        raise GridError(
            f"equilibrium solve did not converge (residual {np.max(np.abs(res)):.3e})"
        )
    full = _swing_residual(grid, net, p_in)
    resid = float(np.max(np.abs(full))) if full.size else 0.0
    if pinned is not None and resid > math.sqrt(tol):
        raise GridError(
            f"no equilibrium: reference bus {pinned.id} imbalance {resid:.3e} "
            "(grid dispatch and loads are inconsistent)"
        )
    return Equilibrium(angles, p_in, net, resid)


@dataclass
class LinearizedSystem:
    A: np.ndarray
    B1: np.ndarray                # wrt dynamic-bus dispatched power
    B2: np.ndarray                # wrt non-dynamic-bus dispatched power
    D1: np.ndarray                # wrt dynamic-bus loads
    D2: np.ndarray                # wrt non-dynamic-bus loads
    equilibrium: Equilibrium
    state_labels: list = field(default_factory=list)
    fd_step: float = 0.0
    richardson_defect: float = 0.0

    @property
    def n(self):
        return self.A.shape[0]


def _rhs_factory(grid, eq):
    dyn = grid.dynamic_buses
    th0 = np.array([eq.network.angles[b.id] for b in grid.buses])
    V0 = np.array([eq.network.voltages[b.id] for b in grid.buses])

    def rhs(x, p_in=None, p_load_d=None, p_in_nd=None, p_load_nd=None):
        angles = {b.id: x[2 * k] for k, b in enumerate(dyn)}
        work = grid
        if p_in_nd or p_load_nd:
            work = _with_nd_injections(grid, p_in_nd or {}, p_load_nd or {})
        net = solve_network(work, angles, start=(th0, V0))
        out = np.empty(2 * len(dyn))
        for k, b in enumerate(dyn):
            omega = x[2 * k + 1]
            pin = (p_in or eq.p_in)[b.id]
            pload = b.p_load + (p_load_d or {}).get(b.id, 0.0)
            out[2 * k] = omega
            out[2 * k + 1] = (pin - pload - net.injections[b.id] - b.damping * omega) / b.inertia
        return out

    return rhs


def _with_nd_injections(grid, p_in_nd, p_load_nd):
    buses = []
    for b in grid.buses:
        extra_in = p_in_nd.get(b.id, 0.0)
        extra_load = p_load_nd.get(b.id, 0.0)
        if extra_in or extra_load:
            b = Bus(b.id, b.kind, b.voltage, b.angle, b.voltage_fixed, b.angle_fixed,
                    b.inertia, b.damping, b.p_load + extra_load, b.q_load,
                    b.p_in + extra_in)
        buses.append(b)
    g = GridModel(buses, grid.lines, grid.base_mva, grid.base_kv, grid.name,
                  grid.equilibrium_mode)
    return g


def linearize(grid, eq=None, h=1e-5, richardson_tol=1e-4):
    """State-space matrices at the equilibrium by central finite differences.

    Each state (and input/load) coordinate is perturbed by +-h with the
    network re-solved at every evaluation; the step is accepted once the
    Jacobians at h and h/2 agree to `richardson_tol` relative.
    """
    if eq is None:
        eq = find_equilibrium(grid)
    dyn = grid.dynamic_buses
    nd = [b for b in grid.buses if b.kind == NON_DYNAMIC]
    n = 2 * len(dyn)
    rhs = _rhs_factory(grid, eq)
    x0 = np.zeros(n)
    for k, b in enumerate(dyn):
        x0[2 * k] = eq.angles[b.id]

    def jac_states(step):
        A = np.empty((n, n))
        for col in range(n):
            xp = x0.copy()
            xp[col] += step
            xm = x0.copy()
            xm[col] -= step
            A[:, col] = (rhs(xp) - rhs(xm)) / (2 * step)
        return A

    step = h
    A = jac_states(step)
    defect = np.inf
    for _ in range(4):
        A_half = jac_states(step / 2)
        scale = max(operator_norm(A), 1.0)
        defect = operator_norm(A - A_half) / scale
        if defect < richardson_tol:
            A = A_half
            break
        A = A_half
        step /= 2
    else:
        raise GridError(f"finite-difference Jacobian did not settle (defect {defect:.2e})")

    def jac_param(bus_list, key, step_p=1e-6):
        cols = []
        for b in bus_list:
            if key == "p_in_d":
                up = rhs(x0, p_in={**eq.p_in, b.id: eq.p_in[b.id] + step_p})
                dn = rhs(x0, p_in={**eq.p_in, b.id: eq.p_in[b.id] - step_p})
            elif key == "p_load_d":
                up = rhs(x0, p_load_d={b.id: step_p})
                dn = rhs(x0, p_load_d={b.id: -step_p})
            elif key == "p_in_nd":
                up = rhs(x0, p_in_nd={b.id: step_p})
                dn = rhs(x0, p_in_nd={b.id: -step_p})
            else:
                up = rhs(x0, p_load_nd={b.id: step_p})
                dn = rhs(x0, p_load_nd={b.id: -step_p})
            cols.append((up - dn) / (2 * step_p))
        return np.array(cols).T if cols else np.zeros((n, 0))

    B1 = jac_param(dyn, "p_in_d")
    D1 = jac_param(dyn, "p_load_d")
    B2 = jac_param(nd, "p_in_nd")
    D2 = jac_param(nd, "p_load_nd")
    labels = []
    for b in dyn:
        labels += [f"delta_{b.id}", f"omega_{b.id}"]
    return LinearizedSystem(A, B1, B2, D1, D2, eq, labels, step, defect)


# ---------------------------------------------------------------------------
# model loading

def load_grid(source):
    """Build a GridModel from a dict or a JSON file path."""
    if isinstance(source, (str,)) and not source.lstrip().startswith("{"):
        with open(source) as f:
            data = json.load(f)
    elif isinstance(source, str):
        data = json.loads(source)
    else:
        data = source
    buses = [
        Bus(
            id=b["id"],
            kind=b.get("kind", NON_DYNAMIC),
            voltage=b.get("voltage", 1.0),
            angle=b.get("angle", 0.0),
            voltage_fixed=b.get("voltage_fixed", True),
            angle_fixed=b.get("angle_fixed", False),
            inertia=b.get("inertia", 0.0),
            damping=b.get("damping", 0.0),
            p_load=b.get("p_load", 0.0),
            q_load=b.get("q_load", 0.0),
            p_in=b.get("p_in", 0.0),
        )
        for b in data["buses"]
    ]
    lines = [
        Line(ln["from"], ln["to"], ln["r"], ln["x"], ln.get("shunt_b", 0.0))
        for ln in data["lines"]
    ]
    return GridModel(
        buses,
        lines,
        base_mva=data.get("base_mva", 100.0),
        base_kv=data.get("base_kv", 230.0),
        name=data.get("name", "grid"),
        equilibrium_mode=data.get("equilibrium_mode", "solve"),
    )


_MAT_NUM = re.compile(r"[-+0-9.eE]+")


def _matpower_matrix(text, name):
    m = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.S)
    if not m:
        raise GridError(f"matpower file missing mpc.{name}")
    rows = []
    for raw in m.group(1).splitlines():
        raw = raw.split("%")[0].strip().rstrip(";")
        if not raw:
            continue
        rows.append([float(tok) for tok in _MAT_NUM.findall(raw)])
    return rows


def read_matpower(path_or_text):
    """Import a MATPOWER-style case file into a GridModel.

    Reads baseMVA and the bus/branch/gen tables; only bus type, Pd, Qd,
    Vm, Va and branch R, X, B, status (plus gen Pg) are consumed.  All
    buses come back non-dynamic except the slack; callers promote buses
    to dynamic as needed.
    """
    text = path_or_text
    if "\n" not in str(path_or_text):
        with open(path_or_text) as f:
            text = f.read()
    m = re.search(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)", text)
    base_mva = float(m.group(1)) if m else 100.0
    bus_rows = _matpower_matrix(text, "bus")
    branch_rows = _matpower_matrix(text, "branch")
    try:
        gen_rows = _matpower_matrix(text, "gen")
    except GridError:
        gen_rows = []
    pg = {}
    for g in gen_rows:
        pg[int(g[0])] = pg.get(int(g[0]), 0.0) + g[1] / base_mva
    buses = []
    base_kv = 230.0
    for row in bus_rows:
        bid, btype = int(row[0]), int(row[1])
        pd, qd = row[2] / base_mva, row[3] / base_mva
        vm, va = row[7], math.radians(row[8])
        base_kv = row[9] if len(row) > 9 else base_kv
        kind = SLACK if btype == 3 else NON_DYNAMIC
        buses.append(
            Bus(
                id=bid,
                kind=kind,
                voltage=vm,
                angle=va,
                voltage_fixed=(btype != 1),
                angle_fixed=(btype == 3),
                p_load=pd,
                q_load=qd,
                p_in=pg.get(bid, 0.0) if btype != 3 else 0.0,
            )
        )
    lines = []
    for row in branch_rows:
        status = row[10] if len(row) > 10 else 1.0
        if status == 0:
            continue
        lines.append(Line(int(row[0]), int(row[1]), row[2], row[3], row[4]))
    return GridModel(buses, lines, base_mva=base_mva, base_kv=base_kv,
                     name="matpower_import")


def _case_text(fname):
    return resources.files("gridobs").joinpath("cases").joinpath(fname).read_text()


def builtin(name):
    """Load one of the bundled models.

    two_bus        two coupled generators over a pure reactance
    ieee5          reduced two-generator dynamic equivalent of the 5-bus
                   system at its published operating point
    ieee33         reduced twin-generator dynamic equivalent of the 33-bus
                   feeder (generator buses 18 and 33 with their feeder ties)
    ieee33_feeder  full 33-bus radial feeder imported from the bundled
                   MATPOWER-style case, generator buses made dynamic
    """
    if name in ("two_bus", "ieee5", "ieee33"):
        return load_grid(json.loads(_case_text(name + ".json")))
    if name == "ieee33_feeder":
        g = read_matpower(_case_text("case33bw.m"))
        params = {18: (1.8, 0.22), 33: (0.9, 0.12)}
        buses = []
        for b in g.buses:
            if b.id in params:
                M, d = params[b.id]
                b = Bus(b.id, DYNAMIC, b.voltage, b.angle, False, False,
                        M, d, b.p_load, b.q_load, 0.0)
            buses.append(b)
        return GridModel(buses, g.lines, g.base_mva, g.base_kv,
                         name="ieee33_feeder", equilibrium_mode="solve")
    raise GridError(f"unknown builtin grid {name!r}")


def resolve_grid(spec):
    """Grid from a config value: an existing grid JSON file, a dict, or
    else a bundled name (GridError if it is none)."""
    if isinstance(spec, str) and not os.path.isfile(spec):
        return builtin(spec)
    return load_grid(spec)
