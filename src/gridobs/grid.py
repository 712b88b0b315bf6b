"""Power-network modeling: buses, lines, power flow, and linearization.

A grid is a set of buses joined by series-impedance lines.  Dynamic buses
carry second-order rotor dynamics (angle and speed states); non-dynamic
buses are algebraic and get eliminated by the network solve; a slack bus,
when present, holds a fixed phasor and absorbs the residual injection.
Non-dynamic buses may also be anchored (fixed phasor, no balance
equation), which is how the bundled reduced models freeze the part of a
network that was folded away.

The linearization is analytic: the swing equations' Jacobian follows from
the power-flow Jacobian at the equilibrium by eliminating the network's
algebraic unknowns.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .numerics import is_finite_real


class GridError(Exception):
    """Raised for model or solver failures (bad data, non-convergence)."""


DYNAMIC = "dynamic"
NON_DYNAMIC = "non_dynamic"
SLACK = "slack"


def _finite_fields(obj, what, names):
    """Store each named field as a float; GridError unless it is a finite real."""
    for name in names:
        value = getattr(obj, name)
        if not is_finite_real(value):
            raise GridError(f"{what}: {name} must be a finite real number, got {value!r}")
        setattr(obj, name, float(value))


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
        _finite_fields(self, f"bus {self.id}",
                       ("voltage", "angle", "inertia", "damping", "p_load", "q_load", "p_in"))
        for name in ("voltage_fixed", "angle_fixed"):
            if not isinstance(getattr(self, name), bool):
                raise GridError(f"bus {self.id}: {name} must be true or false, "
                                f"got {getattr(self, name)!r}")
        if self.kind == DYNAMIC and (self.inertia <= 0 or self.damping <= 0):
            raise GridError(f"bus {self.id}: dynamic bus needs inertia > 0 and damping > 0")


@dataclass
class Line:
    from_bus: int
    to_bus: int
    r: float
    x: float
    shunt_b: float = 0.0          # total line-charging susceptance, pu

    def __post_init__(self):
        _finite_fields(self, f"line {self.from_bus}-{self.to_bus}", ("r", "x", "shunt_b"))
        if math.hypot(self.r, self.x) <= 0:
            raise GridError(f"line {self.from_bus}-{self.to_bus}: |Z| must be positive")


@dataclass
class GridModel:
    buses: list
    lines: list
    base_mva: float = 100.0
    name: str = "grid"
    equilibrium_mode: str = "solve"   # "solve" or "anchored"

    def __post_init__(self):
        if self.equilibrium_mode not in ("solve", "anchored"):
            raise GridError(f"unknown equilibrium_mode {self.equilibrium_mode!r}; "
                            "choose 'solve' or 'anchored'")
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


@dataclass
class NetworkSolution:
    angles: dict                  # bus id -> rad
    voltages: dict                # bus id -> pu
    injections: dict              # bus id -> net real power into the network, pu
    residual: float
    iterations: int


def _injections(Y, V, th):
    Vc = V * np.exp(1j * th)
    S = Vc * np.conj(Y @ Vc)
    return S.real, S.imag


def _pf_jacobian(Y, V, th, ang, mag):
    """Analytic power-flow Jacobian: the P rows at `ang` and Q rows at `mag`
    by the angles at `ang` and the magnitudes at `mag`."""
    Vc = V * np.exp(1j * th)
    Ibus = Y @ Vc
    dV = np.diag(Vc)
    dI = np.diag(Ibus)
    dVn = np.diag(Vc / V)
    dS_dth = 1j * dV @ (np.conj(dI) - np.conj(Y) @ np.conj(dV))
    dS_dV = dV @ np.conj(Y) @ np.conj(dVn) + np.conj(dI) @ dVn
    na = len(ang)
    J = np.zeros((na + len(mag), na + len(mag)))
    J[:na, :na] = dS_dth[np.ix_(ang, ang)].real
    J[:na, na:] = dS_dV[np.ix_(ang, mag)].real
    J[na:, :na] = dS_dth[np.ix_(mag, ang)].imag
    J[na:, na:] = dS_dV[np.ix_(mag, mag)].imag
    return J


NEWTON_TOL = 1e-8          # largest power mismatch a solve accepts, pu
NEWTON_MAX_ITER = 50


def _network_unknowns(grid):
    """Bus positions of the network's unknowns: the angles of free
    non-dynamic buses (with their P rows) and the magnitudes of free-voltage
    buses (with their Q rows)."""
    idx = grid._index
    ang = [idx[b.id] for b in grid.buses if b.kind == NON_DYNAMIC and not b.angle_fixed]
    mag = [idx[b.id] for b in grid.buses if b.kind != SLACK and not b.voltage_fixed]
    return ang, mag


def _newton(grid, ang, mag, angles=None):
    """Power flow: solve the P rows at bus positions `ang` for those angles
    and the Q rows at `mag` for those magnitudes.

    Newton iteration with the analytic Jacobian and step halving, started
    from the bus data with the bus angles in `angles` (id -> rad) replaced;
    the setpoints are each bus's p_in - p_load and -q_load.
    """
    Y = grid.ybus()
    idx = grid._index
    th = np.array([b.angle for b in grid.buses], dtype=float)
    V = np.array([b.voltage for b in grid.buses], dtype=float)
    for bus_id, value in (angles or {}).items():
        th[idx[bus_id]] = value
    Pset = np.array([b.p_in - b.p_load for b in grid.buses])
    Qset = np.array([-b.q_load for b in grid.buses])

    def mismatch(V, th):
        P, Q = _injections(Y, V, th)
        return np.concatenate([(Pset - P)[ang], (Qset - Q)[mag]])

    mis = mismatch(V, th)
    it = 0
    while mis.size and np.max(np.abs(mis)) > NEWTON_TOL:
        if it >= NEWTON_MAX_ITER:
            raise GridError(
                f"network solve did not converge in {NEWTON_MAX_ITER} iterations "
                f"(residual {np.max(np.abs(mis)):.3e})"
            )
        J = _pf_jacobian(Y, V, th, ang, mag)
        try:
            dx = np.linalg.solve(J, mis)
        except np.linalg.LinAlgError as exc:
            raise GridError("singular power-flow Jacobian") from exc
        step = 1.0
        base = np.linalg.norm(mis)
        for _ in range(12):
            th_t = th.copy()
            V_t = V.copy()
            th_t[ang] += step * dx[: len(ang)]
            V_t[mag] += step * dx[len(ang):]
            if np.all(V_t > 0.05) and np.linalg.norm(mismatch(V_t, th_t)) < base:
                break
            step *= 0.5
        th, V = th_t, V_t
        mis = mismatch(V, th)
        it += 1
    P, _ = _injections(Y, V, th)
    return NetworkSolution(
        angles={b.id: float(th[idx[b.id]]) for b in grid.buses},
        voltages={b.id: float(V[idx[b.id]]) for b in grid.buses},
        injections={b.id: float(P[idx[b.id]]) for b in grid.buses},
        residual=float(np.max(np.abs(mis))) if mis.size else 0.0,
        iterations=it,
    )


def solve_network(grid, dynamic_angles):
    """Solve the algebraic network equations given the dynamic-bus angles.

    Unknowns are the angles of free non-dynamic buses and the magnitudes of
    voltage-free buses; a slack bus, if present, stays pinned and absorbs
    the imbalance.  Starts from the bus data.
    """
    angles = {}
    for b in grid.dynamic_buses:
        if b.id not in dynamic_angles:
            raise GridError(f"missing angle for dynamic bus {b.id}")
        angles[b.id] = dynamic_angles[b.id]
    return _newton(grid, *_network_unknowns(grid), angles)


@dataclass
class Equilibrium:
    angles: dict                  # dynamic bus id -> rad (omega = 0 throughout)
    p_in: dict                    # dynamic bus id -> effective dispatched power
    network: NetworkSolution
    residual: float


def find_equilibrium(grid):
    """Stationary operating point: omega = 0, rotor real-power balance.

    In "anchored" mode the dynamic angles are taken from the bus data and
    the dispatched powers are recovered from the balance.  In "solve" mode
    the dynamic angles are unknowns of the same Newton iteration as the
    network: at omega = 0 a rotor's balance p_in - p_load - P = 0 is a
    power-flow P row.  If no fixed-angle bus exists the first dynamic bus
    pins the angle gauge and its own balance is verified afterward.
    """
    dyn = grid.dynamic_buses
    if not dyn:
        net = solve_network(grid, {})
        return Equilibrium({}, {}, net, net.residual)
    if grid.equilibrium_mode == "anchored":
        angles = {b.id: b.angle for b in dyn}
        net = solve_network(grid, angles)
        p_in = {b.id: b.p_load + net.injections[b.id] for b in dyn}
        return Equilibrium(angles, p_in, net, 0.0)

    has_anchor = any(
        b.kind == SLACK or (b.kind == NON_DYNAMIC and b.angle_fixed) for b in grid.buses
    )
    pinned = None if has_anchor else dyn[0]
    ang, mag = _network_unknowns(grid)
    rotors = {grid._index[b.id] for b in dyn if b is not pinned}
    ang = sorted(rotors.union(ang))
    net = _newton(grid, ang, mag)
    p_in = {b.id: b.p_in for b in dyn}
    resid = max(abs(b.p_in - b.p_load - net.injections[b.id]) for b in dyn)
    if pinned is not None and resid > math.sqrt(NEWTON_TOL):
        raise GridError(
            f"no equilibrium: reference bus {pinned.id} imbalance {resid:.3e} "
            "(grid dispatch and loads are inconsistent)"
        )
    return Equilibrium({b.id: net.angles[b.id] for b in dyn}, p_in, net, resid)


@dataclass
class LinearizedSystem:
    A: np.ndarray
    B1: np.ndarray                # wrt dynamic-bus dispatched power
    B2: np.ndarray                # wrt non-dynamic-bus dispatched power
    D1: np.ndarray                # wrt dynamic-bus loads
    D2: np.ndarray                # wrt non-dynamic-bus loads
    equilibrium: Equilibrium
    state_labels: list = field(default_factory=list)

    @property
    def n(self):
        return self.A.shape[0]


def linearize(grid, eq=None):
    """State-space matrices of the swing equations at the equilibrium.

    The network stays on its power flow, so the rotor injections P_d
    depend on the rotor angles through the Schur complement of the
    power-flow Jacobian J at the equilibrium,

        dP_d/d(delta) = K = J_dd - J_dy J_yy^-1 J_yd,

    where d are the dynamic buses' P rows and angles and y the network's
    unknowns with their rows.  Injection at a non-dynamic bus shifts its P
    row, so dP_d/dp = J_dy J_yy^-1 E_p with E_p that row's unit column;
    an anchored bus has no P row and no effect.
    """
    if eq is None:
        eq = find_equilibrium(grid)
    dyn = grid.dynamic_buses
    nd = [b for b in grid.buses if b.kind == NON_DYNAMIC]
    idx = grid._index
    ang, mag = _network_unknowns(grid)
    d = [idx[b.id] for b in dyn]
    m = len(d)
    th = np.array([eq.network.angles[b.id] for b in grid.buses])
    V = np.array([eq.network.voltages[b.id] for b in grid.buses])
    J = _pf_jacobian(grid.ybus(), V, th, d + ang, mag)
    E = np.zeros((len(ang) + len(mag), len(nd)))
    for k, b in enumerate(nd):
        if idx[b.id] in ang:
            E[ang.index(idx[b.id]), k] = 1.0
    try:
        S = np.linalg.solve(J[m:, m:], np.hstack([J[m:, :m], E]))
    except np.linalg.LinAlgError as exc:
        raise GridError("singular network Jacobian at the equilibrium") from exc
    G = J[:m, m:] @ S
    inv_inertia = np.array([1.0 / b.inertia for b in dyn])
    n = 2 * m
    A = np.zeros((n, n))
    A[0::2, 1::2] = np.eye(m)
    A[1::2, 0::2] = -inv_inertia[:, None] * (J[:m, :m] - G[:, :m])
    A[1::2, 1::2] = np.diag([-b.damping / b.inertia for b in dyn])
    B1 = np.zeros((n, m))
    B1[1::2] = np.diag(inv_inertia)
    B2 = np.zeros((n, len(nd)))
    B2[1::2] = -inv_inertia[:, None] * G[:, m:]
    labels = []
    for b in dyn:
        labels += [f"delta_{b.id}", f"omega_{b.id}"]
    return LinearizedSystem(A, B1, B2, -B1, -B2, eq, labels)


# ---------------------------------------------------------------------------
# model loading

def load_grid(source):
    """Build a GridModel from a dict or a JSON file path (a str or an
    os.PathLike); any other source is a GridError, so an int is never
    opened as a file descriptor."""
    if isinstance(source, dict):
        data = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source) as f:
            data = json.load(f)
    else:
        raise GridError(f"a grid is a dict or a JSON file path, not {type(source).__name__}")
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


def read_matpower(text):
    """Import the text of a MATPOWER-style case file into a GridModel.

    Reads baseMVA and the bus/branch/gen tables; only bus type, Pd, Qd,
    Vm, Va and branch R, X, B, status (plus gen Pg) are consumed.  All
    buses come back non-dynamic except the slack; callers promote buses
    to dynamic as needed.  It takes the text, not a path: read a file
    first, as `builtin` does for the bundled case.
    """
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
    for row in bus_rows:
        bid, btype = int(row[0]), int(row[1])
        pd, qd = row[2] / base_mva, row[3] / base_mva
        vm, va = row[7], math.radians(row[8])
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
    return GridModel(buses, lines, base_mva=base_mva, name="matpower_import")


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
        return GridModel(buses, g.lines, g.base_mva, name="ieee33_feeder",
                         equilibrium_mode="solve")
    raise GridError(f"unknown builtin grid {name!r}")


def resolve_grid(spec):
    """Grid from a config value: an existing grid JSON file, a dict, or
    else a bundled name (GridError if it is none).  A value that is not a
    string or an object is a ValueError naming the config key."""
    if isinstance(spec, str):
        return load_grid(spec) if os.path.isfile(spec) else builtin(spec)
    if isinstance(spec, dict):
        return load_grid(spec)
    raise ValueError(f"config 'grid' must be a string or an object, "
                     f"got {type(spec).__name__}")
