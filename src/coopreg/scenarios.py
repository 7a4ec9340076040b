"""Bundled scenarios.

``formation-sec5`` is the five-robot leader-following formation benchmark:
a constant-velocity planar leader and four double-integrator followers that
must lock onto fixed offsets from the leader while communicating over a
four-mode switching network (period 8, dwell 2).  The network family itself
is available standalone as ``default-fig2``; its exact edge sets are a
documented stand-in chosen so that each mode carries two edges and every
follower hears the leader directly once per period, which verifies as
jointly connected with window 7.  ``single-follower`` is the smallest
closed loop (one follower, static graph) whose observer error contracts by
exactly one half per step, handy as a known closed form.

Unspecified initial conditions (follower velocities, observer estimates)
default to zero; passing a seed draws them reproducibly instead.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .observers import LeaderModel
from .regulation import PlantModel
from .simkit import FollowerSpec, Scenario
from .topology import SwitchingSignal, SwitchingTopology, WeightedDigraph

# one period of the formation schedule: modes 1..4, two steps each
FORMATION_SEGMENTS = ((1, 2), (2, 2), (3, 2), (4, 2))

# stand-in four-mode family over {0..4}: mode p grants follower p a direct
# leader link and rotates one cross edge among the followers
FIG2_EDGE_SETS = (
    ((0, 1), (2, 4)),
    ((0, 2), (1, 3)),
    ((0, 3), (2, 1)),
    ((0, 4), (3, 2)),
)

FORMATION_OFFSETS = ((-10.0, 0.0), (0.0, -10.0), (-20.0, 0.0), (0.0, -20.0))
FORMATION_START_POSITIONS = ((15.0, 3.0), (-10.0, 19.0), (1.0, 40.0), (30.0, -2.0))


def fig2_topology() -> SwitchingTopology:
    """The default four-mode switching network over one leader and four followers."""
    graphs = tuple(WeightedDigraph.from_edges(5, edges) for edges in FIG2_EDGE_SETS)
    return SwitchingTopology(graphs=graphs, signal=SwitchingSignal.periodic(FORMATION_SEGMENTS))


def _planar_leader() -> LeaderModel:
    # positions integrate velocities; velocities are constant
    S = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    return LeaderModel(S=S, v0=np.array([0.0, 0.0, 1.0, 1.0]))


def _double_integrator_plant() -> PlantModel:
    A = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    B = np.kron(np.array([[0.0], [1.0]]), np.eye(2))
    C = np.kron(np.array([[1.0, 0.0]]), np.eye(2))
    return PlantModel(
        A=A, B=B, C=C,
        D=np.zeros((2, 2)),
        E=np.zeros((4, 4)),
        F=-C,
    )


def _formation(
    name: str,
    offsets: tuple[tuple[float, float], ...],
    seed: int | None = None,
) -> Scenario:
    """The formation plants over the default network, locking onto ``offsets``.

    Follower states are (position - offset, velocity) in the plane, so the
    regulated output is exactly the position error relative to the shifted
    leader.  With ``seed`` given, follower velocities and observer initial
    estimates are drawn from a reproducible normal distribution instead of
    the zero defaults.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    plant = _double_integrator_plant()
    k_x = np.kron(np.array([[-0.7, -1.9]]), np.eye(2))
    followers = []
    for (px, py), (ox, oy) in zip(FORMATION_START_POSITIONS, offsets):
        vel = rng.normal(size=2) if rng is not None else np.zeros(2)
        x0 = np.array([px - ox, py - oy, vel[0], vel[1]])
        followers.append(FollowerSpec(plant=plant, x0=x0, K_x=k_x))
    eta0 = tuple(rng.normal(size=4) for _ in followers) if rng is not None else None
    return Scenario(
        name=name,
        leader=_planar_leader(),
        topology=fig2_topology(),
        followers=tuple(followers),
        observer_mode="distributed",
        eta0=eta0,
        horizon=300,
        connectivity_window=7,
    )


def formation_scenario(seed: int | None = None) -> Scenario:
    """Five-robot formation benchmark: the followers hold FORMATION_OFFSETS."""
    return _formation("formation-sec5", FORMATION_OFFSETS, seed)


def single_follower_scenario(seed: int | None = None) -> Scenario:
    """One follower, one static graph edge from the leader.

    The leader holds a constant planar state; the follower's observer error
    halves every step, and the plant is a driftless integrator regulated
    onto the leader state.
    """
    rng = np.random.default_rng(seed) if seed is not None else None
    leader = LeaderModel(S=np.eye(2), v0=np.array([1.0, -2.0]))
    topo = SwitchingTopology(
        graphs=(WeightedDigraph.from_edges(2, [(0, 1)]),),
        signal=SwitchingSignal.periodic([(1, 1)]),
    )
    plant = PlantModel(
        A=np.eye(2), B=np.eye(2), C=np.eye(2),
        D=np.zeros((2, 2)), E=np.zeros((2, 2)), F=-np.eye(2),
    )
    x0 = rng.normal(size=2) * 5 if rng is not None else np.array([4.0, 4.0])
    eta0 = (rng.normal(size=2),) if rng is not None else None
    return Scenario(
        name="single-follower",
        leader=leader,
        topology=topo,
        followers=(FollowerSpec(plant=plant, x0=x0, K_x=-0.5 * np.eye(2)),),
        observer_mode="distributed",
        eta0=eta0,
        horizon=60,
    )


# each bundled scenario's builder and the summary that list-builtins prints
BUILTINS = {
    "formation-sec5": (formation_scenario,
                       "five-robot formation over the four-mode switching network"),
    "single-follower": (single_follower_scenario,
                        "one follower on a static leader link (0.5**t error closed form)"),
    # pure leader-following: every follower lands on the leader trajectory
    "default-fig2": (partial(_formation, "default-fig2", ((0.0, 0.0),) * len(FORMATION_OFFSETS)),
                     "formation plants with zero offsets over the default network"),
}


def build_builtin(name: str, seed: int | None = None) -> Scenario:
    """The named bundled scenario at its own horizon and observer mode; a
    ``seed`` draws its unspecified initial conditions reproducibly."""
    if name not in BUILTINS:
        known = ", ".join(sorted(BUILTINS))
        raise KeyError(f"unknown builtin scenario {name!r} (known: {known})")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    builder, _ = BUILTINS[name]
    return builder(seed=seed)
