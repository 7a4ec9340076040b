"""Per-follower output-regulation synthesis and closed-loop pieces.

Each follower is a discrete-time linear plant driven by its own input and by
the leader state,

    x(t+1) = A x(t) + B u(t) + E v(t)
    e(t)   = C x(t) + D u(t) + F v(t),

and the goal is to drive the regulated output e to zero.  The steady-state
manifold is characterized by the matrix equations

    X S = A X + B U + E      and      0 = C X + D U + F,

solved here by Kronecker vectorization and dense least squares (problem
sizes are tiny, and the residual doubles as a solvability certificate).
Combining a Schur-stabilizing state feedback K_x with the feedforward gain
K_v = U - K_x X yields the control u = K_x x + K_v eta, where eta is this
follower's estimate of the leader state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observers import spectral_radius
from .topology import DimensionError, _readonly


class RegulatorUnsolvableError(RuntimeError):
    """The regulator equations admit no solution pair for this plant/leader."""


class GainSynthesisError(RuntimeError):
    """No Schur-stabilizing state feedback could be produced or certified."""


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Constant matrices (A, B, C, D, E, F) of one follower plant."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        mats = {k: np.atleast_2d(np.asarray(getattr(self, k), dtype=float))
                for k in "ABCDEF"}
        n, m, p, q = (mats["A"].shape[0], mats["B"].shape[1],
                      mats["C"].shape[0], mats["E"].shape[1])
        expected = {"A": (n, n), "B": (n, m), "C": (p, n),
                    "D": (p, m), "E": (n, q), "F": (p, q)}
        for k, shape in expected.items():
            if mats[k].shape != shape:
                raise DimensionError(
                    f"plant matrix {k} has shape {mats[k].shape}, expected {shape}"
                )
            object.__setattr__(self, k, _readonly(mats[k]))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.E.shape[1]


@dataclass(frozen=True, eq=False)
class RegulatorSolution:
    """Solution pair (X, U) of the regulator equations with its residual."""

    X: np.ndarray
    U: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "X", _readonly(np.atleast_2d(self.X)))
        object.__setattr__(self, "U", _readonly(np.atleast_2d(self.U)))


@dataclass(frozen=True, eq=False)
class ControllerGains:
    """Certified feedback/feedforward pair for one follower.

    Construction enforces the Schur certificate rho(A + B K_x) < 1; the
    radius is stored for reporting.
    """

    K_x: np.ndarray
    K_v: np.ndarray
    closed_loop_radius: float

    def __post_init__(self):
        if not self.closed_loop_radius < 1.0:
            raise GainSynthesisError(
                f"closed-loop spectral radius {self.closed_loop_radius} is not < 1"
            )
        object.__setattr__(self, "K_x", _readonly(np.atleast_2d(self.K_x)))
        object.__setattr__(self, "K_v", _readonly(np.atleast_2d(self.K_v)))


def solve_regulator_equations(
    plant: PlantModel,
    S: np.ndarray,
    tol: float = 1e-9,
) -> RegulatorSolution:
    """Solve X S = A X + B U + E and 0 = C X + D U + F for (X, U).

    Both equations are vectorized with vec(M Y K) = (K^T kron M) vec(Y) into
    a single dense linear system in (vec X, vec U) and solved by
    rank-revealing least squares; when the system is underdetermined the
    minimum-norm pair is returned.  The max-abs residual of the two
    equations, recomputed from the returned pair, certifies the solution.

    Raises RegulatorUnsolvableError when S or a plant matrix is not finite,
    or when the residual exceeds ``tol``.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n, m, p, q = plant.n, plant.m, plant.p, plant.q
    if S.shape != (q, q):
        raise DimensionError(f"leader matrix {S.shape} does not match plant q={q}")
    if not all(np.isfinite(M).all() for M in (S, *(getattr(plant, k) for k in "ABCDEF"))):
        raise RegulatorUnsolvableError("regulator equations need a finite leader matrix and plant")
    iq = np.eye(q)
    top = np.hstack([np.kron(S.T, np.eye(n)) - np.kron(iq, plant.A),
                     -np.kron(iq, plant.B)])
    bot = np.hstack([np.kron(iq, plant.C), np.kron(iq, plant.D)])
    lhs = np.vstack([top, bot])
    rhs = np.concatenate([plant.E.flatten(order="F"), -plant.F.flatten(order="F")])
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    X = sol[: n * q].reshape((n, q), order="F")
    U = sol[n * q :].reshape((m, q), order="F")
    r1 = np.max(np.abs(X @ S - plant.A @ X - plant.B @ U - plant.E))
    r2 = np.max(np.abs(plant.C @ X + plant.D @ U + plant.F))
    residual = float(max(r1, r2))
    if residual > tol:
        raise RegulatorUnsolvableError(
            f"regulator equations unsolvable for this plant/leader pair "
            f"(residual {residual:.3e} > tol {tol:.1e})"
        )
    return RegulatorSolution(X=X, U=U, residual=residual)


def synthesize_stabilizing_gain(
    A: np.ndarray,
    B: np.ndarray,
    K: np.ndarray | None = None,
    Q: np.ndarray | None = None,
    R: np.ndarray | None = None,
    label: str = "follower",
    riccati_tol: float = 1e-12,
    max_iter: int = 10000,
) -> tuple[np.ndarray, float]:
    """Produce a state feedback K_x with rho(A + B K_x) < 1.

    With ``K`` given, the user-supplied gain is certified as-is.  Otherwise
    the discrete Riccati recursion

        P <- A'PA - A'PB (R + B'PB)^-1 B'PA + Q

    is iterated to a fixed point with identity weights by default, and the
    resulting gain is certified.  The fixed point is detected with a
    tolerance relative to the magnitude of P, since the cost matrix can be
    large for strongly unstable plants.  Non-convergence (a diverging or
    stalling recursion) signals a non-stabilizable pair.

    Returns (K_x, closed-loop spectral radius).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise DimensionError(f"incompatible shapes A{A.shape}, B{B.shape}")
    if K is not None:
        K = np.atleast_2d(np.asarray(K, dtype=float))
        radius = spectral_radius(A + B @ K)
        if not radius < 1.0:
            raise GainSynthesisError(
                f"{label}: supplied gain is not stabilizing (radius {radius:.6g})"
            )
        return K, radius
    m = B.shape[1]
    Q = np.eye(n) if Q is None else np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.eye(m) if R is None else np.atleast_2d(np.asarray(R, dtype=float))
    P = Q.copy()
    # overflow of the recursion IS the divergence signal, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            bpb = R + B.T @ P @ B
            gain = np.linalg.solve(bpb, B.T @ P @ A)
            P_next = A.T @ P @ (A - B @ gain) + Q
            if not np.isfinite(P_next).all():
                raise GainSynthesisError(f"{label}: pair (A, B) is not stabilizable")
            if np.max(np.abs(P_next - P)) < riccati_tol * max(1.0, float(np.max(np.abs(P_next)))):
                P = P_next
                break
            P = P_next
        else:
            raise GainSynthesisError(
                f"{label}: Riccati recursion did not converge; pair (A, B) "
                f"is likely not stabilizable"
            )
    K_x = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    radius = spectral_radius(A + B @ K_x)
    if not radius < 1.0:
        raise GainSynthesisError(
            f"{label}: synthesized gain failed certification (radius {radius:.6g})"
        )
    return K_x, radius


def build_controller(
    plant: PlantModel,
    S: np.ndarray,
    K_x: np.ndarray,
    solution: RegulatorSolution | None = None,
    tol: float = 1e-9,
) -> ControllerGains:
    """Package a certified K_x with the feedforward gain K_v = U - K_x X."""
    if solution is None:
        solution = solve_regulator_equations(plant, S, tol=tol)
    K_x = np.atleast_2d(np.asarray(K_x, dtype=float))
    radius = spectral_radius(plant.A + plant.B @ K_x)
    K_v = solution.U - K_x @ solution.X
    return ControllerGains(K_x=K_x, K_v=K_v, closed_loop_radius=radius)


def control_input(
    gains: ControllerGains,
    x: np.ndarray,
    eta: np.ndarray,
) -> np.ndarray:
    """u = K_x x + K_v eta."""
    x = np.asarray(x, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if x.shape[0] != gains.K_x.shape[1] or eta.shape[0] != gains.K_v.shape[1]:
        raise DimensionError(
            f"state/estimate dims ({x.shape[0]}, {eta.shape[0]}) do not match gains "
            f"({gains.K_x.shape[1]}, {gains.K_v.shape[1]})"
        )
    return gains.K_x @ x + gains.K_v @ eta


def plant_step(
    plant: PlantModel,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One plant step: returns (next state, regulated output at time t)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if x.shape[0] != plant.n or u.shape[0] != plant.m or v.shape[0] != plant.q:
        raise DimensionError(
            f"state/input/leader dims ({x.shape[0]}, {u.shape[0]}, {v.shape[0]}) "
            f"do not match plant ({plant.n}, {plant.m}, {plant.q})"
        )
    x_next = plant.A @ x + plant.B @ u + plant.E @ v
    e = plant.C @ x + plant.D @ u + plant.F @ v
    return x_next, e
