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

# Riccati fixed-point tolerance, relative to max(1, max|P|), and update budget
RICCATI_TOL = 1e-12
MAX_ITER = 10000
# regulator-equation tolerance, relative to each equation's largest term
REGULATOR_TOL = 1e-9


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


def _residuals(plant: PlantModel, S: np.ndarray, sol: np.ndarray):
    """(X, U) from the stacked solution, each equation's max-abs residual and
    each equation's scale max(1, its largest max-abs term)."""
    n, m, q = plant.n, plant.m, plant.q
    X = sol[: n * q].reshape((n, q), order="F")
    U = sol[n * q :].reshape((m, q), order="F")
    first = (X @ S, plant.A @ X, plant.B @ U, plant.E)
    second = (plant.C @ X, plant.D @ U, plant.F)
    r = (np.max(np.abs(first[0] - first[1] - first[2] - first[3])),
         np.max(np.abs(second[0] + second[1] + second[2])))
    scale = tuple(max(1.0, *(float(np.max(np.abs(t), initial=0.0)) for t in terms))
                  for terms in (first, second))
    return X, U, r, scale


def _certified(r, scale, tol: float) -> bool:
    # a sum rounds at about eps times its largest term, so each equation is
    # held to tol relative to its largest term (absolute below 1); the
    # inverted test refuses a NaN
    return all(ri <= tol * si for ri, si in zip(r, scale))


def solve_regulator_equations(
    plant: PlantModel,
    S: np.ndarray,
    tol: float = REGULATOR_TOL,
) -> RegulatorSolution:
    """Solve X S = A X + B U + E and 0 = C X + D U + F for (X, U).

    Both equations are vectorized with vec(M Y K) = (K^T kron M) vec(Y) into
    a single dense linear system in (vec X, vec U) and solved by
    rank-revealing least squares; when the system is underdetermined the
    minimum-norm pair is returned.  The max-abs residual of each equation,
    recomputed from the returned pair, certifies the solution when it is at
    most ``tol`` times max(1, the largest max-abs entry of that equation's
    terms: X S, A X, B U, E or C X, D U, F).  ``residual`` is the larger of
    the two absolute residuals.  The least-squares pair is accurate to about
    eps times the whole solution, so a large U can leave an error in X that
    an equation with small terms refuses.  A pair that fails but is within
    ``tol`` times the largest term of either equation gets one step of
    iterative refinement, which removes that error, and is checked again.

    Raises RegulatorUnsolvableError when S or a plant matrix is not finite,
    or when an equation's residual exceeds its bound (so a NaN ``tol``
    fails).
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
    sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    X, U, r, scale = _residuals(plant, S, sol)
    if not _certified(r, scale, tol) and max(r) <= tol * max(scale):
        sol = sol + np.linalg.lstsq(lhs, rhs - lhs @ sol, rcond=None)[0]
        X, U, r, scale = _residuals(plant, S, sol)
    residual = float(max(r))
    if not _certified(r, scale, tol):
        raise RegulatorUnsolvableError(
            f"regulator equations unsolvable for this plant/leader pair "
            f"(residual {residual:.3e} > tol {tol:.1e} relative to terms up to "
            f"{max(scale):.3e})"
        )
    return RegulatorSolution(X=X, U=U, residual=residual)


def synthesize_stabilizing_gain(
    A: np.ndarray,
    B: np.ndarray,
    K: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Produce a state feedback K_x with rho(A + B K_x) < 1.

    With ``K`` given, the user-supplied gain is certified as-is.  Otherwise
    the discrete Riccati recursion with identity weights

        P <- A'PA - A'PB (I + B'PB)^-1 B'PA + I

    is iterated to a fixed point, and the resulting gain is certified; a
    user ``K`` expresses any other design.  The fixed point is detected with a
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
            raise GainSynthesisError(f"supplied gain is not stabilizing (radius {radius:.6g})")
        return K, radius
    Q, R = np.eye(n), np.eye(B.shape[1])
    P = Q.copy()
    # overflow of the recursion IS the divergence signal, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            bpb = R + B.T @ P @ B
            gain = np.linalg.solve(bpb, B.T @ P @ A)
            P_next = A.T @ P @ (A - B @ gain) + Q
            if not np.isfinite(P_next).all():
                raise GainSynthesisError("pair (A, B) is not stabilizable")
            if np.max(np.abs(P_next - P)) < RICCATI_TOL * max(1.0, float(np.max(np.abs(P_next)))):
                P = P_next
                break
            P = P_next
        else:
            raise GainSynthesisError(
                "Riccati recursion did not converge; pair (A, B) is likely not stabilizable"
            )
    K_x = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    radius = spectral_radius(A + B @ K_x)
    if not radius < 1.0:
        raise GainSynthesisError(f"synthesized gain failed certification (radius {radius:.6g})")
    return K_x, radius


def build_controller(
    gain: tuple[np.ndarray, float],
    solution: RegulatorSolution,
) -> ControllerGains:
    """Package a certified gain, the (K_x, closed-loop spectral radius) pair
    that ``synthesize_stabilizing_gain`` returns, with the feedforward gain
    K_v = U - K_x X of the regulator ``solution`` (see
    ``solve_regulator_equations``)."""
    K_x, radius = gain
    return ControllerGains(K_x=K_x, K_v=solution.U - K_x @ solution.X,
                           closed_loop_radius=radius)


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
