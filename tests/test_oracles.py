"""The switching schedule lookup and the O(H) property oracles, pinned bit for bit.

The reference implementations here are the straightforward forms the fast
paths replaced: one ``mode_at`` per step, one ``transition_product`` per k,
one union and BFS per connectivity window, and ``error_form_step`` built
from ``np.kron``.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopreg import observers, properties, topology
from coopreg.cli import main
from coopreg.observers import (
    ObserverBank,
    error_form_step,
    kron_factorization_check,
    observer_step,
)
from coopreg.properties import (
    SUITES,
    bank_vs_error_form,
    consensus_trial,
    follower_product_norms,
    lemma2_trial,
    lemma3_trial,
    lemma4_trial,
    random_leader,
    random_topology,
    run_suite,
    simulate_observer_norms,
)
from coopreg.topology import (
    ConnectivityResult,
    SwitchingSignal,
    SwitchingTopology,
    WeightedDigraph,
    is_jointly_connected,
    leader_reachable,
    normalize_adjacency,
    transition_product,
    union_digraph,
)

PROPS_DATA = Path(__file__).parent / "data" / "props"


def below(bound: float):
    """Two values agree when both are below ``bound``, where a suite treats a
    value as zero."""
    return lambda a, b: max(float(a), float(b)) < bound


# The trial-line fields whose digits follow the BLAS kernel's order of
# summation, with the rule under which two of them agree: spreads near 1e-15,
# route and factorization deviations near 1e-16 and 1e-22 and observer finals
# down to 1e-57 below their suite's pass bound or the decay fit's floor.
# Fitted rates carry a decision and stay exact, the observers' included.
ROUNDING_FIELDS = {
    "consensus": [(re.compile(r"(?<=spread )\S+"), below(1e-9))],
    "equivalence": [(re.compile(r"(?<=deviation )\S+"), below(1e-10))],
    "kron": [(re.compile(r"(?<=deviation )\S+"), below(1e-9))],
    "observers": [(re.compile(r"(?<=final )[^,\s]+"), below(observers.FLOOR))],
}


def props_mismatches(suite: str, printed: str, recorded: str) -> list[tuple]:
    """The (printed, recorded) line pairs of a props run that differ anywhere
    but in a rounding-level field, or in such a field beyond its rule.  Every
    other byte, verdicts, N, q, rho, the lemma suites' rates, residuals, step
    counts and the summary line included, must match."""
    fields = ROUNDING_FIELDS.get(suite, [])

    def masked(line: str) -> str:
        for field, _ in fields:
            line = field.sub("#", line)
        return line

    return [(got, want)
            for got, want in itertools.zip_longest(printed.split("\n"), recorded.split("\n"))
            if got is None or want is None or masked(got) != masked(want)
            or not all(a == b or agree(a, b) for field, agree in fields
                       for a, b in zip(field.findall(got), field.findall(want)))]


periodic_signals = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=1, max_size=5
).map(SwitchingSignal.periodic)
table_signals = st.builds(
    SwitchingSignal.from_table,
    st.lists(st.integers(1, 4), max_size=12),
    st.integers(1, 4),
)


@settings(max_examples=200, deadline=None)
@given(sig=st.one_of(periodic_signals, table_signals), t0=st.integers(0, 40),
       length=st.integers(0, 40))
def test_modes_equals_mode_at_per_step(sig, t0, length):
    got = sig.modes(t0, t0 + length)
    assert got.shape == (length,) and got.dtype.kind == "i"
    assert got.tolist() == [sig.mode_at(t) for t in range(t0, t0 + length)]


def test_modes_of_an_empty_range_is_empty():
    for sig in (SwitchingSignal.periodic([(1, 2), (2, 1)]),
                SwitchingSignal.from_table([1, 2], tail_mode=3)):
        for t in (0, 1, 7):
            assert sig.modes(t, t).shape == (0,)


def test_table_modes_cross_into_the_tail():
    sig = SwitchingSignal.from_table([2, 1, 2], tail_mode=3)
    assert sig.modes(1, 6).tolist() == [1, 2, 3, 3, 3]
    assert sig.modes(5, 8).tolist() == [3, 3, 3]
    empty_table = SwitchingSignal.from_table([], tail_mode=2)
    assert empty_table.modes(0, 3).tolist() == [2, 2, 2]


@pytest.mark.parametrize("t0, t1", [(-1, 3), (-2, -2), (5, 4)])
def test_modes_rejects_bad_ranges(t0, t1):
    for sig in (SwitchingSignal.periodic([(1, 2)]),
                SwitchingSignal.from_table([1], tail_mode=1)):
        with pytest.raises(ValueError):
            sig.modes(t0, t1)


def test_a_huge_segment_costs_no_per_step_memory():
    tracemalloc.start()
    try:
        sig = SwitchingSignal.periodic([(2, 10**12), (1, 3)])
        got = sig.modes(10**12 - 2, 10**12 + 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert got.tolist() == [2, 2, 1, 1]
    assert sig.period == 10**12 + 3
    assert [sig.mode_at(t) for t in (0, 10**12 - 1, 10**12, 10**12 + 3)] == [2, 2, 1, 2]


def test_accumulated_lemma2_norms_equal_transition_products():
    horizon = 240
    for seed in range(30):
        topo = random_topology(np.random.default_rng(seed))
        reference = np.array(
            [np.linalg.norm(transition_product(topo, 0, k), 2) for k in range(horizon + 1)]
        )
        assert follower_product_norms(topo, horizon).tobytes() == reference.tobytes()


def per_window_connectivity(topo, window, horizon):
    """is_jointly_connected with one union and one BFS per window: the reference."""
    for t in range(horizon - window + 1):
        modes = {topo.signal.mode_at(t + s) for s in range(window + 1)}
        seen = leader_reachable(union_digraph([topo.graphs[m - 1] for m in modes]))
        if not seen[1:].all():
            return ConnectivityResult(False, (t, int(np.nonzero(~seen)[0][0])), horizon)
    return ConnectivityResult(True, None, horizon)


@pytest.mark.parametrize("seed", range(30))
def test_connectivity_verdicts_match_the_per_window_reference(seed):
    rng = np.random.default_rng(seed)
    periodic = random_topology(rng)
    table = SwitchingTopology(
        graphs=periodic.graphs,
        signal=SwitchingSignal.from_table(
            rng.integers(1, periodic.n_modes + 1, size=12).tolist(), tail_mode=1),
    )
    for window in range(periodic.signal.period + 1):
        cap = periodic.signal.period + window
        assert is_jointly_connected(periodic, window) == per_window_connectivity(
            periodic, window, cap)
        for horizon in (window, window + 5, 12 + window):
            assert is_jointly_connected(table, window, horizon) == per_window_connectivity(
                table, window, horizon)


def test_connectivity_decides_each_distinct_mode_set_once(monkeypatch):
    calls = []
    monkeypatch.setattr(topology, "leader_reachable",
                        lambda g: calls.append(g) or leader_reachable(g))
    topo = random_topology(np.random.default_rng(0))
    period = topo.signal.period
    assert is_jointly_connected(topo, period - 1).connected
    # every window of one period holds every mode
    assert len(calls) == 1


def kron_error_form_step(eta_tilde, s_tilde, adj, leader, v):
    """error_form_step written with np.kron throughout: the reference."""
    lam = adj.lambda_block
    n = lam.shape[0]
    q = leader.q
    if s_tilde is None:
        return np.kron(lam, leader.S) @ eta_tilde, None
    s_blocks = [s_tilde[i * q : (i + 1) * q, :] for i in range(n)]
    gamma1 = np.kron(lam, leader.S)
    s_diag = np.zeros((n * q, n * q))
    for i, blk in enumerate(s_blocks):
        s_diag[i * q : (i + 1) * q, i * q : (i + 1) * q] = blk
    lam_min_i = lam - np.eye(n)
    coupling = np.vstack(
        [np.kron(lam_min_i[i : i + 1, :], s_blocks[i]) for i in range(n)]
    )
    gamma2 = s_diag + coupling
    gamma3 = s_diag @ np.tile(np.asarray(v, dtype=float), n)
    new_eta = (gamma1 + gamma2) @ eta_tilde + gamma3
    new_s = np.kron(lam, np.eye(q)) @ s_tilde
    return new_eta, new_s


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_error_form_step_matches_the_kron_reference_bitwise(seed, adaptive):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    s_tilde = rng.uniform(-0.3, 0.3, size=(n * q, q)) if adaptive else None
    fast = ref = (rng.normal(size=n * q), s_tilde)
    v = leader.v0.copy()
    for t in range(100):
        adj = topo.adjacency_at(t)
        fast = error_form_step(*fast, adj, leader, v)
        ref = kron_error_form_step(*ref, adj, leader, v)
        assert fast[0].tobytes() == ref[0].tobytes()
        if adaptive:
            assert fast[1].tobytes() == ref[1].tobytes()
        else:
            assert fast[1] is None
        v = leader.advance(v)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), q=st.integers(1, 4), adaptive=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_error_form_step_matches_the_kron_reference_at_every_shape(n, q, adaptive, seed):
    # n = 1 and q = 1 leave a singleton axis in every broadcast of Gamma2
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((n + 1, n + 1)) < 0.4, rng.uniform(0.5, 1.5, (n + 1, n + 1)), 0.0)
    np.fill_diagonal(w, 0.0)
    adj = normalize_adjacency(WeightedDigraph(w))
    leader = random_leader(rng, q=q)
    s_tilde = rng.normal(size=(n * q, q)) if adaptive else None
    eta_tilde = rng.normal(size=n * q)
    v = rng.normal(size=q)
    fast = error_form_step(eta_tilde, s_tilde, adj, leader, v)
    ref = kron_error_form_step(eta_tilde, s_tilde, adj, leader, v)
    assert fast[0].tobytes() == ref[0].tobytes()
    assert (fast[1] is None) == (not adaptive)
    if adaptive:
        assert fast[1].tobytes() == ref[1].tobytes()


# The oracle loops read their schedule once with signal.modes; each reference
# below is the same loop with one adjacency_at(t) per step and np.kron.

def bank_errors(bank, v, leader):
    """The stacked errors (eta_tilde, s_tilde) of a bank against v and S."""
    s_tilde = None if bank.s_est is None else (bank.s_est - leader.S).reshape(-1, bank.q)
    return (bank.eta - v).reshape(-1), s_tilde


def per_step_bank_vs_error_form(topo, leader, bank, horizon):
    v = leader.v0.copy()
    err = bank_errors(bank, v, leader)
    dev = 0.0
    for t in range(horizon):
        adj = topo.adjacency_at(t)
        bank = observer_step(leader, v, bank, adj)
        err = kron_error_form_step(*err, adj, leader, v)
        v = leader.advance(v)
        direct = bank_errors(bank, v, leader)
        dev = max(dev, float(np.max(np.abs(direct[0] - err[0]))))
        if err[1] is not None:
            dev = max(dev, float(np.max(np.abs(direct[1] - err[1]))))
    return dev


@pytest.mark.parametrize("seed", range(12))
def test_bank_vs_error_form_matches_the_per_step_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    banks = (
        ObserverBank(eta=rng.normal(size=(n, q))),
        ObserverBank(eta=rng.normal(size=(n, q)),
                     s_est=leader.S + rng.uniform(-0.3, 0.3, size=(n, q, q))),
    )
    for bank in banks:
        got = bank_vs_error_form(topo, leader, bank, 100)
        assert got == per_step_bank_vs_error_form(topo, leader, bank, 100)
        assert 0 < got < 1e-10


def per_step_observer_norms(topo, leader, bank, horizon):
    v = leader.v0.copy()
    norms = {"eta_tilde": [], "s_tilde": []}
    for t in range(horizon + 1):
        norms["eta_tilde"].append(np.linalg.norm(bank.eta - v[None, :]))
        if bank.s_est is not None:
            norms["s_tilde"].append(np.linalg.norm(bank.s_est - leader.S[None, :, :]))
        if t < horizon:
            bank = observer_step(leader, v, bank, topo.adjacency_at(t))
            v = leader.advance(v)
    return {key: np.array(series) for key, series in norms.items() if series}


@pytest.mark.parametrize("seed", range(12))
def test_simulate_observer_norms_matches_the_per_step_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    banks = (
        ObserverBank(eta=rng.normal(size=(n, q))),
        ObserverBank(eta=rng.normal(size=(n, q)), s_est=rng.normal(size=(n, q, q))),
    )
    for bank, keys in zip(banks, ({"eta_tilde"}, {"eta_tilde", "s_tilde"})):
        got = simulate_observer_norms(topo, leader, bank, 300)
        ref = per_step_observer_norms(topo, leader, bank, 300)
        assert got.keys() == ref.keys() == keys
        for key in keys:
            assert got[key].tobytes() == ref[key].tobytes()


def record_calls(monkeypatch, name, module=properties):
    """Record the (arguments, result) of every call to <module>.<name>."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_consensus_trial_matches_the_per_step_reference_bitwise(seed, monkeypatch):
    steps = record_calls(monkeypatch, "consensus_step")
    result = consensus_trial(seed)
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    x = rng.normal(size=(topo.node_count, 100))
    for t in range(len(steps)):
        x = topo.adjacency_at(t).omega @ x
    assert steps[-1][1].tobytes() == x.tobytes()
    spread = float(np.max(x.max(axis=0) - x.min(axis=0)))
    assert result.passed and f"spread {spread:.3e} after {len(steps)} steps" in result.detail


@pytest.mark.parametrize("seed", range(12))
def test_lemma3_norms_match_the_per_step_reference_bitwise(seed, monkeypatch):
    fits = record_calls(monkeypatch, "fit_decay", observers)
    assert lemma3_trial(seed).passed
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    z = rng.normal(size=topo.n_followers * leader.q)
    norms = [np.linalg.norm(z)]
    for t in range(240):
        z = np.kron(topo.adjacency_at(t).lambda_block, leader.S) @ z
        norms.append(np.linalg.norm(z))
    assert fits[-1][0][0].tobytes() == np.array(norms).tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_kron_factorization_matches_the_per_step_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng)
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    direct, lam_prod = np.eye(n * q), np.eye(n)
    for t in range(40):
        lam = topo.adjacency_at(t).lambda_block
        direct = np.kron(lam, leader.S) @ direct
        lam_prod = lam @ lam_prod
    factored = np.kron(lam_prod, np.linalg.matrix_power(leader.S, 40))
    assert kron_factorization_check(topo, leader, 40) == float(np.max(np.abs(direct - factored)))


class UnreadableTable(tuple):
    """An edge table that fails the test wherever it is read."""

    def refuse(self, *args):
        raise AssertionError("an oracle read the edge table of the observer path")

    __iter__ = __getitem__ = __bool__ = refuse


def test_oracles_never_run_on_the_observer_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle ran on the observer path it checks")

    # patch every coopreg module that binds the functions, not just their home
    for name in ("_observer_update", "_neighbor_mix"):
        original = getattr(observers, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("coopreg") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, refuse)
    # every adjacency built from here on selects a table, and none may be read
    monkeypatch.setattr(topology, "EDGE_TABLE_FACTOR", 0)
    monkeypatch.setattr(topology, "_in_edge_table", lambda omega: UnreadableTable())

    rng = np.random.default_rng(3)
    topo = random_topology(rng)
    assert type(topo.adjacency_at(0)._edges) is UnreadableTable
    leader = random_leader(rng)
    n, q = topo.n_followers, leader.q
    bank = observers.ObserverBank(eta=rng.normal(size=(n, q)))
    with pytest.raises(AssertionError, match="observer path"):
        observer_step(leader, leader.v0, bank, topo.adjacency_at(0))

    err = (rng.normal(size=n * q), rng.normal(size=(n * q, q)))
    for t in range(5):
        err = error_form_step(*err, topo.adjacency_at(t), leader, leader.v0)
    assert kron_factorization_check(topo, leader, 10) < 1e-9
    for trial in (lemma2_trial, lemma3_trial, lemma4_trial):
        assert trial(0).passed


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_props_stdout_matches_the_recorded_output(suite, capsys):
    assert main(["props", suite, "--trials", "30", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert props_mismatches(suite, out, (PROPS_DATA / f"{suite}.txt").read_text("utf-8")) == []


@pytest.mark.parametrize("suite, printed, same", [
    # another kernel's rounding below the bound
    ("equivalence", "[PASS] trial   0: max route deviation 8.882e-16", True),
    ("observers", "[PASS] trial   0: N 6 q 3 rho 0.83: distributed rate 0.6463 final 4.20e-57, "
                  "adaptive rate 0.6613 S final 7.36e-16", True),
    # a deviation at the bound, a final above the fit floor
    ("equivalence", "[PASS] trial   0: max route deviation 1.000e-10", False),
    ("observers", "[PASS] trial   0: N 6 q 3 rho 0.83: distributed rate 0.6463 final 5.54e-57, "
                  "adaptive rate 0.6613 S final 2.00e-13", False),
    # any other byte: a rate digit, N, a verdict, the trial index
    ("observers", "[PASS] trial   0: N 6 q 3 rho 0.83: distributed rate 0.6464 final 5.54e-57, "
                  "adaptive rate 0.6613 S final 7.04e-16", False),
    ("observers", "[PASS] trial   0: N 5 q 3 rho 0.83: distributed rate 0.6463 final 5.54e-57, "
                  "adaptive rate 0.6613 S final 7.04e-16", False),
    ("equivalence", "[FAIL] trial   0: max route deviation 6.153e-16", False),
    ("equivalence", "[PASS] trial   1: max route deviation 6.153e-16", False),
])
def test_the_props_comparison_ignores_only_rounding_below_the_bound(suite, printed, same):
    recorded = (PROPS_DATA / f"{suite}.txt").read_text("utf-8").split("\n")[0]
    assert (props_mismatches(suite, printed, recorded) == []) is same


def numpy_build_config() -> str:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        np.show_config()
    return text.getvalue()


# every suite's recorded output, printed by a child process on another kernel
KERNEL_CHILD = """
import contextlib, io, json, sys
from coopreg.cli import main
printed = {}
for suite in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        main(["props", suite, "--trials", "30", "--seed", "0"])
    printed[suite] = text.getvalue()
print(json.dumps(printed))
"""


@functools.cache
def props_on_kernel(kernel: str) -> dict[str, str]:
    """Every suite's props stdout from a child process on ``kernel``; the
    variable acts on the child alone, this process keeps its kernel."""
    src = str(Path(properties.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", KERNEL_CHILD, *sorted(SUITES)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# The observers' fitted rates are fitted down to the decay fit's floor, where
# rounding is up to about 10 % of a sample, so on these kernels a rate moves
# in its last digit (trial 3's distributed rate reads 0.7394, recorded
# 0.7391).  A rate carries a decision and stays exact, so these cases fail
# until the rates are fitted or printed so that they do not follow the kernel.
RATES_MOVE = pytest.mark.xfail(reason="the observers' fitted rates differ in the last digit "
                                      "on this kernel; rates are compared exactly")


@pytest.mark.skipif("openblas" not in numpy_build_config().lower(),
                    reason="numpy is not built on OpenBLAS, so OPENBLAS_CORETYPE picks no kernel")
@pytest.mark.parametrize("kernel, suite", [
    pytest.param(kernel, suite, marks=RATES_MOVE if suite == "observers" else ())
    for kernel in ("Haswell", "Prescott") for suite in sorted(SUITES)])
def test_props_stdout_matches_the_recorded_output_on_other_blas_kernels(kernel, suite):
    recorded = (PROPS_DATA / f"{suite}.txt").read_text("utf-8")
    assert props_mismatches(suite, props_on_kernel(kernel)[suite], recorded) == []


@pytest.mark.parametrize("seed", [408, 1675])
def test_slowly_contracting_consensus_trials_get_the_steps_they_need(seed):
    # still contracting, but too slowly to reach 1e-9 within 60 N (window + 1) steps
    result = consensus_trial(seed)
    assert result.passed, result.detail


def test_consensus_suite_fails_when_nothing_averages(monkeypatch):
    monkeypatch.setattr(properties, "consensus_step", lambda adj, x: x)
    results = run_suite("consensus", 10, 400)
    assert results and not any(r.passed for r in results)
