"""Which faults each property suite catches.

Each row injects one fault into the layer a suite checks and runs a few of
its trials; the suite catches the fault when at least one trial fails.  The
faults: NaN from step K on, a schedule read one step late, and a 1e-6 bias
in one follower.  ``observer_logs`` is the layer of ``equivalence`` and
``observers``, ``consensus_step`` the layer of ``consensus``; the suites
that judge by a decay fit get NaN on the series they hand to ``fit_decay``,
and ``kron`` on the Kronecker factors it multiplies.  A row whose ``caught``
is False records a fault that its suite misses.
"""

import warnings

import numpy as np
import pytest

from coopreg import observers, properties
from coopreg.cli import main
from coopreg.observers import fit_decay
from coopreg.properties import SUITES
from coopreg.topology import SwitchingSignal, SwitchingTopology
from test_oracles import PROPS_DATA, props_mismatches

K = 60  # the step from which a NaN fault holds
TRIALS = 3
BIAS = 1e-6


def nan_logs(logs):
    def faulty(leader, topo, bank, horizon):
        v, eta, s_est = logs(leader, topo, bank, horizon)
        eta = eta.copy()
        eta[K + 1:] = np.nan
        return v, eta, s_est
    return faulty


def lagged_logs(logs):
    """The bank steps with the mode of the step before (mode(0) at step 0)."""
    def faulty(leader, topo, bank, horizon):
        modes = topo.signal.modes(0, horizon).tolist()
        lagged = SwitchingSignal.from_table(modes[:1] + modes[:-1], tail_mode=modes[-1])
        return logs(leader, SwitchingTopology(graphs=topo.graphs, signal=lagged), bank, horizon)
    return faulty


def biased_logs(logs):
    def faulty(leader, topo, bank, horizon):
        v, eta, s_est = logs(leader, topo, bank, horizon)
        eta = eta.copy()
        eta[1:, 0] += BIAS
        return v, eta, s_est
    return faulty


def nan_steps(step):
    calls = []

    def faulty(adj, x):
        calls.append(None)
        out = step(adj, x)
        return np.full_like(out, np.nan) if len(calls) > K else out
    return faulty


def lagged_steps(step):
    previous = []

    def faulty(adj, x):
        previous.append(adj)
        return step(previous[-2] if len(previous) > 1 else adj, x)
    return faulty


def biased_steps(step):
    def faulty(adj, x):
        out = step(adj, x)
        out[1] += BIAS
        return out
    return faulty


def nan_series(fit):
    def faulty(values):
        values = np.array(values, dtype=float)
        values[K:] = np.nan
        return fit(values)
    return faulty


def nan_factors(kron):
    """NaN from the seventh factor on: a kron trial multiplies only 41."""
    calls = []

    def faulty(a, b):
        calls.append(None)
        out = kron(a, b)
        return np.full_like(out, np.nan) if len(calls) > 6 else out
    return faulty


OBSERVER_LOGS = ((properties, "observer_logs"),)
CONSENSUS_STEP = ((properties, "consensus_step"),)
# the lemma suites reach fit_decay through properties and through
# observers.perturbed_convergence_check
FIT_DECAY = ((properties, "fit_decay"), (observers, "fit_decay"))
KRON = ((observers, "_kron"),)

FAULTS = [
    # suite, fault, layer, caught
    ("equivalence", nan_logs, OBSERVER_LOGS, True),
    ("equivalence", lagged_logs, OBSERVER_LOGS, True),
    ("equivalence", biased_logs, OBSERVER_LOGS, True),
    ("observers", nan_logs, OBSERVER_LOGS, True),
    # the distributed errors after one period differ from the period's
    # transition product kron S^P by 0.07-1.74 on seeds 0-4
    ("observers", lagged_logs, OBSERVER_LOGS, True),
    # a plateau at the bias fits rate 1 to within rounding (seed 1 at
    # 0.9999999999999971), which is not decay: all three trials fail
    ("observers", biased_logs, OBSERVER_LOGS, True),
    ("consensus", nan_steps, CONSENSUS_STEP, True),
    # the errors after one period differ from the period's transition
    # product by 0.24-1.41 on seeds 0-2
    ("consensus", lagged_steps, CONSENSUS_STEP, True),
    ("consensus", biased_steps, CONSENSUS_STEP, True),
    ("lemma2", nan_series, FIT_DECAY, True),
    ("lemma3", nan_series, FIT_DECAY, True),
    ("lemma4", nan_series, FIT_DECAY, True),
    ("kron", nan_factors, KRON, True),
]


@pytest.mark.parametrize("suite, fault, layer, caught", FAULTS,
                         ids=[f"{s}-{f.__name__}" for s, f, _, _ in FAULTS])
def test_fault_table(suite, fault, layer, caught, monkeypatch):
    original, results = getattr(*layer[0]), []
    for seed in range(TRIALS):
        faulty = fault(original)  # each trial counts its steps from 0
        for module, name in layer:
            monkeypatch.setattr(module, name, faulty)
        results.append(SUITES[suite](seed))
    assert (not all(r.passed for r in results)) == caught, [r.detail for r in results]


GOLDEN_ROWS = [row for row in FAULTS if row[0] in ("equivalence", "observers")]


@pytest.mark.parametrize("suite, fault, layer, caught", GOLDEN_ROWS,
                         ids=[f"{s}-{f.__name__}" for s, f, _, _ in GOLDEN_ROWS])
def test_a_fault_fails_the_recorded_props_output(suite, fault, layer, caught, monkeypatch,
                                                 capsys):
    # the golden comparison forgives rounding, not a fault, even one the
    # suite's own verdicts miss
    original = getattr(*layer[0])
    for module, name in layer:
        monkeypatch.setattr(module, name, fault(original))
    main(["props", suite, "--trials", "30", "--seed", "0"])
    recorded = (PROPS_DATA / f"{suite}.txt").read_text("utf-8")
    assert props_mismatches(suite, capsys.readouterr().out, recorded)


def test_a_series_that_turns_nan_is_not_decaying():
    series = 0.9 ** np.arange(500)
    series[10:] = np.nan
    fit = fit_decay(series)
    assert not fit.decaying and not fit.floored and fit.n_samples == 0


def test_an_all_inf_tail_is_the_no_fit_without_a_warning():
    series = np.concatenate([0.5 ** np.arange(20), np.full(30, np.inf)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_decay(series)
    assert np.isnan([fit.rate, fit.prefactor, fit.residual]).all()
    assert (fit.n_samples, fit.floored, fit.decaying) == (0, False, False)


def test_a_rate_within_rounding_of_1_is_a_plateau_not_decay():
    t = np.arange(500)
    assert not fit_decay((1 - 1e-12) ** t).decaying
    assert fit_decay((1 - 1e-6) ** t).decaying


def test_the_biased_observer_that_fits_a_rate_just_below_1_fails(monkeypatch):
    # seed 1's error stalls at the bias with a fitted rate of 0.9999999999999971
    monkeypatch.setattr(properties, "observer_logs", biased_logs(observers.observer_logs))
    result = SUITES["observers"](1)
    assert not result.passed and "distributed rate 1.0000" in result.detail
