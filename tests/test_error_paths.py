"""Every refusal that no other test reaches, with its exact message.

Each row builds one bad input and names the error it must raise, word for
word.  The inputs come from outside the program (a config document, a file,
a command line) or from the Python API, whose constructors check shapes and
ranges once, when the object is built.
"""

import dataclasses
import json

import numpy as np
import pytest

from coopreg.cli import main
from coopreg.config import ConfigError, config_to_scenario, load_config, scenario_to_config
from coopreg.observers import (
    ErrorState,
    LeaderModel,
    ObserverBank,
    error_form_step,
    kron_factorization_check,
    observer_step,
    spectral_radius,
)
from coopreg.regulation import (
    GainSynthesisError,
    PlantModel,
    synthesize_stabilizing_gain,
)
from coopreg.scenarios import fig2_topology, formation_scenario, single_follower_scenario
from coopreg.simkit import FollowerSpec, Scenario
from coopreg.topology import (
    DimensionError,
    NormalizedAdjacency,
    SwitchingSignal,
    SwitchingTopology,
    WeightedDigraph,
    is_jointly_connected,
    normalize_adjacency,
    transition_product,
    union_digraph,
)


def edited_config(edit):
    """config_to_scenario of the formation document after ``edit(doc)``."""
    def build():
        doc = scenario_to_config(formation_scenario(horizon=10))
        edit(doc)
        return config_to_scenario(doc)
    return build


def written_file(text):
    def build(tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(text)
        return path
    return build


def sets(*keys_and_value):
    """An edit that sets doc[k0][k1].. to the last argument."""
    *keys, value = keys_and_value

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def drops(*keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


LEADER = LeaderModel(S=np.eye(2), v0=np.ones(2))
ONE_LINK = normalize_adjacency(WeightedDigraph.from_edges(2, [(0, 1)]))
PLANT = single_follower_scenario().followers[0].plant
TOPOLOGY = fig2_topology()

ERRORS = [
    # config documents
    ("config-not-an-object", edited_config(sets("leader", 5)),
     ConfigError, "leader: expected an object, got int"),
    ("config-missing-key", edited_config(drops("leader", "v0")),
     ConfigError, "leader: missing required key 'v0'"),
    ("config-not-a-matrix", edited_config(sets("leader", "S", 5)),
     ConfigError, "leader.S: expected a matrix as a list of rows"),
    ("config-not-a-flat-list", edited_config(sets("leader", "v0", [[1.0]])),
     ConfigError, "leader.v0: expected a flat list of numbers"),
    ("config-non-finite-number", edited_config(sets("run", "regulator_tol", float("nan"))),
     ConfigError, "run.regulator_tol: expected a finite number, got nan"),
    ("config-bad-segment-pairs", edited_config(sets("signal", "segments", [[1]])),
     ConfigError, "signal.segments: expected a list of [mode, length] pairs"),
    ("config-unknown-gain-method", edited_config(sets("gains", 0, {"method": "lqr"})),
     ConfigError, "gains[0].method: expected 'user' or 'riccati', got 'lqr'"),
    ("config-user-gain-without-K_x", edited_config(sets("gains", 0, {"method": "user"})),
     ConfigError, "gains[0]: user gain requires 'K_x'"),
    ("config-empty-graphs", edited_config(sets("graphs", [])),
     ConfigError, "graphs: expected a nonempty list of weight matrices"),
    ("config-followers-not-a-list", edited_config(sets("followers", {})),
     ConfigError, "followers: expected a list"),
    ("config-gains-not-a-list", edited_config(sets("gains", {})),
     ConfigError, "gains: expected a list"),
    ("config-bad-observer-mode", edited_config(sets("observer", "mode", "central")),
     ConfigError, "observer.mode: expected 'distributed' or 'adaptive', got 'central'"),
    ("config-non-object-top-level", written_file("[1, 2]"),
     ConfigError, "{path}: top level must be an object"),
    ("config-unreadable-file", lambda tmp_path: tmp_path / "missing.json",
     ConfigError, "{path}: [Errno 2] No such file or directory: '{path}'"),
    # topology
    ("omega-rows-must-sum-to-1", lambda: NormalizedAdjacency(np.array([[1.0, 0.0], [0.5, 0.4]])),
     ValueError, "omega rows must sum to 1"),
    ("omega-entries-in-0-1", lambda: NormalizedAdjacency(np.array([[1.5, -0.5], [0.0, 1.0]])),
     ValueError, "omega entries must lie in [0, 1]"),
    ("omega-diagonal-positive", lambda: NormalizedAdjacency(np.array([[1.0, 0.0], [1.0, 0.0]])),
     ValueError, "omega diagonal must be strictly positive"),
    ("union-of-no-graphs", lambda: union_digraph([]),
     ValueError, "union of an empty graph list"),
    ("segment-length-below-1", lambda: SwitchingSignal.periodic([(1, 0)]),
     ValueError, "segment length 0 must be >= 1"),
    ("table-without-tail", lambda: SwitchingSignal.from_table([1], tail_mode=None),
     ValueError, "table signal needs a tail mode"),
    ("mode-below-1", lambda: SwitchingSignal.from_table([0], tail_mode=1),
     ValueError, "mode indices must be >= 1"),
    ("negative-time", lambda: SwitchingSignal.periodic([(1, 1)]).mode_at(-1),
     ValueError, "time index must be nonnegative"),
    ("topology-without-graphs",
     lambda: SwitchingTopology(graphs=(), signal=SwitchingSignal.periodic([(1, 1)])),
     ValueError, "topology needs at least one graph"),
    ("topology-node-count-mismatch",
     lambda: SwitchingTopology(graphs=(WeightedDigraph.from_edges(2, [(0, 1)]),
                                       WeightedDigraph.from_edges(3, [(0, 1), (0, 2)])),
                               signal=SwitchingSignal.periodic([(1, 1), (2, 1)])),
     DimensionError, "all graphs in a topology must share node_count"),
    ("negative-window", lambda: is_jointly_connected(TOPOLOGY, -1),
     ValueError, "window must be >= 0"),
    ("horizon-below-window", lambda: is_jointly_connected(TOPOLOGY, 4, horizon=3),
     ValueError, "horizon must be >= window"),
    ("product-backwards-in-time", lambda: transition_product(TOPOLOGY, 3, 2),
     ValueError, "t must be >= t0"),
    # observers
    ("bank-eta-not-2d", lambda: ObserverBank(eta=np.zeros(3)),
     DimensionError, "eta must be a (followers, q) array"),
    ("bank-graph-mismatch",
     lambda: observer_step(LEADER, LEADER.v0, ObserverBank(eta=np.zeros((2, 2))), ONE_LINK),
     DimensionError, "graph has 2 nodes but bank holds 2 followers"),
    ("bank-leader-state-mismatch",
     lambda: observer_step(LEADER, np.ones(3), ObserverBank(eta=np.zeros((1, 2))), ONE_LINK),
     DimensionError, "leader state dimension does not match the bank"),
    ("error-state-size",
     lambda: error_form_step(ErrorState(eta_tilde=np.zeros(3)), ONE_LINK, LEADER, LEADER.v0),
     DimensionError, "eta_tilde has 3 entries, expected 2"),
    ("kron-check-negative-t", lambda: kron_factorization_check(TOPOLOGY, LEADER, -1),
     ValueError, "t must be >= 0"),
    # regulation
    ("plant-shape", lambda: PlantModel(A=np.eye(2), B=np.ones((3, 1)), C=np.eye(2),
                                       D=np.zeros((2, 1)), E=np.zeros((2, 2)), F=np.eye(2)),
     DimensionError, "plant matrix B has shape (3, 1), expected (2, 1)"),
    ("gain-pair-shapes", lambda: synthesize_stabilizing_gain(np.eye(2), np.ones((3, 1))),
     DimensionError, "incompatible shapes A(2, 2), B(3, 1)"),
    # Q = 0 makes P = 0 a fixed point of the recursion, and its K_x = 0 fails the certificate
    ("riccati-gain-uncertified",
     lambda: synthesize_stabilizing_gain(np.array([[2.0]]), np.array([[1.0]]), Q=np.zeros((1, 1))),
     GainSynthesisError, "synthesized gain failed certification (radius 2)"),
    # scenarios
    ("follower-initial-state", lambda: FollowerSpec(plant=PLANT, x0=np.zeros(3)),
     DimensionError, "initial state has dim 3, plant expects 2"),
    ("scenario-observer-mode",
     lambda: dataclasses.replace(single_follower_scenario(), observer_mode="central"),
     ValueError, "unknown observer mode 'central'"),
    ("scenario-without-followers",
     lambda: Scenario(name="empty", leader=LEADER, followers=(),
                      topology=SwitchingTopology(graphs=(WeightedDigraph(np.zeros((1, 1))),),
                                                 signal=SwitchingSignal.periodic([(1, 1)]))),
     ValueError, "scenario needs at least one follower"),
    ("scenario-s0-shape",
     lambda: dataclasses.replace(single_follower_scenario(), observer_mode="adaptive",
                                 s0=(np.eye(3),)),
     DimensionError, "s0 must hold one q x q matrix per follower"),
]


@pytest.mark.parametrize("build, error, message", [row[1:] for row in ERRORS],
                         ids=[row[0] for row in ERRORS])
def test_refusal_message_is_exact(build, error, message, tmp_path):
    if build.__code__.co_argcount:  # a file on disk
        path = build(tmp_path)
        build, message = (lambda: load_config(path)), message.format(path=path)
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_degenerate_but_valid_inputs():
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    assert SwitchingSignal.from_table([1, 2], tail_mode=1).period is None


def forced_config(tmp_path):
    """The formation config with a connectivity window too short to verify."""
    doc = scenario_to_config(formation_scenario())
    doc["run"]["checks"]["connectivity_window"] = 1
    path = tmp_path / "short-window.json"
    path.write_text(json.dumps(doc))
    return str(path)


CLI = [
    ("config-and-builtin",
     lambda tmp_path: ["validate", forced_config(tmp_path), "--builtin", "formation-sec5"],
     2, "err", "config error: pass either a config path or --builtin, not both\n"),
    ("unknown-suite", lambda tmp_path: ["props", "no-such-suite"],
     2, "err", "error: unknown suite 'no-such-suite' (known: consensus, equivalence, kron, "
               "lemma2, lemma3, lemma4, observers)\n"),
    ("forced-past-a-failed-check",
     lambda tmp_path: ["run", forced_config(tmp_path), "--force", "--out", str(tmp_path / "out")],
     1, "out", "note: ran with --force past failed validation checks\n"),
]


@pytest.mark.parametrize("argv, code, stream, tail", [row[1:] for row in CLI],
                         ids=[row[0] for row in CLI])
def test_cli_exit_code_and_message(argv, code, stream, tail, tmp_path, capsys):
    assert main(argv(tmp_path)) == code
    assert getattr(capsys.readouterr(), stream).endswith(tail)
