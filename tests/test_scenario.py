"""Scenario loading: each band arrives resolved into its stages' inputs."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_leaves
from wdlink.bitload import FecProfile
from wdlink.noise import LaserSpec
from wdlink.ofdm_tx import TxConfig
from wdlink.opll import LoopConfig, pi_gains_for
from wdlink.scenario import (ScenarioError, default_scenario_path, load_scenario,
                             scenario_from_dict)


def test_bands_carry_resolved_run_inputs():
    scn = load_scenario(default_scenario_path())
    w, d = scn.bands
    assert w.master == d.master == LaserSpec("ld1", 100.0, 0.0)
    assert w.slave == LaserSpec("ld2", 5000.0, 92.5e9)
    assert d.slave == LaserSpec("ld3", 80000.0, 130e9)
    kp, ki = pi_gains_for(100e3, 20e3, 50e3)
    assert w.loop == LoopConfig(92.5e9, kp, ki, actuator_bw_hz=50e3, sim_rate_hz=50e6,
                                duration_s=0.02, initial_freq_error_hz=1e6)
    assert d.loop == dataclasses.replace(w.loop, target_offset_hz=130e9)
    # the PRBS register is the loader's default: the file leaves it out
    assert w.tx == d.tx == TxConfig(4, 64, 4, 8, 1 / 64, 10.0, 2, prbs_order=17,
                                    prbs_seed_state=0x1FFFF)
    assert scn.fec == FecProfile(overhead_fraction=0.155, ber_threshold=0.022)
    assert (w.lock_seed, w.noise_seed, d.lock_seed, d.noise_seed) == (2101, 2102, 2201, 2202)
    assert w.downconvert is None
    # the decimation is the frame's oversampling, resolved at load
    assert d.downconvert == {"seed_lo_hz": 21.7e9, "mult": 6,
                             "if_window_hz": (2.8e9, 19.8e9), "decimate": 2}


def test_seed_override_replaces_only_the_seeds():
    scn = load_scenario(default_scenario_path())
    over = scn.with_seed_override(7)
    state = np.random.SeedSequence(7).generate_state(4)
    assert [(b.lock_seed, b.noise_seed) for b in over.bands] == [
        (int(state[0]), int(state[1])), (int(state[2]), int(state[3]))]
    strip = dict(lock_seed=0, noise_seed=0)
    assert [dataclasses.replace(b, **strip) for b in over.bands] == [
        dataclasses.replace(b, **strip) for b in scn.bands]
    assert dataclasses.replace(over, bands=scn.bands) == scn
    assert scn.bands[0].lock_seed == 2101  # the loaded scenario is left as it was
    assert scn.with_seed_override(7) == over


W_PLAN = {"name": "W", "center_hz": 92.5e9, "n_subcarriers": 256, "spacing_hz": 35e9 / 256,
          "null_indices": [0, 255], "detect_window_hz": [75e9, 110e9]}


@pytest.mark.parametrize("keys, value, message", [
    # a shape error inside a checked block keeps its own path, given once
    (("bands", 0, "tx", "prbs_order"), "17", "$.bands[0].tx.prbs_order: expected an integer"),
    (("bands", 0, "tx", "bits_per_subcarrier"), 7,
     "$.bands[0].tx: bits_per_subcarrier must be one of [1, 2, 3, 4, 5, 6], got 7"),
    (("lasers", "ld2", "linewidth_hz"), -1.0,
     "$.lasers.ld2.linewidth_hz: linewidth_hz must be finite and >= 0"),
    (("bands", 0, "plan"), {k: v for k, v in W_PLAN.items() if k != "center_hz"},
     "$.bands[0].plan.center_hz: missing required field"),
    (("bands", 0, "plan"), {**W_PLAN, "n_subcarriers": math.inf},
     "$.bands[0].plan.n_subcarriers: expected an integer, got float"),
    (("bands", 0, "channel", "mask"), {"csv": "no-such-mask.csv"},
     "$.bands[0].channel.mask: mask CSV: [Errno 2] No such file or directory"),
    (("bands", 1, "downconvert", "mult"), 0,
     "$.bands[1].downconvert: seed_lo_hz must be positive and mult at least 1"),
    # numpy's rule on a seed, which the lock stage met only when it ran
    (("seeds", "lock_W"), -1, "$.seeds.lock_W: expected non-negative integer"),
    # a well-typed integer too large for a float
    (("bands", 0, "plan"), {**W_PLAN, "n_subcarriers": 10**400},
     "$.bands[0].plan: invalid plan: int too large to convert to float"),
    (("bands", 0, "channel", "mask"), {"csv": 1},
     "$.bands[0].channel.mask.csv: expected str, got int"),
])
def test_each_check_reports_its_owner_message_at_its_path(default_doc, keys, value, message):
    doc = copy.deepcopy(default_doc)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc, default_scenario_path().parent)
    assert str(exc.value).startswith(message)
    assert str(exc.value).count("$") == 1


def test_inline_copy_of_each_builtin_plan_loads_equal_to_it(default_doc, plans):
    doc = copy.deepcopy(default_doc)
    for band in doc["bands"]:
        plan = plans[band["plan"].removeprefix("builtin:")]
        band["plan"] = {**dataclasses.asdict(plan), "null_indices": sorted(plan.null_indices),
                        "detect_window_hz": list(plan.detect_window_hz)}
    scn = scenario_from_dict(json.loads(json.dumps(doc)), default_scenario_path().parent)
    assert [b.plan for b in scn.bands] == [plans["W"], plans["D"]]


# ------------------------------------------------------------ loader fuzz

def _fuzz_doc():
    """The bundled document with its defaulted PRBS register written out and
    band W's plan written inline, so that the register's two fields and the
    plan's fields and list items are leaves too."""
    with open(default_scenario_path()) as fh:
        doc = json.load(fh)
    for band in doc["bands"]:
        band["tx"].update(prbs_order=17, prbs_seed_state=0x1FFFF)
    doc["bands"][0]["plan"] = copy.deepcopy(W_PLAN)
    return doc


FUZZ_DOC = _fuzz_doc()
LEAVES = sorted(json_leaves(FUZZ_DOC), key=repr)
DELETE = object()
# a swapped JSON type, the edge values (an integer past the largest float
# among them), and deletion
MUTATIONS = ["swap", 0, -1, 1e308, 1e-308, math.nan, 2**70, 10**400, DELETE]


# about as many examples as there are leaf x mutation cases, in about a second
@settings(max_examples=570, deadline=None)
@given(leaf=st.sampled_from(LEAVES), mutation=st.sampled_from(MUTATIONS))
@example(leaf=("lock", "unity_gain_hz"), mutation=1e308)
@example(leaf=("lock", "pi_zero_hz"), mutation=1e308)
@example(leaf=("lock", "duration_s"), mutation=1e308)
@example(leaf=("lock", "actuator_bw_hz"), mutation=1e-308)
@example(leaf=("bands", 1, "tx", "prbs_order"), mutation=0)
@example(leaf=("bands", 1, "tx", "prbs_seed_state"), mutation=2**70)
@example(leaf=("bands", 0, "plan", "spacing_hz"), mutation=1e308)
@example(leaf=("bands", 0, "plan", "n_subcarriers"), mutation="swap")
@example(leaf=("lasers", "ld2", "linewidth_hz"), mutation=10**400)
@example(leaf=("bands", 1, "downconvert", "if_window_hz", 0), mutation=10**400)
def test_one_leaf_mutation_loads_or_names_its_json_path(leaf, mutation):
    """Any one leaf of the document, retyped, set to an edge value or
    deleted: the loader returns a Scenario or raises a ScenarioError whose
    message starts with the JSON path; nothing else escapes, and no
    RuntimeWarning is raised (the test configuration makes those errors).
    A retyped leaf never loads."""
    doc = copy.deepcopy(FUZZ_DOC)
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    if mutation is DELETE:
        del node[leaf[-1]]
    elif mutation == "swap":
        old = node[leaf[-1]]
        node[leaf[-1]] = 1 if isinstance(old, str) else str(old)
    else:
        node[leaf[-1]] = mutation
    try:
        scenario_from_dict(doc, default_scenario_path().parent)
    except ScenarioError as e:
        assert str(e).startswith("$"), str(e)
    else:
        assert mutation != "swap", f"retyped leaf {leaf} loaded"
