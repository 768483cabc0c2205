import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from golden.regen import capture
from wdlink.bandplan import make_default_plans
from wdlink.noise import PhaseTrace, beat_chunks
from wdlink.scenario import default_scenario_path, load_scenario


def joined_beat(master, slave, n_samples, sample_rate_hz, seed) -> PhaseTrace:
    """The whole beat phase of ``noise.beat_chunks``: its chunks joined."""
    return PhaseTrace(np.concatenate(list(beat_chunks(master, slave, n_samples,
                                                      sample_rate_hz, seed))),
                      sample_rate_hz)


def json_leaves(node, path=()):
    """Key paths of every non-container value in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from json_leaves(value, path + (key,))
        else:
            yield path + (key,)


@pytest.fixture(scope="session", autouse=True)
def no_partial_trees(tmp_path_factory):
    """Fails the session if any ``<out>.partial-<pid>`` sibling is left under
    pytest's temporary directories: every run, passing or failing, must
    either publish its tree or remove it."""
    yield
    left = sorted(p for p in tmp_path_factory.getbasetemp().rglob("*.partial-*")
                  if p.is_dir())
    if left:
        pytest.fail(f"unpublished output trees left behind: {left}")


@pytest.fixture(scope="session")
def plans():
    return make_default_plans()


@pytest.fixture(scope="session")
def w_plan(plans):
    return plans["W"]


@pytest.fixture(scope="session")
def d_plan(plans):
    return plans["D"]


@pytest.fixture(scope="session")
def scenario():
    """The bundled scenario, loaded once: the default link's only source.
    Tests derive variants of its parts with ``dataclasses.replace``."""
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def w_band(scenario):
    """Band W's resolved inputs: ``master``, ``slave``, ``loop``, ``tx``..."""
    return scenario.band("W")


@pytest.fixture(scope="session")
def d_band(scenario):
    return scenario.band("D")


@pytest.fixture(scope="session")
def fec(scenario):
    return scenario.fec


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One in-process ``sim run`` on the bundled scenario, shared by the
    tests that only read it: (output directory, record), where the record
    holds the exit code, the stdout and the sha256 of every file."""
    out = tmp_path_factory.mktemp("default_run") / "out"
    return out, capture(["run"], out)


@pytest.fixture(scope="session")
def default_lock_sim(tmp_path_factory):
    """One in-process ``sim lock-sim`` on the bundled scenario, shared like
    ``default_run``: (output directory, record)."""
    out = tmp_path_factory.mktemp("default_lock_sim") / "out"
    return out, capture(["lock-sim"], out)


@pytest.fixture(scope="session")
def default_doc():
    """The bundled scenario as a plain dict, for derived variants."""
    with open(default_scenario_path()) as fh:
        return json.load(fh)


@pytest.fixture()
def scenario_file(tmp_path, default_doc):
    """Write a (possibly modified) scenario doc and return its path."""

    def _write(mutate=None, name="scenario.json"):
        doc = json.loads(json.dumps(default_doc))
        if mutate is not None:
            mutate(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        return path

    return _write
