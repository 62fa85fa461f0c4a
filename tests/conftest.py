"""Fixtures and config builders shared by the test modules."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eivtls
from eivtls import processes
from eivtls.montecarlo import ExperimentConfig

SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def shipped(name: str) -> dict:
    """The config object of ``scripts/configs/<name>.json``."""
    return json.loads((SHIPPED_CONFIGS / f"{name}.json").read_text())


def exemplar(name: str, beta, **changes) -> ExperimentConfig:
    """``<name>_p2.json`` at p = len(beta): block [I_p; 1'], p + 1 copies of its first
    error column, then ``changes`` in place of whole top-level keys."""
    d = shipped(f"{name}_p2")
    p = len(beta)
    d["design"]["block"] = np.vstack([np.eye(p), np.ones((1, p))])
    d["errors"]["columns"] = d["errors"]["columns"][:1] * (p + 1)
    return ExperimentConfig.from_dict({**d, "beta": beta, **changes})


def run_script(script, *args, cwd=None):
    """The stdout of ``script`` run to exit 0 in a fresh interpreter that imports this ``eivtls``.

    As in the suite's own settings, a RuntimeWarning or DeprecationWarning is an error there.
    """
    src = str(Path(eivtls.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning",
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def traced_peak(call, *args):
    """``call(*args)`` and the peak bytes ``tracemalloc`` traced while it ran.

    Run the call once untraced first, so that numpy's one-time set-up is not counted.
    """
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def draw_policy(monkeypatch):
    """Set how ``processes.map_draws`` cuts its chunks and how wide its pool may be.

    ``draw_policy(elements=k, cpus=w)`` makes a chunk hold at most ``k``
    floats (``CHUNK_ELEMENTS``) and the usable CPU count ``w``
    (``_usable_cpus``); a name left out keeps its value.  Both are
    restored when the test ends.
    """

    def set_policy(*, elements: int | None = None, cpus: int | None = None) -> None:
        if elements is not None:
            monkeypatch.setattr(processes, "CHUNK_ELEMENTS", elements)
        if cpus is not None:
            monkeypatch.setattr(processes, "_usable_cpus", lambda: cpus)

    return set_policy
