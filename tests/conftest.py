"""Fixtures shared by the test modules."""

import pytest

from eivtls import processes


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
