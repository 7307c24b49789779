"""sweep_map with a failing worker: the worker's own exception surfaces.

Neither path wraps or swallows the error, so a bad sweep point fails the
campaign with the exception the experiment raised.
"""

import pytest

from repro.experiments import sweep_map


def _boom(value):
    if value == 3:
        raise ValueError(f"bad point {value}")
    return value * value


class TestWorkerExceptions:
    def test_exception_propagates_without_partial(self):
        with pytest.raises(ValueError, match="bad point 3"):
            sweep_map(_boom, list(range(6)), jobs=1)
        with pytest.raises(ValueError, match="bad point 3"):
            sweep_map(_boom, list(range(6)), jobs=3)
