import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ckl.manifold import EmbeddedManifold

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def zero_column_at(monkeypatch):
    """``zero_column_at(node)`` zeroes the second Jacobian column at the
    chart point ``node``, which makes the metric there singular."""
    jacobian = EmbeddedManifold.jacobian

    def patch(node):
        def patched(self, ci, coords):
            jac = jacobian(self, ci, coords)
            jac[np.all(np.asarray(coords) == node, axis=-1), :, 1] = 0.0
            return jac

        monkeypatch.setattr(EmbeddedManifold, "jacobian", patched)

    return patch
