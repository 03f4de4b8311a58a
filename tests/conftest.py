import numpy as np
import pytest

from unipc import ModelEvaluator, NoiseSchedule, SyntheticModel


@pytest.fixture
def vp_linear():
    return NoiseSchedule()


@pytest.fixture
def vp_cosine():
    return NoiseSchedule.from_json({"kind": "vp-cosine"})


@pytest.fixture
def poly_model():
    """Degree-2 x-free model with the doc-example coefficients."""
    return SyntheticModel.x_free_poly([0.3, -1.2, 0.5], dim=4)


@pytest.fixture
def small_poly_model():
    """Degree-2 x-free model scaled so sampling errors stay inside the fit window."""
    return SyntheticModel.x_free_poly(np.array([0.3, -1.2, 0.5]) * 5e-4, dim=4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def patched_calls(monkeypatch):
    """ModelEvaluator.__call__ replaced by a counting wrapper, as a tracer patches it; the
    returned list gets the evaluator of every call that reaches the wrapper."""
    calls, inner = [], ModelEvaluator.__call__

    def counted(self, *args, **kwargs):
        calls.append(self)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(ModelEvaluator, "__call__", counted)
    return calls
