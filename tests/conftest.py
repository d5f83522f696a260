import pytest

from cubicmaps.dataset import EnumConfig, generate_dataset
from cubicmaps.linsys import FIVE_POINT, SIX_POINT
from cubicmaps.network import TrainConfig, train


@pytest.fixture(scope="session")
def five_records():
    return generate_dataset(EnumConfig(FIVE_POINT))


@pytest.fixture(scope="session")
def six_records():
    return generate_dataset(EnumConfig(SIX_POINT))


@pytest.fixture(scope="session")
def quick_model(five_records):
    """A short training run shared by network unit tests."""
    cfg = TrainConfig(epochs=2)
    model, test_idx, history = train(five_records, cfg)
    return model, test_idx, history
