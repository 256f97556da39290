import pytest

from dcflow.topology import TreeSpec, make_route


@pytest.fixture
def star_tree():
    """Root r with leaves a and b."""
    return TreeSpec(nodes=("r", "a", "b"), root="r", parent={"a": "r", "b": "r"})


@pytest.fixture
def chain_tree():
    """Chain r - a - g; route g->r spans two up-queues."""
    return TreeSpec(nodes=("r", "a", "g"), root="r", parent={"a": "r", "g": "a"})


@pytest.fixture
def two_hop_route(chain_tree):
    return make_route(chain_tree, "g", "r", route_id=0)
