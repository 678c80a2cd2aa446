"""Properties of the graph layer over Hypothesis-drawn seeds.

Each example draws one seed for conftest.random_fd_graph, so a failure
names a seed that rebuilds its graph.  The settings keep the run
deterministic: derandomized, no example database, no deadline.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from capslice.graph import parse_graph, serialize_graph  # noqa: E402
from conftest import random_fd_graph  # noqa: E402


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_serialize_parse_roundtrip(seed):
    g = random_fd_graph(random.Random(seed))
    assert parse_graph(serialize_graph(g)) == g
