import threading
import time

import numpy as np
import pytest

import crslab.matching
from crslab.graph import cycle
from crslab.matching import Matching, _ahead, assert_valid_matching


def test_matching_add_and_size():
    g = cycle(5, 0.5)
    m = Matching(5)
    assert m.size == 0 and not m.matched.any()
    m.add(g, g.edge_id(0, 1), 0.4, proposer=1)
    assert m.size == 1
    assert m.matched[0] and m.matched[1] and not m.matched[2]
    assert m.accepted[0] == (g.edge_id(0, 1), 0.4, 1)


def test_valid_matching_passes():
    g = cycle(5, 0.5)
    m = Matching(5)
    m.add(g, g.edge_id(0, 1), 0.2, 1)
    m.add(g, g.edge_id(2, 3), 0.5, 2)
    assert_valid_matching(g, m)


def test_overlapping_edges_fail_validation():
    g = cycle(5, 0.5)
    m = Matching(5)
    m.add(g, g.edge_id(0, 1), 0.2, 1)
    m.add(g, g.edge_id(1, 2), 0.5, 2)
    with pytest.raises(AssertionError, match="covered twice"):
        assert_valid_matching(g, m)


def test_matched_flags_external_array():
    flags = np.zeros(5, dtype=bool)
    m = Matching(5, matched=flags)
    m.add(cycle(5, 0.5), 0, 0.1, 1)
    assert flags[0] and flags[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_ahead_yields_in_order_and_close_joins_helper(monkeypatch, workers):
    monkeypatch.setattr(crslab.matching, "WORKERS", workers)
    assert list(_ahead(lambda k: k * k, range(6))) == [0, 1, 4, 9, 16, 25]
    threads = threading.active_count()
    slow = _ahead(lambda k: (time.sleep(0.05), k)[1], range(6))
    assert next(slow) == 0  # item 1 is now being made ahead
    slow.close()
    assert threading.active_count() == threads
