"""Tests for repro.core.lrg: the self-updating LRG priority order."""

import pytest
from hypothesis import given, strategies as st

from repro.core.lrg import LRGState
from repro.errors import ArbitrationError, ConfigError


class TestConstruction:
    def test_default_order_is_ascending(self):
        assert LRGState(4).order == [0, 1, 2, 3]

    def test_custom_initial_order(self):
        assert LRGState(3, initial_order=[2, 0, 1]).order == [2, 0, 1]

    def test_rejects_non_permutation(self):
        with pytest.raises(ConfigError):
            LRGState(3, initial_order=[0, 0, 1])

    def test_rejects_zero_inputs(self):
        with pytest.raises(ConfigError):
            LRGState(0)


class TestGrant:
    def test_winner_demoted_to_bottom(self):
        lrg = LRGState(4)
        lrg.grant(0)
        assert lrg.order == [1, 2, 3, 0]

    def test_round_robin_emerges_under_full_contention(self):
        """With everyone always requesting, LRG degenerates to round robin."""
        lrg = LRGState(3)
        winners = []
        for _ in range(6):
            winner = lrg.arbitrate([0, 1, 2])
            lrg.grant(winner)
            winners.append(winner)
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_least_recently_granted_wins(self):
        lrg = LRGState(3)
        lrg.grant(0)
        lrg.grant(2)
        # 1 was granted longest ago (never): highest priority.
        assert lrg.arbitrate([0, 1, 2]) == 1

    def test_grant_count(self):
        lrg = LRGState(2)
        lrg.grant(0)
        lrg.grant(1)
        assert lrg.grant_count == 2

    def test_grant_rejects_out_of_range(self):
        with pytest.raises(ArbitrationError):
            LRGState(2).grant(5)


class TestArbitrate:
    def test_single_requester_wins(self):
        assert LRGState(4).arbitrate([2]) == 2

    def test_rejects_empty(self):
        with pytest.raises(ArbitrationError):
            LRGState(4).arbitrate([])

    def test_rejects_duplicates(self):
        with pytest.raises(ArbitrationError):
            LRGState(4).arbitrate([1, 1])

    def test_rejects_invalid_index(self):
        with pytest.raises(ArbitrationError):
            LRGState(4).arbitrate([9])

    def test_arbitrate_is_pure(self):
        lrg = LRGState(4)
        before = lrg.order
        lrg.arbitrate([1, 2])
        assert lrg.order == before


class TestMatrixView:
    def test_has_priority_matches_order(self):
        lrg = LRGState(3, initial_order=[2, 0, 1])
        assert lrg.has_priority(2, 0)
        assert lrg.has_priority(0, 1)
        assert not lrg.has_priority(1, 2)

    def test_diagonal_is_undefined(self):
        with pytest.raises(ArbitrationError):
            LRGState(3).has_priority(1, 1)

    def test_priority_row_zero_diagonal(self):
        lrg = LRGState(4)
        row = lrg.priority_row(0)
        assert row[0] == 0
        assert row == [0, 1, 1, 1]

    def test_priority_row_of_lowest_priority_is_all_zero(self):
        lrg = LRGState(3)
        lrg.grant(1)
        assert lrg.priority_row(1) == [0, 0, 0]

    def test_row_sum_equals_inputs_beaten(self):
        lrg = LRGState(5)
        for i in range(5):
            assert sum(lrg.priority_row(i)) == 5 - 1 - lrg.rank(i)


@given(
    n=st.integers(2, 8),
    grants=st.lists(st.integers(0, 7), max_size=40),
)
def test_order_is_always_a_permutation(n, grants):
    """Invariant: grants preserve the strict total order."""
    lrg = LRGState(n)
    for g in grants:
        lrg.grant(g % n)
        assert sorted(lrg.order) == list(range(n))


@given(
    n=st.integers(2, 6),
    grants=st.lists(st.integers(0, 5), max_size=30),
    data=st.data(),
)
def test_matrix_is_antisymmetric_and_transitive(n, grants, data):
    lrg = LRGState(n)
    for g in grants:
        lrg.grant(g % n)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n - 1))
    if len({i, j, k}) == 3:
        # Antisymmetry
        assert lrg.has_priority(i, j) != lrg.has_priority(j, i)
        # Transitivity
        if lrg.has_priority(i, j) and lrg.has_priority(j, k):
            assert lrg.has_priority(i, k)


@given(
    n=st.integers(2, 8),
    data=st.data(),
)
def test_winner_beats_every_other_requester(n, data):
    lrg = LRGState(n)
    for g in data.draw(st.lists(st.integers(0, n - 1), max_size=20)):
        lrg.grant(g)
    size = data.draw(st.integers(1, n))
    requesters = data.draw(
        st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
    )
    winner = lrg.arbitrate(requesters)
    for other in requesters:
        if other != winner:
            assert lrg.has_priority(winner, other)


@given(
    n=st.integers(1, 8),
    data=st.data(),
)
def test_in_place_ranks_match_order_and_pick_matches_arbitrate(n, data):
    """grant() updates ranks in place; pick() is arbitrate() without checks."""
    lrg = LRGState(n, initial_order=data.draw(st.permutations(range(n))))
    for g in data.draw(st.lists(st.integers(0, n - 1), max_size=40)):
        lrg.grant(g)
        order = lrg.order
        assert list(lrg.ranks) == [order.index(i) for i in range(n)]
        assert [lrg.rank(i) for i in range(n)] == list(lrg.ranks)
    requesters = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    assert lrg.pick(requesters) == lrg.arbitrate(requesters)
