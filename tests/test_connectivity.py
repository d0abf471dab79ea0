from hypothesis import given
from hypothesis import strategies as st

from hypercoop.connectivity import components, components_of_coalition
from hypercoop.model import make_hypergraph

from oracles import merge_groups
from strategies import hypergraphs


def test_components_basic():
    blocks = components([1, 2, 3, 4, 5], [[1, 2], [2, 3]])
    assert blocks == [frozenset({1, 2, 3}), frozenset({4}), frozenset({5})]


def test_components_orders_by_min():
    blocks = components([3, 1, 2], [[3, 2]])
    assert blocks == [frozenset({1}), frozenset({2, 3})]


def test_components_hub():
    h = make_hypergraph(range(1, 7), [[1, 4], [2, 5], [3, 6], [4, 5, 6]])
    assert components(h.players, h.hyperlinks) == [frozenset(range(1, 7))]


def test_components_two_pieces():
    h = make_hypergraph([1, 2, 3, 4, 5], [[1, 2], [3, 4]])
    assert components(h.players, h.hyperlinks) == [
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({5}),
    ]


def test_components_of_coalition():
    h = make_hypergraph(range(1, 7), [[1, 4], [2, 5], [3, 6], [4, 5, 6]])
    assert components_of_coalition({1, 4}, h) == [frozenset({1, 4})]
    assert components_of_coalition({1, 2}, h) == [frozenset({1}), frozenset({2})]
    assert components_of_coalition({1, 2, 3}, h) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]


@given(hypergraphs())
def test_components_partition_the_players(h):
    blocks = components(h.players, h.hyperlinks)
    seen = [p for block in blocks for p in block]
    assert sorted(seen) == list(h.players)


@given(hypergraphs(), st.data())
def test_dropping_links_refines_components(h, data):
    keep = data.draw(
        st.lists(st.sampled_from(range(len(h.hyperlinks))), unique=True)
        if h.hyperlinks
        else st.just([])
    )
    partial = [h.hyperlinks[i] for i in keep]
    coarse = components(h.players, h.hyperlinks)
    fine = components(h.players, partial)
    for small in fine:
        assert any(small <= big for big in coarse)


def _subsets(items):
    return st.lists(st.sampled_from(items), unique=True) if items else st.just([])


@given(hypergraphs(max_players=7, max_links=6), st.data())
def test_components_match_the_union_find(h, data):
    """Exact list equality, order included, against the reference
    partition: on a drawn subset of the hyperlinks over all players, and
    on the subhypergraph a drawn coalition induces."""
    partial = data.draw(_subsets(list(h.hyperlinks)))
    assert components(h.players, partial) == merge_groups(h.players, partial)
    coalition = frozenset(data.draw(_subsets(list(h.players))))
    inside = [e for e in h.hyperlinks if e <= coalition]
    assert components(coalition, inside) == merge_groups(coalition, inside)
    assert components_of_coalition(coalition, h) == merge_groups(coalition, inside)
