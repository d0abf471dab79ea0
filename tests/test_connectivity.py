import itertools
import signal

from hypothesis import given
from hypothesis import strategies as st

from hypercoop import connectivity
from hypercoop.connectivity import components, connected_sets, disconnected_sets
from hypercoop.corpus import connected_coalitions
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

    def inside(coalition):
        return [e for e in h.hyperlinks if e <= coalition]

    assert components({1, 4}, inside({1, 4})) == [frozenset({1, 4})]
    assert components({1, 2}, inside({1, 2})) == [frozenset({1}), frozenset({2})]
    assert components({1, 2, 3}, inside({1, 2, 3})) == [
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


@given(hypergraphs(max_players=7, max_links=6))
def test_connected_coalitions_match_the_union_find(h):
    """The corpus draws one worth per listed coalition, so the list must
    keep its order: by size, then in `itertools.combinations` order."""
    expected = [
        frozenset(combo)
        for size in range(2, len(h.players) + 1)
        for combo in itertools.combinations(h.players, size)
        if len(merge_groups(combo, [e for e in h.hyperlinks if e <= set(combo)])) == 1
    ]
    assert connected_coalitions(h) == expected


@st.composite
def graphs(draw, max_vertices: int = 8):
    """Neighbour masks of a simple graph on up to `max_vertices` vertices."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    adjacency = [0] * n
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for a, b in chosen:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    return adjacency


def connected_sets_by_brute_force(adjacency):
    """(set, boundary) for every nonempty vertex mask whose closure from
    its lowest vertex inside the mask is the whole mask."""
    found = []
    for mask in range(1, 1 << len(adjacency)):
        piece = mask & -mask
        while True:
            grown = piece
            for v in range(len(adjacency)):
                if piece >> v & 1:
                    grown |= adjacency[v] & mask
            if grown == piece:
                break
            piece = grown
        if piece == mask:
            reach = 0
            for v in range(len(adjacency)):
                if mask >> v & 1:
                    reach |= adjacency[v]
            found.append((mask, reach & ~mask))
    return found


@given(graphs())
def test_connected_sets_match_the_brute_force(adjacency):
    """Each connected set exactly once, with its boundary; a limit equal
    to their number admits them all (so the degree bound never exceeds
    it), and one less refuses."""
    expected = connected_sets_by_brute_force(adjacency)
    found = connected_sets(adjacency, 1 << len(adjacency))
    assert sorted(found) == expected
    assert sorted(connected_sets(adjacency, len(expected))) == expected
    if expected:
        assert connected_sets(adjacency, len(expected) - 1) is None


@given(graphs())
def test_disconnected_sets_are_the_other_sets(adjacency):
    """Each nonempty vertex mask the brute force finds not connected,
    exactly once; a limit equal to their number admits them all (so the
    bound from the one-vertex components never exceeds it), and one less
    refuses."""
    connected = {mask for mask, _ in connected_sets_by_brute_force(adjacency)}
    expected = [mask for mask in range(1, 1 << len(adjacency)) if mask not in connected]
    assert sorted(disconnected_sets(adjacency, 1 << len(adjacency))) == expected
    assert sorted(disconnected_sets(adjacency, len(expected))) == expected
    assert disconnected_sets(adjacency, len(expected) - 1) is None


def test_disconnected_sets_of_a_complete_graph_and_a_ring():
    """K6 has none; a ring on n vertices has 2^n - 1 sets, of which
    n·(n-1) + 1 are connected."""
    complete = [((1 << 6) - 1) ^ (1 << v) for v in range(6)]
    assert disconnected_sets(complete, 0) == []
    for n in (3, 5, 10):
        assert len(disconnected_sets(ring(n), 1 << n)) == (1 << n) - 1 - (n * n - n + 1)
    # vertex 0 alone does not reach 2..8, so the sets {0} ∪ R already number 2^7 - 1
    assert disconnected_sets(ring(10), 126) is None


def test_disconnected_sets_across_components_refuse_before_listing():
    """The line graph of two disjoint K11 pair cliques: the sets meeting
    both cliques number (2^55 - 1)^2 > 2^108, while the sets {i} ∪ R
    number fewer than 2^97, so only the component count refuses this
    limit before the listing starts."""
    pairs = [set(p) for block in (range(11), range(11, 22)) for p in itertools.combinations(block, 2)]
    adjacency = [sum(1 << f for f, b in enumerate(pairs) if f != e and a & b) for e, a in enumerate(pairs)]

    def timeout(*_args):
        raise TimeoutError("disconnected_sets listed sets past the bound")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        assert disconnected_sets(adjacency, 1 << 108) is None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def ring(n):
    return [1 << (v + 1) % n | 1 << (v - 1) % n for v in range(n)]


def test_a_ring_has_n_squared_minus_n_connected_sets():
    for n in (3, 5, 12, 24):
        assert len(connected_sets(ring(n), 1 << n)) == n * n - n + 1


def test_the_degree_bound_refuses_without_growing(monkeypatch):
    grown = []

    def spy(adjacency, root, banned):
        grown.append(root)
        return original(adjacency, root, banned)

    original = connectivity._grow
    monkeypatch.setattr(connectivity, "_grow", spy)
    complete = [((1 << 6) - 1) ^ (1 << v) for v in range(6)]
    star = [(1 << 7) - 2] + [1] * 6
    # 2^5 + 2^4 + ... + 1 = 63 sets through the first-ranked vertices of
    # K6, 2^6 + 6 = 70 through the star's hub and leaves
    assert connected_sets(complete, 62) is None
    assert connected_sets(star, 69) is None
    assert grown == []
    assert len(connected_sets(complete, 63)) == 63
    assert len(connected_sets(star, 70)) == 70
    assert len(grown) == 13


def test_growth_stops_once_the_limit_is_passed(monkeypatch):
    """A path on 6 vertices has 21 connected sets but a degree bound of
    4 + 2 + 2 + 2 + 1 + 1 = 12: a limit between the two is only found
    out by growing, which stops at the 17th set."""
    path = [(1 << v - 1 if v else 0) | (1 << v + 1 if v < 5 else 0) for v in range(6)]
    yielded = []

    def spy(adjacency, root, banned):
        for pair in original(adjacency, root, banned):
            yielded.append(pair)
            yield pair

    original = connectivity._grow
    monkeypatch.setattr(connectivity, "_grow", spy)
    assert connected_sets(path, 16) is None
    assert len(yielded) == 17
    assert len(connected_sets(path, 21)) == 21
