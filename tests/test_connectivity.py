import itertools
import signal
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from hypercoop import connectivity
from hypercoop.connectivity import components, connected_sets, disconnected_sets, hypergraph_pieces
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


def test_sets_with_an_isolated_vertex_refuse_before_listing(monkeypatch):
    """The line graph of 30 pairs inside K10 (K4 on 0..3 joined to 6
    more players): the sets {i} ∪ R number 1,610,025, but the sets with
    an isolated vertex, 6,340,578 less 94,467 that isolate two, already
    pass 2^22, so the listing never starts."""
    adjacency = k10_pairs(30)

    def refuse(*_args):
        raise AssertionError("the component bound or the listing was reached")

    monkeypatch.setattr(connectivity, "mask_components", refuse)
    assert disconnected_sets(adjacency, 1 << 22) is None


def k10_pairs(m):
    """The line graph of the first m pairs of K10 in lexicographic order."""
    pairs = [1 << a | 1 << b for a, b in itertools.combinations(range(10), 2)][:m]
    return [sum(1 << f for f, b in enumerate(pairs) if f != e and a & b) for e, a in enumerate(pairs)]


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


def test_a_dominating_set_refuses_without_growing(monkeypatch):
    """In the line graph of 30 pairs inside K10 the degree bound is
    144,305, but the pairs {0,1}, {0,2}, {0,3} touch all 30, so each of
    the 2^27 sets holding them is connected."""
    grown = []
    monkeypatch.setattr(connectivity, "_grow", lambda *args: grown.append(args) or iter(()))
    adjacency = k10_pairs(30)
    assert connected_sets(adjacency, (1 << 27) - 1) is None
    assert grown == []


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


def closure_spy(yielded):
    """`connectivity._closure`, patched to record each set it yields."""
    original = connectivity._closure

    def spied(*args):
        for found in original(*args):
            yielded.append(found[0])
            yield found

    return mock.patch.object(connectivity, "_closure", spied)


def test_the_singletons_terms_refuse_without_growing():
    """Eleven 3- and 4-member hyperlinks on 9 players, a game of the
    dense benchmark workload: its 9 players and 44 unions of hyperlinks
    that meet give 106 sets and terms, within 2^9/4 = 128, and the 34
    members of hyperlinks on no smaller hyperlink inside them add a
    singleton's term each, so nothing is grown.  The full listing has
    350 sets and terms."""
    members = [[0, 1, 6, 7], [0, 2, 8], [0, 4, 5], [0, 4, 8], [0, 5, 8], [0, 7, 8],
               [1, 3, 7], [1, 3, 8], [2, 5, 8], [2, 6, 7], [3, 4, 8]]
    links = [sum(1 << k for k in e) for e in members]
    yielded = []
    with closure_spy(yielded):
        assert hypergraph_pieces(links, 9, 128) is None
        assert hypergraph_pieces(links, 9, 139) is None
    assert yielded == []
    terms = hypergraph_pieces(links, 9, 350)
    assert len({t[0] for t in terms}) + len(terms) == 350


@given(hypergraphs(max_players=7, max_links=7, max_link_size=4))
def test_at_a_limit_of_the_sets_and_terms_there_are_growth_starts(h):
    """The bounds checked before growth never pass the number of sets
    and terms, so they refuse only inputs that growth would refuse."""
    bit = {p: 1 << k for k, p in enumerate(h.players)}
    links = [sum(bit[p] for p in e) for e in h.hyperlinks]
    n = len(h.players)
    terms = hypergraph_pieces(links, n, 1 << (n + len(links) + 1))
    yielded = []
    with closure_spy(yielded):
        hypergraph_pieces(links, n, len({t[0] for t in terms}) + len(terms))
    assert yielded
