"""Seeded game documents and task lists for the four benchmark workloads.

Each workload is a fixed list of slots.  A slot fixes the structure: the
hyperlinks, the kind of worth and the coalitions that carry worth, drawn
once from a generator seeded by the slot's position, and so are the
denominators of the coefficients.  The seed picks the player labels, the
order of the hyperlinks in the document and the numerator of every
coefficient.  So the answers change with the seed while the cost of a
round hardly does.  The axioms workload also takes the games of
`corpus.game_corpus` at its default seed and gives them labels and table
worths from the seed in the same way.

A game is a dict with the document (``doc``), a file stem (``name``) and,
for rings whose worths are invariant under rotation, the cyclic order of
the players (``ring``).  A task is ``(game index, argv after the
document path)``; every task asks for ``--format json``.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables_sparse", "tables_dense", "expansions", "axioms")

def rational(shape: random.Random, values: random.Random) -> str:
    """A nonzero rational: the seed draws the numerator; the denominator,
    which sets how large the exact arithmetic grows, belongs to the slot."""
    numerator = values.choice([p for p in range(-9, 10) if p])
    return f"{numerator}/{shape.randint(1, 6)}"


# ------------------------------------------------------------ structures
# Players are 0..n-1 in structural order until `relabel` maps them to
# random labels.


def chain(sizes: list[int], closed: bool) -> tuple[int, list[list[int]]]:
    """Consecutive hyperlinks share one player; `closed` joins the ends."""
    links, n = [], 1
    for s in sizes:
        links.append(list(range(n - 1, n + s - 1)))
        n += s - 1
    if closed:
        n -= 1
        links[-1][-1] = 0
    return n, links


def tree(rng: random.Random, sizes: list[int]) -> tuple[int, list[list[int]]]:
    """Each hyperlink after the first hangs off one existing player."""
    links = [list(range(sizes[0]))]
    n = sizes[0]
    for s in sizes[1:]:
        links.append([rng.randrange(n)] + list(range(n, n + s - 1)))
        n += s - 1
    return n, links


def ring(n: int, r: int) -> list[list[int]]:
    """n hyperlinks {i, ..., i+r-1} mod n: invariant under rotation."""
    return [[(i + d) % n for d in range(r)] for i in range(n)]


def dense(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """m distinct 3- and 4-member hyperlinks covering all n players."""
    while True:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < m:
            seen.add(tuple(sorted(rng.sample(range(n), rng.choice((3, 4))))))
        links = [list(e) for e in sorted(seen)]
        if len({p for e in links for p in e}) == n and _connected(n, links):
            return links


def hub(rng: random.Random, h: int, spokes: int) -> tuple[int, list[list[int]]]:
    """A hub hyperlink of h members; each spoke joins a random hub member
    to a new rim player."""
    links = [list(range(h))]
    for j in range(spokes):
        links.append([rng.randrange(h), h + j])
    return h + spokes, links


def _connected(n: int, links: list[list[int]]) -> bool:
    reach, frontier = {0}, [0]
    while frontier:
        p = frontier.pop()
        for e in links:
            if p in e:
                for q in e:
                    if q not in reach:
                        reach.add(q)
                        frontier.append(q)
    return len(reach) == n


def sizes_with_triples(rng: random.Random, m: int, triples: int) -> list[int]:
    sizes = [2] * m
    for j in rng.sample(range(m), triples):
        sizes[j] = 3
    return sizes


# ------------------------------------------------------------ worths


def grow(rng: random.Random, links: list[list[int]], size: int) -> list[int]:
    """A connected player set grown along links until it has at least
    `size` players or cannot grow."""
    members = set(rng.choice(links))
    while len(members) < size:
        touching = [e for e in links if members & set(e) and not set(e) <= members]
        if not touching:
            break
        members |= set(rng.choice(touching))
    return sorted(members)


def characteristic(shape: random.Random, values: random.Random, kind: str,
                   links: list[list[int]]) -> dict:
    n_linked = len({p for e in links for p in e})
    if kind == "unanimity":
        return {"unanimity": grow(shape, links, shape.randint(2, min(4, n_linked)))}
    if kind == "weighted_unanimity":
        supports = set()
        while len(supports) < 4:
            supports.add(tuple(grow(shape, links, shape.randint(2, min(5, n_linked)))))
        return {
            "weighted_unanimity": [
                {"coalition": list(s), "coeff": rational(shape, values)} for s in sorted(supports)
            ]
        }
    coalitions = set()
    while len(coalitions) < 2 * len(links):
        coalitions.add(tuple(grow(shape, links, shape.randint(2, n_linked))))
    return {
        "table": [{"coalition": list(s), "worth": rational(shape, values)}
                  for s in sorted(coalitions)]
    }


def ring_characteristic(shape: random.Random, values: random.Random, kind: str,
                        n: int) -> dict:
    """Worths that depend only on arc lengths, so every rotation of the
    ring maps the game onto itself."""
    if kind == "table":
        arcs = shape.sample(range(2, n + 1), 2)
        return {
            "table": [
                {"coalition": sorted((i + d) % n for d in range(length)), "worth": w}
                for length, w in ((a, rational(shape, values)) for a in arcs)
                for i in range(n if length < n else 1)
            ]
        }
    if kind == "unanimity":
        return {"unanimity": list(range(n))}
    length = shape.randint(2, 4)
    coeff = rational(shape, values)
    supports = {tuple(sorted((i + d) % n for d in range(length))) for i in range(n)}
    return {
        "weighted_unanimity": [{"coalition": list(s), "coeff": coeff} for s in sorted(supports)]
    }


def relabel(rng: random.Random, n: int, isolated: int, links, cf: dict, ring_order=None):
    """Map structural ids 0..n+isolated-1 to random labels; returns the
    document and, for rings, the cyclic order of the labels."""
    total = n + isolated
    label = rng.sample(range(100), total)

    def mapped(ps):
        return sorted(label[p] for p in ps)

    (key, body), = cf.items()
    if key == "unanimity":
        body = mapped(body)
    elif key == "weighted_unanimity":
        body = [{"coalition": mapped(t["coalition"]), "coeff": t["coeff"]} for t in body]
    else:
        body = [{"coalition": mapped(t["coalition"]), "worth": t["worth"]} for t in body]
    links = [mapped(e) for e in links]
    rng.shuffle(links)
    doc = {
        "players": sorted(label[:total]),
        "hyperlinks": links,
        "characteristic": {key: body},
    }
    return doc, (None if ring_order is None else [label[p] for p in ring_order])


def revalue(shape: random.Random, values: random.Random, doc: dict) -> dict:
    """A table game with new labels and new worths on the same coalitions."""
    players = doc["players"]
    index = {p: n for n, p in enumerate(players)}
    entries = [
        {"coalition": [index[p] for p in t["coalition"]], "worth": rational(shape, values)}
        for t in doc["characteristic"]["table"]
    ]
    links = [[index[p] for p in e] for e in doc["hyperlinks"]]
    return relabel(values, len(players), 0, links, {"table": entries})[0]


def make_game(shape: random.Random, values: random.Random, name, family, arg, kind,
              isolated=0) -> dict:
    if family == "ring":
        n, r = arg
        links = ring(n, r)
        cf = ring_characteristic(shape, values, kind, n)
        doc, order = relabel(values, n, isolated, links, cf, ring_order=list(range(n)))
        return {"name": name, "doc": doc, "ring": order}
    if family in ("path", "cycle"):
        m, triples = arg
        n, links = chain(sizes_with_triples(shape, m, triples), closed=family == "cycle")
    elif family == "tree":
        m, triples = arg
        n, links = tree(shape, sizes_with_triples(shape, m, triples))
    elif family == "sizes":
        n, links = tree(shape, list(arg))
    elif family == "closed":
        n, links = chain(list(arg), closed=True)
    elif family == "dense":
        n, m = arg
        links = dense(shape, n, m)
    else:  # hub
        n, links = hub(shape, *arg)
    cf = characteristic(shape, values, kind, links)
    doc, _ = relabel(values, n, isolated, links, cf)
    return {"name": name, "doc": doc, "ring": None}


# ------------------------------------------------------------ workloads
# Slots: (family, structure argument, worth kind, isolated players).

SPARSE = [
    ("ring", (14, 2), "unanimity", 0),
    ("tree", (12, 0), "table", 0),
    ("path", (12, 0), "unanimity", 0),
    ("cycle", (12, 0), "weighted_unanimity", 0),
    ("ring", (12, 3), "table", 0),
    ("tree", (11, 0), "unanimity", 0),
    ("cycle", (11, 0), "table", 0),
    ("ring", (11, 2), "table", 0),
    ("path", (10, 1), "weighted_unanimity", 0),
    ("tree", (10, 1), "table", 0),
    ("cycle", (10, 1), "table", 0),
    ("cycle", (10, 0), "unanimity", 1),
    ("cycle", (10, 0), "table", 1),
    ("ring", (10, 2), "unanimity", 0),
    ("cycle", (10, 0), "weighted_unanimity", 0),
    ("tree", (10, 0), "weighted_unanimity", 0),
    ("path", (10, 0), "unanimity", 0),
    ("ring", (10, 3), "weighted_unanimity", 0),
    ("tree", (10, 0), "table", 0),
    ("cycle", (10, 1), "weighted_unanimity", 0),
    ("ring", (10, 2), "table", 0),
    ("path", (10, 0), "table", 0),
]

DENSE = [
    ("dense", (9, 14), "weighted_unanimity", 0),
    ("dense", (9, 13), "table", 0),
    ("dense", (8, 13), "unanimity", 0),
    ("dense", (9, 12), "table", 0),
    ("dense", (8, 12), "weighted_unanimity", 0),
    ("dense", (9, 12), "unanimity", 0),
    ("dense", (8, 12), "table", 0),
    ("dense", (9, 11), "weighted_unanimity", 0),
    ("dense", (8, 11), "unanimity", 0),
    ("dense", (9, 11), "table", 0),
    ("dense", (8, 11), "weighted_unanimity", 0),
    ("dense", (9, 11), "unanimity", 0),
    ("dense", (8, 11), "table", 0),
    ("dense", (9, 11), "weighted_unanimity", 0),
    ("dense", (8, 11), "unanimity", 0),
    ("dense", (9, 11), "table", 0),
    ("dense", (8, 11), "weighted_unanimity", 0),
    ("dense", (9, 11), "unanimity", 0),
    ("dense", (8, 11), "table", 0),
    ("dense", (9, 11), "weighted_unanimity", 0),
    ("dense", (8, 11), "unanimity", 0),
    ("dense", (9, 11), "table", 0),
]

EXPANSIONS = [
    ("sizes", (2, 2, 2, 3), "table", 1),
    ("sizes", (2, 2, 3, 3), "weighted_unanimity", 0),
    ("closed", (2, 3, 2, 3), "unanimity", 0),
    ("sizes", (3, 3, 3, 3), "table", 0),
    ("ring", (5, 3), "weighted_unanimity", 0),
    ("sizes", (2, 2, 2, 2, 2, 2), "unanimity", 0),
    ("closed", (2, 2, 2, 2, 2, 2), "table", 0),
    ("sizes", (2, 2, 2, 2), "weighted_unanimity", 1),
]

AXIOM_GAMES = [
    ("ring", (10, 2), "weighted_unanimity", 0),
    ("ring", (9, 3), "table", 0),
    ("ring", (8, 2), "table", 0),
    ("ring", (7, 3), "unanimity", 0),
    ("ring", (6, 2), "weighted_unanimity", 1),
    ("hub", (4, 6), "table", 0),
    ("hub", (3, 7), "unanimity", 0),
    ("hub", (4, 5), "weighted_unanimity", 1),
    ("hub", (3, 5), "table", 0),
]

CORPUS_GAMES = 80


def _slot_games(workload, values, prefix, slots):
    return [
        make_game(random.Random(f"{workload}/slot{n}"), values, f"{prefix}{n:02d}", *slot)
        for n, slot in enumerate(slots)
    ]


def generate(workload: str, seed: int, hypercoop=None, scale: int = 1):
    """Return (games, tasks) for one workload and seed.

    `hypercoop` is the imported package; only the axioms workload uses it,
    for `corpus.game_corpus` and `cli.game_to_document`.  A `scale` above 1
    keeps every scale-th slot and a scale-th of the corpus, for the quick
    test.
    """
    values = random.Random(f"{workload}/{seed}")
    if workload in ("tables_sparse", "tables_dense"):
        slots = SPARSE if workload == "tables_sparse" else DENSE
        games = _slot_games(workload, values, "g", slots[::scale])
        tasks = [
            (g, ["value", "--rule", rule])
            for g in range(len(games))
            for rule in ("position", "myerson")
        ]
    elif workload == "expansions":
        games = _slot_games(workload, values, "x", EXPANSIONS[::scale])
        tasks = [
            (g, argv)
            for g in range(len(games))
            for argv in (
                *(["expand", "--k", str(k)] for k in (1, 2, 3, 4)),
                ["verify", "--theorem", "corollary1"],
                ["verify", "--theorem", "lemma1"],
            )
        ]
    elif workload == "axioms":
        games = _slot_games(workload, values, "a", AXIOM_GAMES[::scale])
        corpus = hypercoop.corpus.game_corpus(count=CORPUS_GAMES // scale)
        for n, game in enumerate(corpus):
            shape = random.Random(f"{workload}/corpus{n}")
            doc = revalue(shape, values, hypercoop.cli.game_to_document(game))
            games.append({"name": f"c{n:03d}", "doc": doc, "ring": None})
        tasks = []
        for g, game in enumerate(games):
            tasks.append((g, ["solve-axioms"]))
            tasks.append((g, ["check", "--axiom", "partial-balanced"]))
            tasks.append((g, ["check", "--axiom", "component-efficiency"]))
            # Unweighted balanced contributions hold for the position value
            # when all hyperlinks have one size, as on the rings.
            if game["ring"] is not None:
                tasks.append((g, ["check", "--axiom", "balanced-conference"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return games, tasks
