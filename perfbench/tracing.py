"""Spans around the program's public functions, installed from outside.

`Tracer.install` replaces every public function of each hypercoop module,
and the public methods of its classes, with a wrapper that records a span
(name, start, end, parent) and adds its duration to per-(name, parent)
totals.  The wrapper is also put in place of every module-level name and
dict value that held the original, so ``from .x import f`` call sites go
through it.  `uninstall` puts every original back.

The union-find primitives are not wrapped: a call costs less than the
wrapper, and `components` / `merge_groups` already bound that work.

Totals cover every call.  Spans are kept for the first traced round, and
only down to SPAN_DEPTH (task, cli.main, handler, library entry points and
their direct callees); deeper calls are counted in the totals alone.
"""

from __future__ import annotations

import inspect
import math
from time import perf_counter

LAYERS = ("cli", "model", "connectivity", "shapley", "solutions", "expansion", "axioms", "corpus")
UNWRAPPED_CLASSES = {"UnionFind"}
SPAN_DEPTH = 5
ROOT = "task"


def outermost(stats, names) -> tuple[int, float]:
    """Calls and inclusive time of spans in `names` not nested directly in
    another span of `names`."""
    calls, total = 0, 0.0
    for (name, parent), (n, incl, _self) in stats.items():
        if name in names and parent not in names:
            calls += n
            total += incl
    return calls, total


def _agent_form_states(game) -> int:
    """States the agent-form product loops enumerate: one sub-block per
    (player, hyperlink) of eta/|e| copies; the pivot's peers are pinned
    for a presence step and its hyperlink mates for a completion step."""
    links = game.hyperlinks
    eta = math.lcm(*(len(e) for e in links))
    classes = [(i, n, eta // len(e)) for n, e in enumerate(links) for i in e]
    total = 0
    for j0, (i0, l0, size0) in enumerate(classes):
        others = [c for j, c in enumerate(classes) if j != j0]
        if size0 == 1:
            total += math.prod(s + 1 for _, _, s in others)
        else:
            total += math.prod(1 if i == i0 else s + 1 for i, _, s in others)
            total += math.prod(1 if ln == l0 else s + 1 for _, ln, s in others)
    return total


def _blockwise_states(block_sizes, completion_sizes, *_args, **_kwargs) -> int:
    total = 0
    for b0, size in enumerate(block_sizes):
        if 0 <= completion_sizes[b0] - 1 <= size - 1:
            total += math.prod(s + 1 for j, s in enumerate(block_sizes) if j != b0)
    return total


PROBES = {
    "shapley.shapley_by_subsets": ("shapley.coalitions", lambda game, *a, **k: 1 << len(game.players)),
    "expansion.block_symmetric_shapley": ("expansion.states", _blockwise_states),
    "expansion.agent_form_payoffs": ("expansion.states", lambda game, *a, **k: _agent_form_states(game)),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = [["", 0.0, -1]]  # name, time in children, span index
        self.stats: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[list] | None = None
        self.task = 0
        self._restore: list[tuple] = []

    # -------------------------------------------------------- recording

    def reset(self, keep_spans: bool) -> None:
        self.stats = {}
        self.counts = {}
        self.spans = [] if keep_spans else None

    def run(self, task: int, fn, *args):
        """Call fn(*args) as the root span of one task."""
        self.task = task
        return self._wrap(fn, ROOT)(*args)

    def _wrap(self, fn, name: str):
        tracer = self
        stack = self.stack
        probe = PROBES.get(name)
        wraps_result = name == "expansion.conference_mask_worth"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, -1]
            spans = tracer.spans
            if spans is not None and len(stack) <= SPAN_DEPTH:
                frame[2] = len(spans)
                spans.append([name, parent[2], 0.0, 0.0, tracer.task])
            if probe is not None:
                key, count = probe
                tracer.counts[key] = tracer.counts.get(key, 0) + count(*args, **kwargs)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[1] += dur
                entry = tracer.stats.get((name, parent[0]))
                if entry is None:
                    tracer.stats[(name, parent[0])] = [1, dur, dur - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += dur - frame[1]
                if frame[2] >= 0:
                    spans[frame[2]][2:4] = [t0, t0 + dur]
            if wraps_result:
                result = tracer._wrap(result, name + ".worth")
            return result

        return wrapper

    # -------------------------------------------------------- install

    def install(self, package) -> None:
        wrappers: dict = {}
        modules = [getattr(package, layer) for layer in LAYERS]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__name__ not in UNWRAPPED_CLASSES:
                    self._install_methods(obj, f"{layer}.{attr}")
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._restore.append((obj, key, value))
                            obj[key] = wrappers[value]

    def _install_methods(self, cls, prefix: str) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, f"{prefix}.{attr}"))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore = []

    # -------------------------------------------------------- metrics

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded since the last reset."""
        s = self.stats

        def calls(*names):
            return outermost(s, set(names))[0]

        def incl(*names):
            return outermost(s, set(names))[1]

        def self_time(match):
            return sum(v[2] for (name, _p), v in s.items() if match(name))

        checkers = {
            "axioms.check_component_efficiency",
            "axioms.check_balanced_link_contributions",
            "axioms.check_balanced_conference_contributions",
            "axioms.check_partial_balanced_conference_contributions",
        }
        rules = {"solutions.position_value", "solutions.myerson_value", "shapley.shapley_by_subsets"}
        components = (
            "connectivity.components",
            "connectivity.components_of_coalition",
            "connectivity.partial_components",
            "connectivity.merge_groups",
        )
        out = {
            "cli.parse_calls": (calls("cli.parse_game"), "count"),
            "cli.parse_s": (incl("cli.parse_game"), "s"),
            "cli.handler_self_s": (self_time(lambda n: n.startswith("cli.handle_")), "s"),
            "model.worth_calls": (calls("model.CharacteristicFunction.worth"), "count"),
            "model.worth_s": (incl("model.HypergraphGame.worth",
                                   "model.CharacteristicFunction.worth"), "s"),
            "connectivity.components_calls": (calls(*components), "count"),
            "connectivity.components_s": (incl(*components), "s"),
            "shapley.subset_calls": (calls("shapley.shapley_by_subsets"), "count"),
            "shapley.coalitions": (self.counts.get("shapley.coalitions", 0), "count"),
            "shapley.table_s": (s.get(("shapley.TUGame.worth", "shapley.shapley_by_subsets"),
                                      [0, 0.0])[1], "s"),
            "shapley.kernel_self_s": (self_time(lambda n: n == "shapley.shapley_by_subsets"), "s"),
            "solutions.position_calls": (calls("solutions.position_value"), "count"),
            "solutions.position_s": (incl("solutions.position_value"), "s"),
            "solutions.myerson_calls": (calls("solutions.myerson_value"), "count"),
            "solutions.myerson_s": (incl("solutions.myerson_value"), "s"),
            "expansion.blockwise_calls": (calls("expansion.block_symmetric_shapley"), "count"),
            "expansion.states": (self.counts.get("expansion.states", 0), "count"),
            "expansion.blockwise_s": (incl("expansion.block_symmetric_shapley"), "s"),
            "expansion.agent_form_s": (incl("expansion.agent_form_payoffs"), "s"),
            "expansion.mask_worth_calls": (calls("expansion.conference_mask_worth.worth"), "count"),
            "axioms.recursion_s": (incl("axioms.value_from_axioms"), "s"),
            "axioms.linear_systems": (calls("axioms.solve_linear_system"), "count"),
            "axioms.linear_solve_s": (incl("axioms.solve_linear_system"), "s"),
            "axioms.pair_report_s": (incl(*(checkers - {"axioms.check_component_efficiency"})), "s"),
            "axioms.rule_calls": (sum(v[0] for (name, parent), v in s.items()
                                      if name in rules and parent in checkers), "count"),
            "axioms.copy_deletion_s": (incl("axioms.check_copy_deletion"), "s"),
        }
        for layer in LAYERS:
            if layer == "corpus":  # runs in set-up only; see corpus.generate_s
                continue
            out[f"{layer}.self_s"] = (self_time(lambda n, p=layer + ".": n.startswith(p)), "s")
        out["trace.calls"] = (sum(v[0] for v in s.values()), "count")
        return out

    def dump(self) -> dict:
        """Totals per (name, parent) and the kept spans, for the trace file."""
        return {
            "functions": [
                {"name": name, "parent": parent, "calls": n, "total_s": incl, "self_s": own}
                for (name, parent), (n, incl, own) in sorted(self.stats.items())
            ],
            "counts": self.counts,
            "spans": [
                {"name": name, "parent": parent, "start": start, "end": end, "task": task}
                for name, parent, start, end, task in (self.spans or [])
            ],
        }
