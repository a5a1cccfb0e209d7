"""The benchmark's workloads and the request each one sends.

A request is one query carried end to end the way its workload defines it.
Every call into trpq goes through an attribute of the ``trpq`` package at call
time, so that the traced run's wrappers (see ``tracer.py``) see it.
"""

from __future__ import annotations

from dataclasses import dataclass

import trpq

from gen import DENSE, GraphSpec, graph_text

NO_COMPACTION = "none"
COALESCE = "coalesce"  # coalesce_t / coalesce_d, the unique compact U^t / U^d form
GREEDY = "greedy"  # remove_subsumed, then greedy_reduce: the CLI's --minimize greedy


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: GraphSpec
    tiny: GraphSpec  # the same shape at a size the benchmark's own test can afford
    queries: tuple[str, ...]
    # the request list: one query index per slot, cheapest first.  The middle query fills
    # 3 of the slots, so the median request lies inside its band of latencies
    # rather than in the gap between two queries' bands.
    mix: tuple[int, ...]
    steps: tuple[tuple[str, str], ...]  # (representation, compaction) per answer
    parse: bool = False  # parse the query text inside every request
    ingest: bool = False  # load the graph text and parse the query inside every request

    def spec(self, size: str) -> GraphSpec:
        return self.tiny if size == "tiny" else self.graph


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="join",
            why="join_c bucket joins and their ctuple_valid checks do nearly all "
            "the work: navigation chains over a large graph, no closure, no compaction",
            graph=GraphSpec(nodes=1000, edges=5000, labels=("e", "f"), domain=100, width=4),
            tiny=GraphSpec(nodes=6, edges=14, labels=("e", "f"), domain=12, width=2),
            queries=(
                "e/e/e",
                "e/T[1,3]/e",
                "e/T[1,3]/e/T[1,3]/e",
                "e^-/(<=50)/T[0,5]/e",
                "?(f)/e/!((=n0))",
            ),
            mix=(0, 4, 1, 1, 1, 3, 2),
            steps=(("c", NO_COMPACTION),),
            parse=True,
        ),
        Workload(
            name="closure",
            why="unbounded repetition then subsumption removal and greedy reduction "
            "(the --minimize greedy path): compaction dominates, joins are a small share",
            graph=GraphSpec(nodes=160, edges=320, labels=("e",), domain=100, width=4),
            tiny=GraphSpec(nodes=5, edges=10, labels=("e",), domain=10, width=2),
            queries=("e[1,_]", "(e/T[0,1])[1,_]", "(e/T[0,3])[1,_]"),
            mix=(0, 1, 1, 1, 2),
            steps=(("c", GREEDY),),
        ),
        Workload(
            name="dense",
            why="the join workload's evaluate/join_c code over dense time, where every "
            "endpoint is a Fraction: exact rational arithmetic in intervals dominates",
            graph=GraphSpec(nodes=80, edges=260, labels=("e",), domain=100, width=4, mode=DENSE),
            tiny=GraphSpec(nodes=4, edges=8, labels=("e",), domain=8, width=2, mode=DENSE),
            queries=("e/e", "e/e/(<=50)", "e/T[1,3]/e", "(e/T[1,1])[1,_]", "e^-/T[0,2]/e"),
            mix=(0, 1, 2, 2, 2, 3, 4),
            steps=(("c", NO_COMPACTION),),
        ),
        Workload(
            name="folded",
            why="one trpq eval call per request: graph loading, parsing, eval_t, eval_d "
            "and eval_td with coalescing and greedy reduction, which the c workloads bypass",
            graph=GraphSpec(nodes=60, edges=240, labels=("e", "f"), domain=50, width=4),
            tiny=GraphSpec(nodes=5, edges=12, labels=("e", "f"), domain=10, width=2),
            queries=("?(f)/e", "f[1,2]", "e/T[0,1]/f", "e^-/T[0,2]/f", "e/T[1,3]/f"),
            mix=(0, 1, 2, 2, 2, 3, 4),
            steps=(("t", COALESCE), ("d", COALESCE), ("td", GREEDY)),
            ingest=True,
        ),
    )
}


def graph_seeds(workload: Workload, seed: int) -> list:
    """The generator seed of each graph an instance holds.

    A workload that loads its graph in every request gets one graph per slot
    of its request list, as separate ``trpq eval`` calls on different files
    would; a pass then averages over several graphs instead of one.
    """
    if workload.ingest:
        return [f"{seed}.{slot}" for slot in range(len(workload.mix))]
    return [seed]


@dataclass
class Instance:
    """One workload's generated inputs, loaded and parsed."""

    workload: Workload
    seed: int
    size: str
    graph_texts: list[str]
    graphs: list
    parsed: list


def graph_index(workload: Workload, slot: int) -> int:
    """Which of an instance's graphs the request in ``slot`` uses."""
    return slot if workload.ingest else 0


def make_instance(workload: Workload, seed: int, size: str = "full") -> Instance:
    texts = [graph_text(workload.spec(size), s) for s in graph_seeds(workload, seed)]
    graphs = [trpq.load_graph(text) for text in texts]
    parsed = [trpq.parse_query(q) for q in workload.queries]
    return Instance(workload, seed, size, texts, graphs, parsed)


def _compact(answers, compaction: str):
    if compaction == COALESCE:
        return getattr(trpq, "coalesce_" + answers.kind)(answers)
    if compaction == GREEDY:
        return trpq.greedy_reduce(trpq.remove_subsumed(answers))
    return answers


def run_request(inst: Instance, slot: int) -> list:
    """Send the request in ``slot`` of the request list, end to end.

    Returns one ``(representation, AnswerSet, rendering)`` per step.
    """
    w = inst.workload
    i = w.mix[slot]
    if w.ingest:
        graph = trpq.load_graph(inst.graph_texts[graph_index(w, slot)])
    else:
        graph = inst.graphs[graph_index(w, slot)]
    if w.ingest or w.parse:
        q = trpq.parse_query(w.queries[i])
    else:
        q = inst.parsed[i]
    out = []
    for repr_name, compaction in w.steps:
        answers = _compact(getattr(trpq, "eval_" + repr_name)(graph, q), compaction)
        out.append((repr_name, answers, answers.render()))
    return out
