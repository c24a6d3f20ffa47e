"""Polynomial solvers for linear codes without holes.

Three algorithms over the sample chain: the greedy furthest-use eviction
(optimal for unit costs), a min-cost-flow formulation of the weighted
problem (the clique matrix of an interval hypergraph is totally
unimodular, so the flow optimum is the integral optimum), and the
incremental dynamic program that lowers Maxlive by exactly one.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import UnsupportedModeError, WrongShapeError
from .model import (LINEAR, NOHOLES, MaskView, SpillSolution, bits,
                    check_mode, pressure, run_starts)


def _require_linear_noholes(instance, mode, what):
    check_mode(mode)
    if instance.shape != LINEAR:
        raise WrongShapeError(f"{what} handles linear codes only")
    if mode != NOHOLES:
        raise UnsupportedModeError(f"{what} is defined without holes only")


def _solution(instance, spilled, algorithm, steps):
    spilled = frozenset(spilled)
    return SpillSolution(
        spilled=spilled,
        cost=instance.cost_of(spilled),
        achieved_omega=pressure(instance, spilled, NOHOLES).max_pressure,
        algorithm=algorithm,
        steps=steps,
        mode=NOHOLES,
    )


def greedy_furthest(instance, r, mode=NOHOLES):
    """Belady eviction: at the first over-pressured point, drop the live
    variable ending furthest. Optimal in cardinality for unit weights;
    weights are ignored for decisions but reported in the cost."""
    _require_linear_noholes(instance, mode, "greedy_furthest")
    if r < 0:
        raise ValueError("register count r must be >= 0")
    # per bit, the sample its range ends at; live-out ranges end past the
    # block, so they are always preferred at equal ends
    end = [len(instance.samples) if v in instance.liveout
           else instance.spans.get(v, (0, 0))[1] for v in instance.var_ids]
    live = instance.live_masks
    spilled = 0
    steps = 0
    for i in run_starts(live):
        active = live[i] & ~spilled
        steps += 1
        for _ in range(active.bit_count() - r):
            # furthest end; the first such bit is the least id
            victim = 1 << max(bits(active), key=end.__getitem__)
            spilled |= victim
            active ^= victim
            steps += 1
    spilled = instance.decode(spilled)
    return _solution(instance, spilled, "greedy", steps)


class _MinCostFlow:
    """Successive shortest paths with potentials, integer arithmetic."""

    INF = float("inf")

    def __init__(self, n):
        self.n = n
        self.graph = [[] for _ in range(n)]
        self.pops = 0

    def add_edge(self, a, b, cap, cost):
        self.graph[a].append([b, cap, cost, len(self.graph[b])])
        self.graph[b].append([a, 0, -cost, len(self.graph[a]) - 1])

    def min_cost_flow(self, s, t, maxflow, potentials):
        import heapq

        h = list(potentials)  # valid initial potentials (graph is a DAG)
        flow = 0
        while flow < maxflow:
            dist = [self.INF] * self.n
            prevv = [-1] * self.n
            preve = [-1] * self.n
            dist[s] = 0
            pq = [(0, s)]
            while pq:
                d, v = heapq.heappop(pq)
                self.pops += 1
                if d > dist[v]:
                    continue
                for ei, e in enumerate(self.graph[v]):
                    to, cap, cost, _ = e
                    if cap <= 0:
                        continue
                    nd = d + cost + h[v] - h[to]
                    if nd < dist[to]:
                        dist[to] = nd
                        prevv[to] = v
                        preve[to] = ei
                        heapq.heappush(pq, (nd, to))
            if dist[t] == self.INF:
                break
            for v in range(self.n):
                if dist[v] < self.INF:
                    h[v] += dist[v]
            push = maxflow - flow
            v = t
            while v != s:
                push = min(push, self.graph[prevv[v]][preve[v]][1])
                v = prevv[v]
            v = t
            while v != s:
                e = self.graph[prevv[v]][preve[v]]
                e[1] -= push
                self.graph[v][e[3]][1] += push
                v = prevv[v]
            flow += push
        return flow


def _flow_solve(instance, r):
    """Returns (kept set, flow per variable arc, dijkstra pops)."""
    view = MaskView(instance)
    spans = instance.spans
    n_samples = len(instance.samples)

    coords = {0, n_samples}
    for s, e in spans.values():
        coords.update((s, e + 1))
    coords = sorted(coords)
    node = {c: i for i, c in enumerate(coords)}

    f = _MinCostFlow(len(coords))
    for i in range(len(coords) - 1):
        f.add_edge(i, i + 1, r, 0)
    var_edge = {}
    for v, w in zip(view.order, view.weights):
        s, e = spans[v]
        a, b = node[s], node[e + 1]
        var_edge[v] = (a, len(f.graph[a]))
        f.add_edge(a, b, 1, -w)

    # initial potentials: shortest distances in the DAG, nodes in order
    pot = [0] * len(coords)
    for a in range(len(coords)):
        for e in f.graph[a]:
            to, cap, cost, _ = e
            if cap > 0 and pot[a] + cost < pot[to]:
                pot[to] = pot[a] + cost
    f.min_cost_flow(0, len(coords) - 1, r, pot)

    flows = {}
    kept = set()
    for v, (a, ei) in var_edge.items():
        used = 1 - f.graph[a][ei][1]  # cap 1 minus residual
        flows[v] = used
        if used:
            kept.add(v)
    return kept, flows, f.pops


def weighted_optimal(instance, r, mode=NOHOLES):
    """Minimum-weight spill set with pressure <= r everywhere, via min-cost
    flow on the sample chain; exact integral optimum by total unimodularity."""
    _require_linear_noholes(instance, mode, "weighted_optimal")
    if r < 0:
        raise ValueError("register count r must be >= 0")
    if instance.omega <= r:
        return _solution(instance, frozenset(), "flow", 0)
    kept, flows, steps = _flow_solve(instance, r)
    assert all(x in (0, 1) for x in flows.values())
    spilled = set(instance.variables) - kept
    return _solution(instance, spilled, "flow", steps)


def incremental_cover_dp(instance, mode=NOHOLES):
    """Lower Maxlive by one at minimum weight.

    Only the points at full pressure matter; the optimum is a minimum
    weighted cover of those points by live ranges, solved left to right:
    W(p) = min over v live at p of w(v) + W(pred[start(v)]).
    """
    _require_linear_noholes(instance, mode, "incremental_cover_dp")
    omega = instance.omega
    if omega == 0:
        return _solution(instance, frozenset(), "dp-cover", 0)
    view = MaskView(instance)
    live = instance.live_masks
    peaks = [i for i in run_starts(live) if live[i].bit_count() == omega]

    # best[k]: (cost, chosen bit, predecessor peak index) covering peaks 0..k
    best = []
    steps = 0
    for i in peaks:
        cand = None
        for b in bits(live[i]):
            steps += 1
            pred = bisect_left(peaks, instance.spans[view.order[b]][0]) - 1
            below = best[pred][0] if pred >= 0 else 0
            c = view.weights[b] + below
            if cand is None or c < cand[0]:
                cand = (c, b, pred)
        best.append(cand)

    spilled = 0
    k = len(peaks) - 1
    while k >= 0:
        _, b, pred = best[k]
        spilled |= 1 << b
        k = pred
    return _solution(instance, view.decode(spilled), "dp-cover", steps)
