"""Polynomial solvers for linear codes without holes.

Three algorithms over the sample chain: the greedy furthest-use eviction
(optimal for unit costs), a min-cost-flow formulation of the weighted
problem (the clique matrix of an interval hypergraph is totally
unimodular, so the flow optimum is the integral optimum), and the
incremental dynamic program that lowers Maxlive by exactly one.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import accumulate

from .errors import WrongShapeError
from .model import (LINEAR, NOHOLES, bits, empty_solution, pressure,
                    run_starts, spill_solution)


def _require_linear(instance, what):
    if instance.shape != LINEAR:
        raise WrongShapeError(f"{what} handles linear codes only")


def greedy_furthest(instance, r):
    """Belady eviction: at the first over-pressured point, drop the live
    variable ending furthest. Optimal in cardinality for unit weights;
    weights are ignored for decisions but reported in the cost."""
    instance.require_sound("greedy_furthest")
    _require_linear(instance, "greedy_furthest")
    if r < 0:
        raise ValueError("register count r must be >= 0")
    # per bit, the sample its range ends at; live-out ranges end past the
    # block, so they are always preferred at equal ends
    end = [len(instance.samples) if v in instance.liveout else e
           for v, (_, e) in zip(instance.var_ids, instance.spans)]
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
    return spill_solution(instance, spilled, pressure(instance, spilled, NOHOLES),
                          "greedy", steps)


def _flow_solve(instance, r):
    """Returns (spill mask, flow per bit over its variable arc, dijkstra
    pops).

    A node per segment boundary of the sample chain, a chain arc per
    segment (capacity omega, cost 0) and an arc per variable over
    its span (capacity 1, cost minus its weight); a flow of value r keeps
    the variables whose arcs carry a unit. The empty flow is optimal at
    value 0, and the all-kept flow (chain arc i carrying omega - live_i)
    at value omega, where weights > 0 leave every residual cost >= 0.
    From the nearer one, each Dijkstra search pushes flow from the first
    node s to the last node t, or back from t to s, stops once it settles
    its sink and caps every other potential at the sink's distance.
    """
    spans = instance.spans
    coords = sorted({0, len(instance.samples)}.union(
        *((s, e + 1) for s, e in spans)))
    node = {c: i for i, c in enumerate(coords)}
    n = len(coords)
    arcs = [(node[s], node[e + 1], w)
            for (s, e), w in zip(spans, instance.int_weights)]
    load = [0] * n  # live variables over segment i, as differences first
    for a, b, _ in arcs:
        load[a] += 1
        load[b] -= 1
    load = list(accumulate(load))
    omega = instance.omega
    forward = r <= omega - r  # from the empty flow, else the all-kept one

    # arc e runs to head[e] with residual capacity cap[e]; arc e ^ 1 is
    # its reverse, and arc 2j is bit j's variable arc, arcs[j]
    head, cap, cost = [], [], []
    out = [[] for _ in range(n)]
    for a, b, w in arcs:
        out[a].append(len(head))
        out[b].append(len(head) + 1)
        head += (b, a)
        cap += (1, 0) if forward else (0, 1)
        cost += (-w, w)
    for i in range(n - 1):
        out[i].append(len(head))
        out[i + 1].append(len(head) + 1)
        head += (i + 1, i)
        cap += (omega, 0) if forward else (load[i], omega - load[i])
        cost += (0, 0)
    pot = [0] * n
    if forward:  # valid potentials: shortest distances in the DAG
        for a in range(n):
            for e in out[a]:
                if cap[e] and pot[a] + cost[e] < pot[head[e]]:
                    pot[head[e]] = pot[a] + cost[e]
    s, t, want = (0, n - 1, r) if forward else (n - 1, 0, omega - r)

    pops = 0
    while want > 0:  # t is reachable while the flow is between 0 and omega
        dist = [float("inf")] * n
        via = [-1] * n  # the arc each node was reached by
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, v = heappop(heap)
            pops += 1
            if v == t:
                break
            if d > dist[v]:
                continue
            d += pot[v]
            for e in out[v]:
                if cap[e]:
                    u = head[e]
                    nd = d + cost[e] - pot[u]
                    if nd < dist[u]:
                        dist[u] = nd
                        via[u] = e
                        heappush(heap, (nd, u))
        top = dist[t]
        for v in range(n):
            pot[v] += min(dist[v], top)
        path = []
        v = t
        while v != s:
            path.append(via[v])
            v = head[via[v] ^ 1]
        push = min([want] + [cap[e] for e in path])
        for e in path:
            cap[e] -= push
            cap[e ^ 1] += push
        want -= push

    flows = cap[1:2 * len(arcs):2]
    return sum(1 << b for b, f in enumerate(flows) if not f), flows, pops


def weighted_optimal(instance, r):
    """Minimum-weight spill set with pressure <= r everywhere, via min-cost
    flow on the sample chain; exact integral optimum by total unimodularity.

    The flow starts from whichever known optimum is nearer to r, the
    empty flow or the all-kept flow, so it runs at most min(r, omega - r)
    shortest-path searches: one at r = omega - 1. `steps` counts the heap
    pops of those searches. Raises MalformedCodeError on an instance
    that is not sound (Instance.problem).
    """
    instance.require_sound("weighted_optimal")
    _require_linear(instance, "weighted_optimal")
    if r < 0:
        raise ValueError("register count r must be >= 0")
    if instance.omega <= r:
        return empty_solution(instance, NOHOLES, "flow")
    spilled, flows, steps = _flow_solve(instance, r)
    assert all(x in (0, 1) for x in flows)
    return spill_solution(instance, spilled, pressure(instance, spilled, NOHOLES),
                          "flow", steps)


def incremental_cover_dp(instance):
    """Lower Maxlive by one at minimum weight.

    Only the points at full pressure matter; the optimum is a minimum
    weighted cover of those points by live ranges, solved left to right:
    W(p) = min over v live at p of w(v) + W(pred[start(v)]). Raises
    MalformedCodeError on an instance that is not sound.
    """
    instance.require_sound("incremental_cover_dp")
    _require_linear(instance, "incremental_cover_dp")
    omega = instance.omega
    if omega == 0:
        return empty_solution(instance, NOHOLES, "dp-cover")
    live = instance.live_masks
    start = [s for s, _ in instance.spans]
    peaks = [i for i in run_starts(live) if live[i].bit_count() == omega]

    # best[k]: (cost, chosen bit, predecessor peak index) covering peaks 0..k
    best = []
    steps = 0
    for i in peaks:
        cand = None
        for b in bits(live[i]):
            steps += 1
            pred = bisect_left(peaks, start[b]) - 1
            below = best[pred][0] if pred >= 0 else 0
            c = instance.int_weights[b] + below
            if cand is None or c < cand[0]:
                cand = (c, b, pred)
        best.append(cand)

    spilled = 0
    k = len(peaks) - 1
    while k >= 0:
        _, b, pred = best[k]
        spilled |= 1 << b
        k = pred
    return spill_solution(instance, spilled, pressure(instance, spilled, NOHOLES),
                          "dp-cover", steps)
