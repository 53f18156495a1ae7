"""The placement control loop: watch fill + heat, schedule migrations.

Each round (:meth:`Rebalancer.rebalance_once`, run by
``cluster.rebalance_once()``) asks three questions, in priority order:

1. **Fill imbalance** -- is the gap between the fullest and emptiest
   allocatable node's fill fraction above the threshold?  If so, shed
   the *coldest* mapped segments of the donor (moving cold data evens
   capacity without perturbing the hot set) until roughly half the gap
   is closed.
2. **Hotness skew** -- is one node's decayed access heat more than
   ``hot_skew_threshold`` times the active-node mean?  If so, move its
   *hottest* segments to the coldest node, spreading the serving load.
3. **Cut edges** -- with fill and heat both quiet, are traversals still
   crossing nodes?  The heat map's sampled *successor edges* form a
   segment-affinity graph; an edge whose endpoints live on different
   nodes is a cut edge, costing one switch hop plus a transport
   checkpoint per crossing.  Greedily move the segment with the largest
   affinity gain (external edge weight recovered minus internal edge
   weight newly cut) next to its heaviest neighbors, widened to its
   covering chain arena extent so a chain moves whole.  Guarded so a
   move never opens a fill gap the fill phase would immediately revert.

All paths bound work per round (``migrations_per_round``) so a round
never floods the fabric with copies; convergence happens over rounds.
This is also what makes ``cluster.add_node()`` useful: the new node
starts empty and cold, so the very next rounds migrate data onto it.
"""

from __future__ import annotations

from typing import List, Tuple


class Rebalancer:
    """Fill/heat watcher driving the migration engine, one round at a
    time."""

    def __init__(self, engine, heat, params, registry):
        self.engine = engine
        #: the rack-wide :class:`~repro.placement.hotness.HeatMap`
        self.heat = heat
        self.params = params
        self.memory = engine.memory
        self.rangemap = engine.rangemap
        self.rounds = 0
        self.migrations = 0
        self.cut_moves = 0
        registry.gauge("placement.rebalance.rounds", fn=lambda: self.rounds)
        registry.gauge("placement.rebalance.migrations",
                       fn=lambda: self.migrations)
        registry.gauge("placement.rebalance.cut_moves",
                       fn=lambda: self.cut_moves)

    # -- one round ----------------------------------------------------------
    def rebalance_once(self):
        """Simulation process body: one observe-decide-migrate round."""
        self.rounds += 1
        allocator = self.memory.allocator
        active = [n for n in range(self.memory.node_count)
                  if allocator.is_allocatable(n)]
        if len(active) < 2:
            return 0
        fills = allocator.node_fill_fractions()
        donor = max(active, key=lambda n: fills[n])
        receiver = min(active, key=lambda n: fills[n])
        if (fills[donor] - fills[receiver]
                > self.params.fill_imbalance_threshold):
            gap_bytes = (allocator.allocated_bytes(donor)
                         - allocator.allocated_bytes(receiver))
            moved = yield from self._shed(donor, receiver, gap_bytes,
                                          prefer_cold=True,
                                          contract_gap=True)
            return moved

        heat = self.heat.node_heat()
        if heat:
            active_heat = {n: heat.get(n, 0.0) for n in active}
            mean = sum(active_heat.values()) / len(active)
            if mean > 0:
                hottest = max(active, key=lambda n: active_heat[n])
                if (active_heat[hottest] / mean
                        >= self.params.hot_skew_threshold):
                    coldest = min(active, key=lambda n: active_heat[n])
                    moved = yield from self._shed(
                        hottest, coldest,
                        (self.params.migrations_per_round
                         * self.params.segment_bytes),
                        prefer_cold=False)
                    return moved

        if self.params.cut_edge_objective:
            moved = yield from self._cut_phase(active, fills)
            return moved
        return 0

    def _cut_phase(self, active, fills):
        """Co-locate affine segments: greedy cut-edge contraction.

        For every segment incident to a cut edge, the *gain* of moving
        it to a neighbor-owning node is the decayed edge weight it would
        turn internal minus the weight it would newly cut.  Apply the
        best strictly-positive gains (``cut_min_gain`` floors the churn)
        up to ``migrations_per_round``, widening each move to the
        segment's covering chain-arena extent so chains travel whole.
        """
        adjacency = self.heat.adjacency()
        if not adjacency:
            return 0
        allocator = self.memory.allocator
        active_set = set(active)
        segment_bytes = self.params.segment_bytes
        capacity = self.memory.addrspace.node_capacity
        min_fill = min(fills[n] for n in active)
        plans = []  # (-gain, segment, target)
        for segment, neighbors in adjacency.items():
            home = self.rangemap.node_of(segment)
            if home is None or home not in active_set:
                continue
            per_node = {}
            for other, weight in neighbors.items():
                owner = self.rangemap.node_of(other)
                if owner is not None:
                    per_node[owner] = per_node.get(owner, 0.0) + weight
            internal = per_node.get(home, 0.0)
            for target, external in per_node.items():
                if target == home or target not in active_set:
                    continue
                gain = external - internal
                if gain <= self.params.cut_min_gain:
                    continue
                plans.append((-gain, segment, target))
        # Deterministic greedy order: best gain first, then segment id.
        plans.sort()
        launched = 0
        moved = 0
        done = set()
        for _neg_gain, segment, target in plans:
            if launched >= self.params.migrations_per_round:
                break
            # Revalidate the gain against *current* ownership: an
            # earlier move this round may have already pulled this
            # segment's neighbors over (or moved the segment itself).
            # Without this, two mutually-affine segments on different
            # nodes both plan a move toward each other, swap places,
            # and ping-pong forever; with it every applied move
            # strictly shrinks the total cut weight, so the greedy
            # loop terminates.
            home = self.rangemap.node_of(segment)
            if home is None or home not in active_set or home == target:
                continue
            internal = 0.0
            external = 0.0
            for other, weight in adjacency.get(segment, {}).items():
                owner = self.rangemap.node_of(other)
                if owner == home:
                    internal += weight
                elif owner == target:
                    external += weight
            if external - internal <= self.params.cut_min_gain:
                continue
            start, end = segment, segment + segment_bytes
            extent = allocator.arena_extent_of(segment)
            if extent is not None:
                # Ship the whole chain arena extent with its segment.
                start = min(start, extent[0])
                end = max(end, extent[1])
            if (start, end) in done:
                continue
            done.add((start, end))
            # The widened span must still be wholly donor-owned (an
            # earlier shear can split an extent across owners).
            owners = {self.rangemap.node_of(x)
                      for x in range(start, end, segment_bytes)}
            owners.add(self.rangemap.node_of(end - 1))
            if owners != {home}:
                continue
            # Fill guard: never open a gap the fill phase would revert.
            grown = fills[target] + (end - start) / capacity
            if grown - min_fill > self.params.fill_imbalance_threshold:
                continue
            launched += 1
            mapped = yield from self.engine.migrate(start, end, target)
            self.migrations += 1
            self.cut_moves += 1
            moved += mapped
            fills = allocator.node_fill_fractions()
            min_fill = min(fills[n] for n in active)
        return moved

    def _shed(self, donor: int, receiver: int, want_bytes: int,
              prefer_cold: bool, contract_gap: bool = False):
        """Migrate up to ``migrations_per_round`` donor segments.

        With ``contract_gap``, ``want_bytes`` is the donor-receiver
        allocation gap and every move must strictly shrink it: moving
        ``s`` bytes turns a gap ``g`` into ``|g - 2s|``, so a piece is
        only shipped while ``s < g``.  Without the guard a segment
        larger than half the gap overshoots, inverts the imbalance, and
        the next round ships the same bytes straight back -- a
        ping-pong that never converges.  The gap is measured in *live*
        bytes, so the arithmetic sizes pieces and credits moves in live
        bytes too -- migrate's mapped-byte total also counts
        freed-but-still-mapped blocks, which do not move the fill needle
        and would fake progress while the gap stays open.
        """
        allocator = self.memory.allocator
        moved = 0
        launched = 0
        for start, end in self._candidates(donor, prefer_cold):
            if moved >= want_bytes:
                break
            if launched >= self.params.migrations_per_round:
                break
            if contract_gap:
                remaining_gap = want_bytes - 2 * moved
                if remaining_gap <= 0:
                    break
                piece_live = allocator.live_bytes_in(start, end)
                if piece_live == 0:
                    # Purely freed space: moving it cannot close a fill
                    # gap, only churn the fabric.
                    continue
                if piece_live >= remaining_gap:
                    # Too coarse for what's left of the gap; a smaller
                    # tail piece later in the list may still fit.
                    continue
            launched += 1
            mapped = yield from self.engine.migrate(start, end, receiver)
            self.migrations += 1
            moved += (self.engine.last_live_bytes if contract_gap
                      else mapped)
        return moved

    def _candidates(self, donor: int,
                    prefer_cold: bool) -> List[Tuple[int, int]]:
        """Donor-owned mapped segments, scored by (heat, external-edge
        weight), tie-broken by segment id.

        The heat phase moves hot pieces first and, among equals, the
        ones with the most *cut-edge* weight -- moving those both sheds
        load and removes switch hops.  The cold/fill phase prefers cold
        pieces with *low* external affinity, so evening capacity avoids
        shearing a chain away from its traversal neighbors.  The segment
        id tie-break makes each round's plan reproducible across
        sharded and unsharded runs (dict/scan order must not decide).
        """
        segment = self.params.segment_bytes
        spans: List[Tuple[float, float, int, int]] = []
        owned = self.rangemap.rules_of(donor)
        table = self.memory.nodes[donor].table
        adjacency = self.heat.adjacency()

        def external(vaddr: int) -> float:
            """Summed weight of the segment's cut edges: neighbors the
            live placement map gives to another node."""
            seg_start = self.heat.segment_of(vaddr)
            home = self.rangemap.node_of(seg_start)
            return sum(
                weight
                for other, weight in adjacency.get(seg_start, {}).items()
                if self.rangemap.node_of(other) != home)

        for entry in table.entries:
            for rule_start, rule_end in owned:
                start = max(entry.virt_start, rule_start)
                end = min(entry.virt_end, rule_end)
                if start >= end:
                    continue
                # Slice large entries at segment granularity so one
                # migration stays small and bounded.
                cursor = start
                while cursor < end:
                    piece_end = min(cursor + segment, end)
                    heat = self.heat.heat_of(cursor)
                    ext = external(cursor)
                    spans.append((heat, ext, cursor, piece_end))
                    cursor = piece_end
        if prefer_cold:
            spans.sort(key=lambda item: (item[0], item[1], item[2]))
        else:
            spans.sort(key=lambda item: (-item[0], -item[1], item[2]))
        return [(start, end) for _heat, _ext, start, end in spans]
