"""Placement policies: binding stripe slots to physical nodes.

The code layout fixes which *slots* hold which symbols; a placement
policy picks which physical nodes play those slots:

* :class:`RandomSpreadPlacement` — uniform distinct nodes per stripe,
  the behaviour of both of the paper's flat single-rack test beds;
* :class:`RoundRobinPlacement` — deterministic rotation, useful for
  reproducible examples and capacity balancing;
* :class:`RackAwarePlacement` — maps a code's failure domains to racks,
  implementing the paper's note that "in a rack-aware HDFS
  implementation, the two heptagons and the global parity node would be
  placed in three different racks".
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core import Code
from ..core.polygon_local import PolygonLocalCode
from .blocks import PlacementError
from .topology import ClusterTopology


def rack_slot_groups(slot_nodes, topology: ClusterTopology) -> dict[int, tuple[int, ...]]:
    """Rack -> stripe slots a placement put there, in rack order."""
    groups: dict[int, list[int]] = {}
    for slot, node in enumerate(slot_nodes):
        groups.setdefault(topology.rack_of(node), []).append(slot)
    return {rack: tuple(groups[rack]) for rack in sorted(groups)}


def rack_loss_survivability(code: Code, slot_nodes,
                            topology: ClusterTopology) -> dict[int, bool]:
    """Rack -> does the stripe survive losing that whole rack?

    All racks are resolved through **one**
    :meth:`~repro.core.Code.can_recover_many` bulk query (the
    one-at-a-time ``can_recover`` loop this replaces was a ROADMAP open
    item).  For the paper's rack-aware heptagon-local deployment the
    answer is the confinement contract made explicit: the global-parity
    rack is survivable, while losing a whole heptagon rack strands that
    heptagon's doubly-replicated symbols — which is why the paper's
    guarantee is that a rack failure touches at most *one* domain, not
    that rack loss is tolerated outright.
    """
    groups = rack_slot_groups(slot_nodes, topology)
    verdicts = code.can_recover_many(list(groups.values()))
    return {rack: bool(ok) for rack, ok in zip(groups, verdicts)}


class PlacementPolicy(ABC):
    """Strategy choosing the physical nodes for each new stripe."""

    @abstractmethod
    def place_stripe(self, code: Code, topology: ClusterTopology,
                     rng: np.random.Generator) -> tuple[int, ...]:
        """Return one alive node per stripe slot."""


class RandomSpreadPlacement(PlacementPolicy):
    """Uniformly random distinct alive nodes (the paper's flat set-ups)."""

    def place_stripe(self, code: Code, topology: ClusterTopology,
                     rng: np.random.Generator) -> tuple[int, ...]:
        alive = topology.alive_nodes()
        if len(alive) < code.length:
            raise PlacementError(
                f"{code.name} needs {code.length} nodes; only {len(alive)} alive"
            )
        chosen = rng.choice(len(alive), size=code.length, replace=False)
        return tuple(alive[i] for i in chosen)


class RoundRobinPlacement(PlacementPolicy):
    """Deterministic rotation over alive nodes."""

    def __init__(self):
        self._cursor = 0

    def place_stripe(self, code: Code, topology: ClusterTopology,
                     rng: np.random.Generator) -> tuple[int, ...]:
        alive = topology.alive_nodes()
        if len(alive) < code.length:
            raise PlacementError(
                f"{code.name} needs {code.length} nodes; only {len(alive)} alive"
            )
        chosen = tuple(
            alive[(self._cursor + offset) % len(alive)]
            for offset in range(code.length)
        )
        self._cursor = (self._cursor + code.length) % len(alive)
        return chosen


class RackAwarePlacement(PlacementPolicy):
    """Place each failure domain of the code in its own rack.

    For the heptagon-local code the domains are heptagon A, heptagon B
    and the global-parity node; each is placed inside a distinct rack so
    a rack loss hits at most one domain.  Codes without declared domains
    fall back to spreading slots across racks round-robin.

    Domain placements are validated after the deal (``validate=False``
    skips it): every rack must host slots of at most one failure
    domain, and every rack holding only global parities must survive
    its own loss — checked with a single bulk
    :meth:`~repro.core.Code.can_recover_many` query
    (:func:`rack_loss_survivability` offers the full per-rack report).
    """

    def __init__(self, validate: bool = True):
        self.validate = validate

    def place_stripe(self, code: Code, topology: ClusterTopology,
                     rng: np.random.Generator) -> tuple[int, ...]:
        rack_count = topology.rack_count()
        if isinstance(code, PolygonLocalCode):
            groups = code.local_group_slots()
            if rack_count < len(groups):
                raise PlacementError(
                    f"rack-aware heptagon-local needs {len(groups)} racks; "
                    f"cluster has {rack_count}"
                )
            alive_by_rack = {
                rack: [n for n in topology.rack_members(rack)
                       if topology.is_alive(n)]
                for rack in range(rack_count)
            }
            # Capacity-aware matching: biggest domain to biggest rack, so
            # a [7, 7, 3] cluster sends the heptagons to the 7-node racks
            # and the global node to the small one.  Ties break randomly.
            domains = sorted(groups.items(), key=lambda item: -len(item[1]))
            rack_order = sorted(
                alive_by_rack, key=lambda rack: (-len(alive_by_rack[rack]),
                                                 rng.random()))
            assignment: dict[int, int] = {}
            for (group, slots), rack in zip(domains, rack_order):
                members = alive_by_rack[rack]
                if len(members) < len(slots):
                    raise PlacementError(
                        f"rack {rack} has {len(members)} alive nodes; "
                        f"domain {group} needs {len(slots)}"
                    )
                picks = rng.choice(len(members), size=len(slots), replace=False)
                for slot, pick in zip(slots, picks):
                    assignment[slot] = members[pick]
            chosen = tuple(assignment[slot] for slot in range(code.length))
            if self.validate:
                self.validate_domains(code, groups, chosen, topology)
            return chosen
        return self._deal_across_racks(code, topology, rng)

    def validate_domains(self, code: Code, domains: dict[str, tuple[int, ...]],
                         slot_nodes: tuple[int, ...],
                         topology: ClusterTopology) -> None:
        """The paper's rack contract, checked with one bulk query.

        A rack failure must touch at most one failure domain, and a
        rack holding only global parities (the "G" domain) must be
        survivable — that rack is the one whose loss the layout
        promises to absorb outright.
        """
        owner = {slot: name for name, slots in domains.items()
                 for slot in slots}
        global_racks: dict[int, tuple[int, ...]] = {}
        for rack, slots in rack_slot_groups(slot_nodes, topology).items():
            owners = {owner[slot] for slot in slots}
            if len(owners) > 1:
                raise PlacementError(
                    f"rack {rack} hosts slots of domains {sorted(owners)}; "
                    "a rack failure must touch at most one domain"
                )
            if owners == {"G"}:
                global_racks[rack] = slots
        if global_racks:
            verdicts = code.can_recover_many(list(global_racks.values()))
            for rack, ok in zip(global_racks, verdicts):
                if not ok:
                    raise PlacementError(
                        f"losing global-parity rack {rack} would lose data"
                    )

    def _deal_across_racks(self, code: Code, topology: ClusterTopology,
                           rng: np.random.Generator) -> tuple[int, ...]:
        # Generic fallback: deal slots across racks like cards.
        per_rack = {
            rack: [n for n in topology.rack_members(rack) if topology.is_alive(n)]
            for rack in range(topology.rack_count())
        }
        for members in per_rack.values():
            rng.shuffle(members)
        chosen: list[int] = []
        rack_order = list(per_rack)
        rng.shuffle(rack_order)
        while len(chosen) < code.length:
            progressed = False
            for rack in rack_order:
                if per_rack[rack]:
                    chosen.append(per_rack[rack].pop())
                    progressed = True
                    if len(chosen) == code.length:
                        break
            if not progressed:
                raise PlacementError(
                    f"{code.name} needs {code.length} nodes; cluster exhausted"
                )
        return tuple(chosen)


def make_placement(name: str) -> PlacementPolicy:
    """Factory: 'random', 'round-robin' or 'rack-aware'."""
    policies = {
        "random": RandomSpreadPlacement,
        "round-robin": RoundRobinPlacement,
        "rack-aware": RackAwarePlacement,
    }
    try:
        return policies[name]()
    except KeyError:
        raise KeyError(
            f"unknown placement {name!r}; known: {', '.join(policies)}"
        ) from None
