"""System-of-distinct-representatives solver over color lists.

Hall's theorem made algorithmic via maximum bipartite matching between set
indices and elements.  When no transversal exists the solver returns an
explicit violating index set I with |I| > |union of its sets|, found as the
indices reachable by alternating paths from an unsaturated index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadInput, HallFailure
from .coloring import PartialColoring
from .graph import BunchStructure, Graph


@dataclass(frozen=True)
class SetFamily:
    """Finite family of sets A(1)..A(s) over the color universe [k]."""

    sets: tuple[frozenset[int], ...]
    universe: int

    def __post_init__(self):
        for i, a in enumerate(self.sets):
            bad = [e for e in a if not (1 <= e <= self.universe)]
            if bad:
                raise BadInput(f"set {i} has elements outside [1, {self.universe}]: {bad}")

    @staticmethod
    def of(sets, universe: int) -> "SetFamily":
        return SetFamily(tuple(frozenset(s) for s in sets), universe)

    @property
    def s(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class TransversalResult:
    """Either an injective assignment index -> element, or a Hall violator."""

    assignment: dict[int, int] | None
    violator: frozenset[int] | None

    @property
    def found(self) -> bool:
        return self.assignment is not None


def find_transversal(fam: SetFamily) -> TransversalResult:
    """Maximum matching via augmenting paths, ascending color scan.

    Deterministic for a fixed input order.  Saturating matching yields the
    assignment; otherwise the violator is the alternating-reachable index
    set from the first unsaturated index.
    """
    match_of_elem: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for e in sorted(fam.sets[i]):
            if e in seen:
                continue
            seen.add(e)
            if e not in match_of_elem or augment(match_of_elem[e], seen):
                match_of_elem[e] = i
                return True
        return False

    matched_index: dict[int, int] = {}
    for i in range(fam.s):
        if not augment(i, set()):
            # Alternating BFS from i: reachable indices and elements.
            index_set = {i}
            elems: set[int] = set()
            frontier = [i]
            while frontier:
                nxt = []
                for j in frontier:
                    for e in fam.sets[j]:
                        if e not in elems:
                            elems.add(e)
                            owner = match_of_elem.get(e)
                            if owner is not None and owner not in index_set:
                                index_set.add(owner)
                                nxt.append(owner)
                frontier = nxt
            # Every reachable element is matched (else i would augment), so
            # |I| = |elems| + 1 > |union A(j)| = |elems|.
            return TransversalResult(assignment=None, violator=frozenset(index_set))
    matched_index = {i: e for e, i in match_of_elem.items()}
    return TransversalResult(assignment=matched_index, violator=None)


def build_bunch_lists(
    c: PartialColoring, g: Graph, bs: BunchStructure, t: int
) -> SetFamily:
    """Available-color lists for bunch t (1-based), universe [d].

    L(v) = [d] \\ ({t} union colors already on N[v]).  Requires bunches with
    smaller index fully colored and bunch t fully uncolored.
    """
    d = bs.d
    if any(c.color(v) is not None for v in bs.bunches[t - 1]):
        raise BadInput(f"bunch {t} already (partially) colored")
    for earlier in range(t - 1):
        if any(c.color(v) is None for v in bs.bunches[earlier]):
            raise BadInput(
                f"bunch {earlier + 1} not fully colored before bunch {t}"
            )
    # Bunch t is uncolored (checked above), so only N(v) takes colors away;
    # None, an uncolored neighbor, is not in full.
    full = set(range(1, d + 1)) - {t}
    colors = c._colors
    lists = [full.difference(map(colors.__getitem__, g.adj[v]))
             for v in bs.bunches[t - 1]]
    return SetFamily.of(lists, d)


def color_bunch(c: PartialColoring, g: Graph, bs: BunchStructure, t: int) -> PartialColoring:
    """Color bunch t bijectively with [d] \\ {t}, making x_t a b-vertex.

    Mutates and returns c.  Raises HallFailure with the violating index set
    when the lists admit no transversal.  The graph must be d-regular, so
    that the bunch has d-1 vertices: the transversal is injective and takes
    its values in [d] \\ {t}, which has d-1 colors, so it is a bijection.
    """
    fam = build_bunch_lists(c, g, bs, t)
    res = find_transversal(fam)
    if not res.found:
        raise HallFailure(res.violator, f"color-bunch {t}")
    for i, v in enumerate(bs.bunches[t - 1]):
        c.assign(v, res.assignment[i], g)
    return c
