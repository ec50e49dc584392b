"""Consensus closure of pure Horn clauses, the unit primes (from the stem
table), primality tests, acyclicity analysis, and extraction of the
nonredundant prime base of an acyclic operator.
"""

from __future__ import annotations

from .canonical import remove_redundancy
from .closure import _kernel
from .core import AttrSet, Implication, ImplicationSet, Universe, _set, _Value, bits, unit_expand
from .dualize import StemTable
from .errors import HornkitError, NotAcyclicError, UniverseMismatchError


class HornClause(_Value):
    """A clause with negated literals `negatives` and at most one positive.

    positive is None exactly for negative (impure) clauses.
    """

    __slots__ = _fields = ("negatives", "positive")

    def __init__(self, negatives: AttrSet, positive: int | None):
        if positive is not None:
            negatives.universe._check_position(positive)
            if positive in negatives:
                raise HornkitError("positive literal also occurs negated")
        _set(self, "negatives", negatives)
        _set(self, "positive", positive)

    @property
    def universe(self) -> Universe:
        return self.negatives.universe

    def is_pure(self) -> bool:
        return self.positive is not None

    def subsumes(self, other: HornClause) -> bool:
        return self.negatives.issubset(other.negatives) and self.positive == other.positive

    def key(self):
        return (self.negatives.key(), -1 if self.positive is None else self.positive)

    def to_implication(self) -> Implication:
        u = self.universe
        if self.positive is None:
            raise HornkitError("negative clause has no implication form")
        return Implication(self.negatives, AttrSet(u, 1 << self.positive))

    @classmethod
    def from_implication(cls, imp: Implication) -> HornClause:
        if len(imp.conclusion) != 1:
            raise HornkitError("clause form needs a unit conclusion")
        return cls(negatives=imp.premise, positive=imp.conclusion.positions[0])

    def render(self) -> str:
        u = self.universe
        negs = " ".join(f"-{u.labels[p]}" for p in self.negatives)
        if self.positive is None:
            return negs or "(empty clause)"
        pos = u.labels[self.positive]
        return f"{negs} {pos}".strip()


def clauses_of(sigma: ImplicationSet) -> list[HornClause]:
    """The pure Horn clauses matching the unit expansion of sigma."""
    u = sigma.universe
    return [HornClause(AttrSet(u, p), e) for p, c in sigma.mask_pairs() for e in bits(c & ~p)]


def implications_of(clauses: list[HornClause], universe: Universe) -> ImplicationSet:
    items = tuple(c.to_implication() for c in sorted(clauses, key=HornClause.key))
    return ImplicationSet(universe, items)


def consensus_closure(clauses: list[HornClause]) -> list[HornClause]:
    """All prime implicates of a pure Horn CNF, by consensus to fixpoint with
    eager subsumption pruning. Output is subsumption-free, canonically sorted.
    """
    if not clauses:
        return []
    if any(not c.is_pure() for c in clauses):
        raise HornkitError("consensus closure expects pure Horn clauses")
    u = clauses[0].universe
    u._check(*clauses)
    active: list[tuple[int, int]] = []
    alive: list[bool] = []
    pending: list[tuple[int, int]] = []

    def push(neg: int, pos: int) -> None:
        for i, (n, p) in enumerate(active):
            if alive[i] and p == pos and not n & ~neg:
                return
        for i, (n, p) in enumerate(active):
            if alive[i] and p == pos and not neg & ~n:
                alive[i] = False
        idx = len(active)
        active.append((neg, pos))
        alive.append(True)
        for i in range(idx):
            if alive[i]:
                pending.append((i, idx))

    for cl in clauses:
        push(cl.negatives.mask, cl.positive)
    while pending:
        i, j = pending.pop()
        if not (alive[i] and alive[j]):
            continue
        # the consensus needs exactly one opposite-literal pair, which must
        # be the positive of one clause occurring negated in the other
        (n1, p1), (n2, p2) = active[i], active[j]
        if n2 >> p1 & 1 and not n1 >> p2 & 1:
            push((n1 | n2) & ~(1 << p1), p2)
        elif n1 >> p2 & 1 and not n2 >> p1 & 1:
            push((n1 | n2) & ~(1 << p2), p1)
    out = [HornClause(AttrSet(u, neg), pos) for (neg, pos), ok in zip(active, alive) if ok]
    out.sort(key=HornClause.key)
    return out


def unit_primes(sigma: ImplicationSet) -> ImplicationSet:
    """All unit prime implicates of sigma's operator: stem -> e for each
    stem and each of its roots, the clauses consensus_closure would reach
    from sigma's, in the same order: the unit expansion of the stem table's
    canonical direct base, which ``direct.d_basis`` reads too. That base
    lists its premises in ``AttrSet.key`` order and each premise's roots
    ascend, so the units are already in ``Implication.key`` order.
    """
    return unit_expand(StemTable.of(sigma).direct_base())


def is_prime_implicate(sigma: ImplicationSet, clause: HornClause | Implication) -> bool:
    """Implicate whose every literal is needed.

    Dropping the positive literal of a pure Horn clause never leaves an
    implicate (E is always a model), so primality reduces to the premise
    being minimal. Each check, of the premise and of the premise less one
    element, runs sigma's shared LinClosure only until the positive
    literal is in.
    """
    sigma.universe._check(clause)
    if isinstance(clause, Implication):
        clause = HornClause.from_implication(clause)
    if clause.positive is None:
        return False
    lin = _kernel(sigma, "lin")
    prem = clause.negatives.mask
    target = 1 << clause.positive
    if not lin(target, prem) & target:
        return False
    for a in bits(prem):
        if lin(target, prem & ~(1 << a)) & target:
            return False
    return True


class ImplicationGraph(_Value):
    """Digraph on universe positions with an arc a -> b per implication
    having a in the premise and b in the conclusion; ``succ[a]`` is the mask
    of the arc targets of a."""

    __slots__ = _fields = ("universe", "succ")

    def __init__(self, universe: Universe, succ: tuple[int, ...]):
        if len(succ) != universe.size or any(t & ~universe.full_mask for t in succ):
            raise UniverseMismatchError("graph arcs outside its universe")
        self._init(universe, succ)

    @classmethod
    def from_sigma(cls, sigma: ImplicationSet) -> ImplicationGraph:
        succ = [0] * sigma.universe.size
        for prem, conc in sigma.mask_pairs():
            for a in bits(prem):
                succ[a] |= conc
        return cls(sigma.universe, tuple(succ))

    def find_cycle(self) -> tuple[int, ...] | None:
        """A directed cycle as a position walk (first == last), or None.

        Depth-first search with an explicit stack, so long chains need no
        recursion.
        """
        n = self.universe.size
        color = [0] * n  # 0 new, 1 on the path, 2 done
        for root in range(n):
            if color[root]:
                continue
            color[root] = 1
            path = [root]
            todo = [self.succ[root]]  # successors of path[i] not yet tried
            while path:
                rest = todo[-1]
                if not rest:
                    color[path.pop()] = 2
                    todo.pop()
                    continue
                low = rest & -rest
                todo[-1] = rest ^ low
                w = low.bit_length() - 1
                if color[w] == 1:
                    return tuple(path[path.index(w):]) + (w,)
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    todo.append(self.succ[w])
        return None

    def reachable_from(self, a: int) -> int:
        self.universe._check_position(a)
        seen = 1 << a
        frontier = self.succ[a]
        while frontier & ~seen:
            new = frontier & ~seen
            seen |= new
            frontier = 0
            for v in bits(new):
                frontier |= self.succ[v]
        return seen


def is_acyclic(sigma: ImplicationSet) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the operator is acyclic, i.e. the implication graph of its
    prime implicates has no directed cycle; returns a witness cycle when not.

    An acyclic graph of sigma itself settles it without listing primes:
    every element of a prime stem of e reaches e in that graph, so the
    prime graph lies inside its transitive closure. A cyclic presentation
    can still denote an acyclic operator, so a cycle there is checked
    against the primes.
    """
    if ImplicationGraph.from_sigma(sigma).find_cycle() is None:
        return True, None
    primes = unit_primes(sigma)
    cycle = ImplicationGraph.from_sigma(primes).find_cycle()
    return cycle is None, cycle


def acyclic_base(sigma: ImplicationSet) -> ImplicationSet:
    """The unique nonredundant unit base of prime implicates of an acyclic
    operator.

    Works from the complete prime set (always a base), so it also covers
    acyclic operators handed in through a presentation whose own implication
    graph is cyclic; there a non-prime unit of the input need not be
    redundant and could not simply be dropped.
    """
    primes = unit_primes(sigma)
    cycle = ImplicationGraph.from_sigma(primes).find_cycle()
    if cycle is not None:
        raise NotAcyclicError(f"operator has prime-implicate cycle {cycle}")
    return remove_redundancy(primes)
