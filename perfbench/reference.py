"""Reference computations that do not come from the code under test.

These are the benchmark's own, deliberately plain, versions of the facts it
checks jck's answers against: atom counts of propositional skeletons, syntax
tree sizes, reachability closures, the mutations that must be rejected, and
a model evaluator that reads evidence facts from an oracle fact set.
"""

from __future__ import annotations

from jck import syntax
from jck.syntax import And, Imp, Just, Neg, Or, Prop

_CHILDREN = {
    syntax.Prop: (), syntax.Const: (), syntax.Var: (),
    syntax.Neg: ("body",), syntax.And: ("left", "right"),
    syntax.Or: ("left", "right"), syntax.Imp: ("left", "right"),
    syntax.Just: ("term", "body"),
    syntax.Bang: ("t",), syntax.Proj: ("t",), syntax.Head: ("t",),
    syntax.Tail: ("t",), syntax.Sum: ("t", "s"), syntax.App: ("t", "s"),
    syntax.Ind: ("t", "s"),
}


def _children(node) -> list:
    if isinstance(node, syntax.Tuple):
        return list(node.items)
    return [getattr(node, name) for name in _CHILDREN[type(node)]]


def skeleton_atoms(a) -> int:
    """Distinct maximal atoms (atoms and justified assertions) of a formula's
    propositional skeleton."""
    atoms = set()
    stack = [a]
    while stack:
        f = stack.pop()
        if isinstance(f, (Prop, Just)):
            atoms.add(f)
        elif isinstance(f, Neg):
            stack.append(f.body)
        else:
            stack.append(f.left)
            stack.append(f.right)
    return len(atoms)


def tree_nodes(roots, size: dict[int, int] | None = None) -> int:
    """Total tree size (formula and term nodes) of the given formulas,
    counting shared subtrees once per occurrence.  `size` memoizes subtree
    sizes by id across calls on nodes that stay alive between them."""
    if size is None:
        size = {}
    total = 0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in size:
                continue
            kids = _children(node)
            if expanded:
                size[id(node)] = 1 + sum(size[id(k)] for k in kids)
            else:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in size)
        total += size[id(root)]
    return total


# ---------------------------------------------------------------------------
# frames


def reflexive_transitive(edges, worlds) -> frozenset:
    """Reachability by paths of length >= 0, one search per world."""
    succ: dict[int, list[int]] = {w: [] for w in worlds}
    for w, v in edges:
        succ[w].append(v)
    out = set()
    for w in worlds:
        seen = {w}
        todo = [w]
        while todo:
            for v in succ[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        out.update((w, v) for v in seen)
    return frozenset(out)


def transitive(pairs, worlds) -> frozenset:
    """Reachability by paths of length >= 1."""
    succ: dict[int, list[int]] = {w: [] for w in worlds}
    for w, v in pairs:
        succ[w].append(v)
    out = set()
    for w in worlds:
        seen = set()
        todo = list(succ[w])
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(succ[v])
        out.update((w, v) for v in seen)
    return frozenset(out)


class ReferenceFrame:
    """A generated frame: the agent relations closed here, from the edges the
    benchmark wrote into the model file, not from the parsed model."""

    def __init__(self, h: int, n_worlds: int, edges: dict[int, set], valuation: dict):
        self.worlds = range(n_worlds)
        self.valuation = valuation
        self.agent = {i: reflexive_transitive(edges[i], self.worlds)
                      for i in range(1, h + 1)}
        union = frozenset().union(*self.agent.values())
        self.every = union
        self.common = transitive(union, self.worlds)

    def relation(self, sort) -> frozenset:
        if sort.is_agent:
            return self.agent[sort.index]
        return self.every if sort == syntax.E else self.common

    def holds(self, facts, w: int, a) -> bool:
        """Satisfaction with evidence read from `facts`, a set of
        (world, term, formula) triples."""
        if isinstance(a, Prop):
            return w in self.valuation.get(a.index, ())
        if isinstance(a, Neg):
            return not self.holds(facts, w, a.body)
        if isinstance(a, And):
            return self.holds(facts, w, a.left) and self.holds(facts, w, a.right)
        if isinstance(a, Or):
            return self.holds(facts, w, a.left) or self.holds(facts, w, a.right)
        if isinstance(a, Imp):
            return (not self.holds(facts, w, a.left)) or self.holds(facts, w, a.right)
        return (w, a.term, a.body) in facts and all(
            self.holds(facts, v, a.body)
            for (u, v) in self.relation(a.sort) if u == w)


# ---------------------------------------------------------------------------
# derivation mutations

MUTATION_KINDS = ("mp", "taut", "hyp")


def mutate(text: str, n_hyps: int, rules: list[str], kind: str, pick) -> tuple[str, int, str]:
    """Rewrite one step of a printed derivation so the kernel must reject it.

    `rules` lists each step's rule kind ("hyp", "taut", "axiom", "mp",
    "axnec").  Returns (mutated text, failing step, expected status):

    - mp:   the step's formula F becomes ~(F); its premises still prove F, so
            modus ponens fails (BadMP);
    - taut: a Taut step's tautology T becomes ~(T), which is never a
            tautology (NotAnAxiom);
    - hyp:  a hypothesis step points past the last hypothesis (BadHypIndex).

    Earlier steps are untouched, so the mutated step is the first failure.
    Falls back to the next kind when the derivation has no step of `kind`.
    """
    lines = text.splitlines()
    start = MUTATION_KINDS.index(kind)
    for offset in range(len(MUTATION_KINDS)):
        kind = MUTATION_KINDS[(start + offset) % len(MUTATION_KINDS)]
        steps = [k for k, r in enumerate(rules, start=1) if r == kind]
        if steps:
            break
    k = pick(steps)
    row = n_hyps + k - 1
    head, rule = lines[row].rsplit(" ; ", 1)
    formula = head.split(". ", 1)[1]
    if kind == "hyp":
        lines[row] = f"{k}. {formula} ; hyp {n_hyps + 1}"
        status = "BadHypIndex"
    else:
        lines[row] = f"{k}. ~({formula}) ; {rule}"
        status = "BadMP" if kind == "mp" else "NotAnAxiom"
    return "\n".join(lines) + "\n", k, status
