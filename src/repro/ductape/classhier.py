"""Class hierarchy (paper Section 3.3 / pdbtree)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.ductape.items import PdbClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.ductape.pdb import PDB


class ClassHierarchy:
    """The inheritance forest over a PDB's classes."""

    def __init__(self, pdb: "PDB"):
        self.pdb = pdb
        self.classes = pdb.getClassVec()
        #: classes with no bases — hierarchy roots
        self.roots = [c for c in self.classes if not c.baseClasses()]
        #: memo for :meth:`depth_of` (class ref -> depth)
        self._depths: dict = {}

    def derived(self, cls: PdbClass) -> list[PdbClass]:
        return cls.derivedClasses()

    def walk(self, root: PdbClass) -> Iterator[tuple[PdbClass, int]]:
        """DFS yielding (class, depth) down the derived-class edges.

        A class reached again (diamonds, malformed cycles) is yielded
        but not expanded twice.  The traversal is an explicit-stack DFS,
        so inheritance chains deeper than Python's recursion limit walk
        like any other."""
        yield root, 0
        seen = {root.ref}
        stack: list[tuple[Iterator[PdbClass], int]] = [(iter(self.derived(root)), 1)]
        while stack:
            children, depth = stack[-1]
            c = next(children, None)
            if c is None:
                stack.pop()
                continue
            yield c, depth
            if c.ref in seen:
                continue
            seen.add(c.ref)
            stack.append((iter(self.derived(c)), depth + 1))

    def depth_of(self, cls: PdbClass) -> int:
        """Longest base-class chain above ``cls``.

        Memoized — a diamond hierarchy revisits shared bases once, not
        2^depth times — and iterative, with a cycle guard: malformed
        base-class data (``A -> B -> A``) raises ``ValueError`` naming
        the cycle instead of blowing the recursion limit.
        """
        memo = self._depths
        if cls.ref in memo:
            return memo[cls.ref]
        visiting: set = set()
        # (class, its bases, next base index) — post-order evaluation
        stack = [(cls, [b for _, _, b in cls.baseClasses()], 0)]
        visiting.add(cls.ref)
        while stack:
            c, bases, i = stack.pop()
            while i < len(bases):
                b = bases[i]
                if b.ref in memo:
                    i += 1
                    continue
                if b.ref in visiting:
                    cycle = " -> ".join(
                        [x.fullName() for x, _, _ in stack]
                        + [c.fullName(), b.fullName()]
                    )
                    raise ValueError(f"class hierarchy cycle: {cycle}")
                stack.append((c, bases, i))
                stack.append((b, [bb for _, _, bb in b.baseClasses()], 0))
                visiting.add(b.ref)
                break
            else:
                memo[c.ref] = (
                    1 + max(memo[b.ref] for b in bases) if bases else 0
                )
                visiting.discard(c.ref)
        return memo[cls.ref]

    def render(self) -> str:
        lines: list[str] = []
        for root in self.roots:
            for c, depth in self.walk(root):
                indent = "    " * depth
                arrow = "`--> " if depth else ""
                lines.append(f"{indent}{arrow}{c.fullName()}")
        return "\n".join(lines)
