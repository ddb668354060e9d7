"""Source files, locations, and include resolution.

The PDB format (paper Figure 3) refers to files by id (``so#66``) and to
positions as ``file line column`` triples; every IL construct must preserve
its original source position even through preprocessing and template
instantiation.  :class:`SourceManager` owns all files, assigns stable
ids in registration order, and resolves ``#include`` paths.

Files can be backed by the real filesystem or registered in memory (the
test corpora are in-memory), so the front end runs hermetically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class SourceLocation:
    """A position in a source file (1-based line and column)."""

    file: "SourceFile"
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file.name}:{self.line}:{self.column}"

    def __repr__(self) -> str:
        return f"SourceLocation({self!s})"


@dataclass
class SourceFile:
    """One source file: name, text, and the files it directly includes.

    ``includes`` records the *direct* textual inclusion relationships the
    preprocessor discovered (the PDB ``sinc`` attribute).  ``system`` marks
    files found via angle-bracket search paths (PDB renders their full
    path, cf. ``/pdt/include/kai/vector.h`` in paper Figure 3).
    """

    name: str
    text: str
    system: bool = False
    includes: list["SourceFile"] = field(default_factory=list)

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other

    def location(self, line: int, column: int) -> SourceLocation:
        return SourceLocation(self, line, column)

    def add_include(self, other: "SourceFile") -> None:
        if other not in self.includes:
            self.includes.append(other)


class SourceManager:
    """Owns all source files; resolves and caches includes.

    Resolution order follows the traditional model: quoted includes search
    the including file's directory first, then the ``-I`` path list; angle
    includes search only the path list.  In-memory registrations take
    precedence over the filesystem, letting corpora shadow real headers.
    """

    def __init__(self, include_paths: Optional[list[str]] = None):
        self.include_paths: list[str] = list(include_paths or [])
        self._files: list[SourceFile] = []
        self._by_name: dict[str, SourceFile] = {}

    # -- registration ------------------------------------------------

    def register(self, name: str, text: str, system: bool = False) -> SourceFile:
        """Register an in-memory file; re-registering a name replaces it.

        Re-registering *unchanged* content keeps the existing object —
        include edges and header-cache entries are keyed on SourceFile
        identity, so multi-TU drivers may re-register their corpus per
        TU without invalidating either."""
        old = self._by_name.get(name)
        if old is not None and old.text == text and old.system == system:
            return old
        f = SourceFile(name=name, text=text, system=system)
        if old is not None:
            self._files[self._files.index(old)] = f
        else:
            self._files.append(f)
        self._by_name[name] = f
        return f

    def register_many(self, files: dict[str, str]) -> None:
        for name, text in files.items():
            self.register(name, text)

    # -- lookup ------------------------------------------------------

    @property
    def files(self) -> list[SourceFile]:
        return list(self._files)

    def get(self, name: str) -> Optional[SourceFile]:
        return self._by_name.get(name)

    def load(self, name: str) -> SourceFile:
        """Return the file named ``name``, reading from disk if needed."""
        f = self._by_name.get(name)
        if f is not None:
            return f
        path = Path(name)
        if not path.is_file():
            raise FileNotFoundError(name)
        return self.register(name, path.read_text())

    def resolve_include(
        self, spec: str, angled: bool, including: SourceFile
    ) -> Optional[SourceFile]:
        """Resolve an ``#include`` to a SourceFile, or None if not found."""
        candidates: list[tuple[str, bool]] = []
        if not angled:
            base = str(Path(including.name).parent)
            local = spec if base in ("", ".") else f"{base}/{spec}"
            candidates.append((local, False))
            candidates.append((spec, False))
        for inc in self.include_paths:
            candidates.append((f"{inc.rstrip('/')}/{spec}", True))
        if angled:
            candidates.append((spec, True))
        for cand, is_system in candidates:
            f = self._by_name.get(cand)
            if f is not None:
                return f
            path = Path(cand)
            if path.is_file():
                loaded = self.register(cand, path.read_text(), system=is_system)
                return loaded
        return None

    def inclusion_closure(self, roots: list[SourceFile]) -> list[SourceFile]:
        """All files reachable from ``roots`` via direct includes, in
        deterministic discovery order (roots first)."""
        seen: list[SourceFile] = []
        stack = list(roots)
        while stack:
            f = stack.pop(0)
            if f in seen:
                continue
            seen.append(f)
            stack.extend(inc for inc in f.includes if inc not in seen)
        return seen
