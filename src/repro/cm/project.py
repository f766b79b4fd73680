"""Projects: the source files under the compilation manager's care.

Sources live in memory with a *logical clock* standing in for file
mtimes; every add/edit advances the clock, making timestamp-based build
decisions deterministic and testable (no real-filesystem mtime
granularity games).  :meth:`Project.from_directory` loads ``.sml`` files
from disk for the runnable examples.  Sources are read as UTF-8 whatever
the locale, as the build daemon reads them: source digests key bin
records, so every front end must decode a file the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class _SourceFile:
    name: str
    text: str
    version: int  # logical mtime


class Project:
    """A named collection of unit sources with edit tracking."""

    def __init__(self):
        self._files: dict[str, _SourceFile] = {}
        self.clock = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        project = cls()
        for name in sorted(sources):
            project.add(name, sources[name])
        return project

    @classmethod
    def from_directory(cls, path: str, suffix: str = ".sml") -> "Project":
        project = cls()
        for entry in sorted(os.listdir(path)):
            if entry.endswith(suffix):
                with open(os.path.join(path, entry),
                          encoding="utf-8") as f:
                    project.add(entry[: -len(suffix)], f.read())
        return project

    # -- editing --------------------------------------------------------

    def _tick(self) -> int:
        self.clock += 1
        return self.clock

    def add(self, name: str, text: str) -> None:
        if name in self._files:
            raise ValueError(f"unit {name} already exists")
        self._files[name] = _SourceFile(name, text, self._tick())

    def edit(self, name: str, text: str) -> None:
        """Replace a unit's source (bumps its logical mtime even if the
        text is unchanged -- exactly what ``touch`` does to make)."""
        f = self._files[name]
        f.text = text
        f.version = self._tick()

    def touch(self, name: str) -> None:
        self.edit(name, self._files[name].text)

    def remove(self, name: str) -> None:
        del self._files[name]
        self._tick()

    # -- queries --------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._files)

    def source(self, name: str) -> str:
        return self._files[name].text

    def version(self, name: str) -> int:
        return self._files[name].version

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def __len__(self) -> int:
        return len(self._files)

    def total_lines(self) -> int:
        return sum(f.text.count("\n") + 1 for f in self._files.values())

    def __repr__(self) -> str:
        return f"<project {len(self._files)} units, clock={self.clock}>"
