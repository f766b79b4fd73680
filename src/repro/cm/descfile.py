"""Group description files -- the §9 "makefile" surface of the IRM.

"The simplest--highest level--interface of this is a simple 'makefile'
system ... The makefile lists the names of source files ... and the
names of other makefiles (for the libraries it uses)."

The format (one directive per line, ``--`` comments)::

    group calculator
    members
      token.sml
      lexer.sml
      parser.sml
    imports
      ../stdlib/stdlib.cm

Member paths are relative to the description file; imported ``.cm``
files are loaded recursively (diamonds are shared, cycles rejected).
:func:`load_group_file` returns a :class:`repro.cm.group.Group` plus a
:class:`repro.cm.project.Project` holding every reachable source.
"""

from __future__ import annotations

import os

from repro.cm.group import Group
from repro.cm.project import Project


class DescFileError(Exception):
    """A malformed or cyclic group description."""


def parse_desc(text: str, origin: str = "<string>"):
    """Parse a description file's text.

    Returns (group name, member file names, imported .cm paths).
    """
    name: str | None = None
    members: list[str] = []
    imports: list[str] = []
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("group"):
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise DescFileError(
                    f"{origin}:{lineno}: 'group' needs a name")
            if name is not None:
                raise DescFileError(
                    f"{origin}:{lineno}: duplicate 'group' directive")
            name = parts[1].strip()
        elif lowered == "members":
            section = "members"
        elif lowered == "imports":
            section = "imports"
        elif section == "members":
            members.append(line)
        elif section == "imports":
            imports.append(line)
        else:
            raise DescFileError(
                f"{origin}:{lineno}: unexpected line {line!r} before a "
                f"'members'/'imports' section")
    if name is None:
        raise DescFileError(f"{origin}: missing 'group <name>' directive")
    return name, members, imports


def load_group_file(path: str, project: Project | None = None,
                    _loading: dict | None = None) -> tuple[Group, Project]:
    """Load a ``.cm`` description file and everything it imports.

    All sources land in one shared :class:`Project` (member unit names
    are the source files' base names); the returned :class:`Group`
    mirrors the import hierarchy.
    """
    if project is None:
        project = Project()
    if _loading is None:
        _loading = {}

    path = os.path.abspath(path)
    state = _loading.get(path)
    if state == "in-progress":
        raise DescFileError(f"group import cycle through {path}")
    if isinstance(state, Group):
        return state, project

    _loading[path] = "in-progress"
    with open(path, encoding="utf-8") as f:
        name, members, imports = parse_desc(f.read(), origin=path)

    base_dir = os.path.dirname(path)
    subgroups = []
    for import_path in imports:
        subgroup, _ = load_group_file(
            os.path.join(base_dir, import_path), project, _loading)
        subgroups.append(subgroup)

    member_units = []
    for member in members:
        member_path = os.path.join(base_dir, member)
        if not os.path.exists(member_path):
            raise DescFileError(
                f"{path}: member {member} does not exist")
        unit_name = os.path.splitext(os.path.basename(member))[0]
        with open(member_path, encoding="utf-8") as f:
            source = f.read()
        if unit_name in project:
            if project.source(unit_name) != source:
                raise DescFileError(
                    f"{path}: unit name collision on {unit_name}")
        else:
            project.add(unit_name, source)
        member_units.append(unit_name)

    group = Group(name, member_units, imports=subgroups)
    _loading[path] = group
    return group, project
