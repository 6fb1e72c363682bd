"""The library keeps only what it uses.

Every name that ``src/lrsc`` defines (top-level functions and classes,
methods, dataclass fields, and instance attributes set as ``self.name``),
private names included, must be read somewhere outside its own definition:
in the library, in ``scripts/`` or in the benchmark harness under
``perfbench/`` (its tests excluded).  A method or field counts as read
only through an attribute access (``x.name``), so a local variable that
shares its name does not clear it.  The only exceptions are dunder names,
which Python calls, and the ``lrsc`` subcommands, which click calls: a
name the package exports in ``lrsc.__all__`` needs a reader too, since an
export no program reads is a helper that only tests use, and such a
helper belongs in ``tests/conftest.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "lrsc").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts)


def _checked(name):
    return not (name.startswith("__") and name.endswith("__"))


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _is_command(fn):
    # @main.command("name")
    for dec in fn.decorator_list:
        if (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
                and dec.func.attr == "command"):
            return True
    return False


def definitions(path, tree):
    """(name, path, first line, last line, member?) of each non-dunder
    definition, and the names exempt as subcommands."""
    defs, commands = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _checked(node.name):
            defs.append((node.name, path, node.lineno, node.end_lineno, False))
            if isinstance(node, ast.FunctionDef) and _is_command(node):
                commands.add(node.name)
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and _checked(item.name):
                defs.append((item.name, path, item.lineno, item.end_lineno, True))
            elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                  and _is_dataclass(node) and _checked(item.target.id)):
                defs.append((item.target.id, path, item.lineno, item.end_lineno, True))
        attrs = {}      # name -> its first self.name store in the class
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                    and _checked(sub.attr)):
                attrs.setdefault(sub.attr, sub)
        defs += [(name, path, a.lineno, a.end_lineno, True) for name, a in attrs.items()]
    return defs, commands


def references(path, tree):
    """(name, path, line, attribute?) of every name read and attribute
    accessed, but for an attribute read inside the value assigned to an
    attribute of the same name (``self.x = below.x``): that read only
    hands the value on."""
    handed_on = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            stored = {sub.attr for target in node.targets for sub in ast.walk(target)
                      if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)}
            handed_on |= {id(sub) for sub in ast.walk(node.value)
                          if isinstance(sub, ast.Attribute) and sub.attr in stored}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, path, node.lineno, False))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and id(node) not in handed_on):
            out.append((node.attr, path, node.lineno, True))
    return out


def unused_names():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in USERS}
    defs, exempt = [], set()
    for p in LIBRARY:
        d, commands = definitions(p, trees[p])
        defs.extend(d)
        exempt |= commands
    refs = [r for p, tree in trees.items() for r in references(p, tree)]
    unused = []
    for name, path, first, last, member in defs:
        if name in exempt:
            continue
        if not any(rn == name and (attr or not member) and (rp != path or not first <= line <= last)
                   for rn, rp, line, attr in refs):
            unused.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return unused


def test_every_library_name_has_a_non_test_user():
    assert unused_names() == []


def test_guard_sees_a_test_only_helper(tmp_path, monkeypatch):
    # a definition nothing reads is flagged, a private one too, and a read
    # elsewhere clears it; a field or an instance attribute is read only
    # through an attribute, not by a same-named local, nor inside the value
    # assigned to the same attribute
    lib = tmp_path / "lib.py"
    lib.write_text("from dataclasses import dataclass\n\n\n"
                   "def helper():\n    return helper\n\n\ndef used():\n    pass\n\n\n"
                   "def _helper():\n    pass\n\n\n"
                   "@dataclass\nclass Report:\n    shadowed: int\n    read: int\n\n\n"
                   "class Box:\n    def __init__(self, below=None):\n"
                   "        self.unread = 1\n        self.seen = 2\n"
                   "        self.relayed = {**below.relayed, 1: 2} if below else {}\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import Box, Report, used\nused()\n"
                    "shadowed = unread = 1\nprint(shadowed, unread, Report(shadowed, 2).read, Box().seen)\n")
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    monkeypatch.setattr(f"{__name__}.LIBRARY", [lib])
    monkeypatch.setattr(f"{__name__}.USERS", [lib, user])
    assert unused_names() == ["lib.py:4 helper", "lib.py:12 _helper", "lib.py:18 shadowed",
                              "lib.py:24 unread", "lib.py:26 relayed"]
