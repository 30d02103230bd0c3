"""Structure rules of src/: one cap guard, one S_n table, one adjacency
layout, one family realisation and the rest, one row each, plus the
unused-import scan of src/ and tests/.

A row is (regex, the file it guards or None for every file, the files or
scopes where a match is allowed, a planted line that breaks it).  Every *.py
under src/ is read line by line as text, comments and strings included.  A
line's scope is its innermost enclosing def or class, dotted from the module
(`FamilySpec._masks`, `_free_trees.ahu`); a line at module level has none.
Each row passes on the tree and reports its planted line, appended to the
file it guards (cli.py for a row over every file).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TREE = {p.relative_to(ROOT / "src").as_posix(): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
SCANNED = {p.relative_to(ROOT).as_posix(): p.read_text()
           for p in [*(ROOT / "src" / "treefam").glob("*.py"), *(ROOT / "tests").glob("*.py")]}

RULES = {
    # python -O strips asserts, so a check that certifies a result raises
    "no bare assert": (r"^\s*assert\b", None, (), "assert n > 0"),
    # trees._check_cap builds every CapExceeded; other modules call it
    "one cap guard": (r"CapExceeded\(", None, ("treefam/trees.py",), "CapExceeded('cap', 1)"),
    # gamma.packing_number certifies a packing by matroid partition at any n
    "one packing routine": (r"iter_set_partitions|packing_cap", None, (), "packing_cap = 9"),
    # spread._least_product is the closed form of the worst sub-forest
    "one worst sub-forest": (r"_extend\(|_sub_choice\(", None, (), "_sub_choice(1)"),
    # trees.SimpleGraph holds the one edge-set constructor and immutability guard
    "one edge-set type": (r"object.__setattr__\(", None, ("treefam/trees.py",), "object.__setattr__(g, 'n', 1)"),
    # gamma._edge_image_bits is the one table of the n! vertex relabellings
    "one S_n table": (r"permutations\(", None, ("_edge_image_bits",), "perms = permutations(range(4))"),
    # D_t reads vertex partitions, and its witness is the spider-star pair
    "D_t reads no S_n table": (r"_edge_image_bits\(", "treefam/extremal.py", (), "_edge_image_bits(5)"),
    "D_t ranks no witness": (r"_prufer_ranks\(", None, (), "_prufer_ranks(codes)"),
    # gamma._spanning_tree_masks is the one walk; enumerate_spanning_trees wraps it
    "one spanning-tree walk": (r"enumerate_spanning_trees\(", None, ("enumerate_spanning_trees",),
                               "ts = enumerate_spanning_trees(g)"),
    # gamma._rows builds every adjacency; only the search's rows and orbits are ints
    "one adjacency layout, ints": (r"int\.from_bytes\(", "treefam/gamma.py",
                                   ("_max_clique_bitset", "_orbit_and_stabiliser"),
                                   "row = int.from_bytes(b, 'little')"),
    "one adjacency layout, matrix": (r"mask_matrix\(", "treefam/gamma.py", ("_rows",), "mat = mask_matrix([1])"),
    # FamilySpec._masks is the only code that selects members from the tree universe
    "one family realisation": (r"tree_mask_array\(|edge_hits\(", "treefam/extremal.py", ("FamilySpec._masks",),
                               "hits = edge_hits(5, [(1, 2)])"),
    # enumeration recounts live in tests/enumeration_oracle.py
    "test oracles stay in the tests": (r'star_masks|is_adjacent|"enum"', None, (), 'how = "enum"'),
}


def _scopes(text: str) -> list:
    """Each line's innermost enclosing def or class by line number, "" at module level."""
    scopes = [""] * (len(text.splitlines()) + 1)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                scopes[child.lineno:child.end_lineno + 1] = [name] * (child.end_lineno - child.lineno + 1)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(text), "")
    return scopes


def _violations(rule: str, files: dict) -> list:
    """The lines of `files` (path -> text) that break `rule`, as path:line: text."""
    pattern, guarded, allowed, _ = RULES[rule]
    bad = []
    for path, text in files.items():
        if guarded not in (None, path) or path in allowed:
            continue
        hits = [(i, line) for i, line in enumerate(text.splitlines(), 1) if re.search(pattern, line)]
        scopes = _scopes(text) if hits else ()
        bad += [f"{path}:{i}: {line}" for i, line in hits if scopes[i] not in allowed]
    return bad


def _unused_imports(files: dict) -> list:
    """Top-level imports never read as a name in their file; __init__.py re-exports."""
    bad = []
    for path, text in sorted(files.items()):
        if path.endswith("__init__.py"):
            continue
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [f"{path}:{node.lineno}: {name}" for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for name in (a.asname or a.name.split(".")[0] for a in node.names)
                if name not in read]
    return bad


@pytest.mark.parametrize("rule", RULES)
def test_rule_holds_on_the_tree(rule):
    bad = _violations(rule, TREE)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("rule", RULES)
def test_rule_reports_a_planted_violation(rule):
    _, guarded, _, line = RULES[rule]
    path = guarded or "treefam/cli.py"
    text = TREE[path] + line + "\n"
    assert _violations(rule, {**TREE, path: text}) == [f"{path}:{len(text.splitlines())}: {line}"]


def test_scopes_come_from_the_ast():
    # a column-0 continuation line stays in its def; a nested def is its own scope
    text = "def f(a,\nb):\n    def g():\n        pass\n    x = 1\nclass C:\n    def m(self):\n        pass\ny = 2\n"
    assert _scopes(text)[1:] == ["f", "f", "f.g", "f.g", "f", "C", "C.m", "C.m", ""]


def test_no_unused_imports():
    assert _unused_imports(SCANNED) == []


def test_unused_import_scan_reports_a_planted_import():
    text = "import os\n" + SCANNED["src/treefam/cli.py"]
    assert _unused_imports({**SCANNED, "src/treefam/cli.py": text}) == ["src/treefam/cli.py:1: os"]
