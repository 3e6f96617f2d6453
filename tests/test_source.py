"""`src/` holds what the commands run: test-only code stays out of it."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wordburst"
TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
TREES = {name: ast.parse(text) for name, text in TEXTS.items()}

# Public names that no other line of the package uses: the collapse measures
# and the dense tail mass that the acceptance checks read, and no output states yet.
ORACLES = {"max_exponential_deviation", "max_pairwise_deviation", "rescaled_survival", "tail_mass"}


def test_public_code_without_a_caller_is_only_the_oracles():
    public = lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    defs = [node for tree in TREES.values() for node in tree.body if public(node)]
    methods = {node.name for cls in defs if isinstance(cls, ast.ClassDef) for node in cls.body if public(node)}
    assert defs and methods  # the scan still finds the definitions it exists to check
    source = "\n".join(TEXTS.values())
    # a name that appears once appears only in its own definition, and a used method is read as .name;
    # by name alone, a method whose name another class's attribute also uses and the dunders go unseen
    unused = {node.name for node in defs if len(re.findall(rf"\b{node.name}\b", source)) == 1}
    assert unused | {name for name in methods if not re.search(rf"\.{name}\b", source)} == ORACLES


def test_every_import_is_used():
    for name, tree in TREES.items():
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used == set(), name
