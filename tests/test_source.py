"""`src/` holds what the commands run: test-only code stays out of it."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wordburst"

# Public names that no other line of the package uses: the references that
# tests check the pipeline against (closed forms, the box-allocation null,
# per-word gaps and the collapse measures).
ORACLES = {
    "dispersion_ratio",
    "max_exponential_deviation",
    "max_pairwise_deviation",
    "pdf",
    "poisson_null_ensemble",
    "rescaled_survival",
    "waiting_times",
}


def test_public_code_without_a_caller_is_only_the_oracles():
    texts = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    public = {node.name for text in texts for node in ast.parse(text).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert public  # the scan still finds the definitions it exists to check
    source = "\n".join(texts)
    # a name that appears once appears only in its own definition
    assert {name for name in public if len(re.findall(rf"\b{name}\b", source)) == 1} == ORACLES
