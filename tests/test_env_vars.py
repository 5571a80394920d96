"""The environment variables ``src/repro`` reads are exactly the README's table.

Every other tunable is a constructor argument or a CLI flag, so a new
variable is a new deployment surface: it needs a row in README.md's
"Environment variables" table, or this test fails.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_reader(name: str) -> bool:
    """``os.getenv`` and the ``env_*`` readers, wrappers and aliases too."""
    name = name.lstrip("_")
    return name == "getenv" or name.startswith("env_")


def _reads_env(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return _is_reader(func.id)
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "get":
        return isinstance(func.value, ast.Attribute) and func.value.attr == "environ"
    return _is_reader(func.attr)


def _literal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def variables_read() -> set[str]:
    """Every ``REPRO_*`` literal read from the environment under src/repro."""
    names = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and node.args and _reads_env(node.func):
                name = _literal(node.args[0])
            elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
                name = _literal(node.slice) if node.value.attr == "environ" else None
            else:
                continue
            if name is not None and name.startswith("REPRO_"):
                names.add(name)
    return names


def variables_documented() -> set[str]:
    """The first-column variables of README.md's environment table."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Environment variables\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, flags=re.MULTILINE))


def test_env_reads_match_the_readme_table():
    read = variables_read()
    assert "REPRO_OBS" in read  # the scan itself finds the master switch
    assert read == variables_documented()
