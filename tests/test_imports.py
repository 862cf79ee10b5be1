"""Every name a module of splineflow imports is used in that module, only
the users of the worker pool import it, only the network and the trainer
use the network config, and importing the CLI starts no thread.

The package has no linter to run; this parses each module with `ast`.
`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splineflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression of it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import_and_has_modules_to_scan():
    source = (
        "from dataclasses import dataclass, field\nimport numpy as np\n\n"
        "@dataclass\nclass A:\n    x: np.ndarray\n"
    )
    assert unused_imports(source) == [(1, "field")]
    assert "cli.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set:
    """The splineflow modules the module's relative imports read from."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (alias.name for alias in node.names))
    return names


def test_only_the_row_splits_and_the_trainer_import_the_worker_pool():
    # vector_field and systems each own the floor of their split, and the
    # trainer draws its next batch ahead; the commands report the time
    # their work took and never re-derive the parts or the draw-ahead
    assert package_imports("from .workers import split_rows\nfrom . import workers\n") == {"workers"}
    importers = {p.name for p in MODULES if "workers" in package_imports(p.read_text(encoding="utf-8"))}
    assert importers == {"vector_field.py", "systems.py", "trainer.py"}


def names_used(source: str) -> set:
    """Every name the module reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_only_the_network_and_the_trainer_use_the_network_config():
    # each trainer builds its network from the data and its TrainConfig,
    # so the CLI builds none: it reads checkpoints that carry their config
    for source in ("from .vector_field import MlpConfig\n", "vector_field.MlpConfig(3)\n"):
        assert "MlpConfig" in names_used(source)
    users = {p.name for p in MODULES if "MlpConfig" in names_used(p.read_text(encoding="utf-8"))}
    assert users == {"vector_field.py", "trainer.py"}


def test_importing_the_cli_starts_no_thread_pool():
    # forward_batch makes its worker threads at the first split, never at
    # import: a pool made at import slowed runs whose batches never split
    check = (
        "import sys, threading\n"
        "import splineflow.cli\n"
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures imported'\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
