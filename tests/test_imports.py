"""Every name a module of splineflow imports is used in that module, every
public function, class and method it defines is read by the package, only
the users of the worker pool import it, only the network and the trainer
use the network config, the CLI names and prepares every output file
through one helper, from one list of output flags, and never calls repr,
and importing the CLI starts no thread.

The package has no linter to run; this parses each module with `ast`.
`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splineflow import cli

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


# Public names that nothing in src/ reads, each kept by a span site of the
# benchmark (ROADMAP item 4), with the reason it stays
UNREAD_KEPT = {
    # the Fornberg reference the knot stencils are tested against; the
    # benchmark's stencil.fd_weights span wraps it
    "stencil.fd_weights",
    # training draws through InterpolantSampler._draw; the benchmark's
    # interpolant.sample_batch span wraps this method
    "interpolant.InterpolantSampler.sample_batch",
}


def public_definitions(source: str) -> list:
    """The module's public functions and classes, and their public methods as Class.method."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{inner.name}" for inner in node.body
                if isinstance(inner, ast.FunctionDef) and not inner.name.startswith("_")
            ]
    return names


def unread_definitions(sources: dict) -> list:
    """module.name of each public definition of `sources` (module -> source) that none reads."""
    used = set().union(*(names_used(source) for source in sources.values()))
    return sorted(
        f"{module}.{name}" for module, source in sources.items()
        for name in public_definitions(source) if name.rsplit(".", 1)[-1] not in used
    )


def test_the_definition_scan_finds_what_only_tests_read():
    # planted and C.unread stand for API that only a test, which is not scanned, calls
    sources = {
        "a": "def kept():\n    pass\ndef planted():\n    pass\ndef _private():\n    pass\n"
             "class C:\n    def read(self):\n        pass\n    def unread(self):\n        pass\n",
        "b": "from .a import kept\nkept()\nC().read()\n",
    }
    assert unread_definitions(sources) == ["a.C.unread", "a.planted"]


def test_every_public_definition_is_read_by_the_package():
    # a public function only tests call is API kept for them alone (ROADMAP aim 2)
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_definitions(sources) == sorted(UNREAD_KEPT)


# The flags that say where a command writes, which its fingerprint leaves out
OUTPUT_KEYS = set(cli.OUTPUT_FLAGS)


def options_key(node):
    """The constant key that `options[key]` or `options.get(key, ...)` reads, else None."""
    if isinstance(node, ast.Subscript):
        target, key = node.value, node.slice
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "get" and node.args):
        target, key = node.func.value, node.args[0]
    else:
        return None
    if isinstance(target, ast.Name) and target.id == "options" and isinstance(key, ast.Constant):
        return key.value
    return None


def output_rule_breaks(source: str) -> list:
    """(line, what) of each use of repr, and of each mkdir or output-key read outside `_output`."""
    tree = ast.parse(source)
    inside = {
        id(inner) for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_output"
        for inner in ast.walk(node)
    }
    breaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "repr":
            breaks.append((node.lineno, "repr"))
        elif id(node) in inside:
            continue
        elif isinstance(node, ast.Attribute) and node.attr == "mkdir":
            breaks.append((node.lineno, "mkdir"))
        elif options_key(node) in OUTPUT_KEYS:
            breaks.append((node.lineno, options_key(node)))
    return sorted(breaks)


def test_the_output_scan_finds_each_break_outside_the_helper():
    source = (
        "def _output(options, flag, name):\n"
        "    Path(options['out']).parent.mkdir()\n"
        "def cmd(options):\n"
        "    Path(options['out'] or options['seed']).parent.mkdir()\n"
        "    return options.get('history_out'), repr(1.0)\n"
    )
    assert output_rule_breaks(source) == [
        (4, "mkdir"), (4, "out"), (5, "history_out"), (5, "repr"),
    ]


def test_the_cli_names_every_output_through_one_helper_and_writes_no_repr():
    # _output places and prepares each file a command writes; csv and
    # f-strings already write a float as its shortest round-trip text
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "def _output(" in source
    assert output_rule_breaks(source) == []


def output_flags_named(source: str) -> list:
    """(line, flag) of each `_output` call; flag is None unless a constant string names it."""
    return sorted(
        (node.lineno, node.args[1].value if isinstance(node.args[1], ast.Constant) else None)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_output"
    )


def test_every_output_the_cli_names_is_an_output_flag():
    # a flag that names an output but is missing from OUTPUT_FLAGS would
    # leak where a run writes into its fingerprint
    assert output_flags_named(
        "_output(options, 'out', 'a.csv')\n_output(options, flag, 'b.csv')\n"
    ) == [(1, "out"), (2, None)]
    named = output_flags_named((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert named and all(flag in OUTPUT_KEYS for _, flag in named)


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
