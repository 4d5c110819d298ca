"""The layering rule that keeps the block-store layer below FFS."""

import ast
from pathlib import Path

import repro.storage

#: Packages above the block layer; ``repro.storage`` must not import them.
_UPPER_LAYERS = ("repro.fs", "repro.nfs", "repro.cfs", "repro.core")


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_storage_imports_no_upper_layer():
    """Dependencies run one way, fs -> storage: no module under
    ``repro/storage`` imports the filesystem, NFS, CFS or DisCFS core,
    not even lazily inside a function."""
    package = Path(repro.storage.__file__).parent
    offenders = [
        f"{path.name}: {module}"
        for path in sorted(package.glob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text()))
        if any(module == upper or module.startswith(upper + ".")
               for upper in _UPPER_LAYERS)
    ]
    assert offenders == []

