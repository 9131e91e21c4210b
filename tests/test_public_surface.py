"""The public surface is what the package and its scripts use."""

import ast
import functools
import pathlib

import diracmech

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diracmech"


@functools.cache
def loaded_names(path: pathlib.Path) -> frozenset[str]:
    """Every name and attribute read (Load context) in the file at ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return frozenset(names)


def test_every_export_is_loaded_outside_the_package_init():
    paths = [path for path in sorted(PACKAGE.rglob("*.py")) if path != PACKAGE / "__init__.py"]
    texts = {path: path.read_text() for path in paths + sorted((ROOT / "scripts").glob("*.py"))}
    # only a file whose text holds the name is parsed for it
    unused = [name for name in sorted(set(diracmech.__all__) - {"__version__"})
              if not any(name in text and name in loaded_names(path)
                         for path, text in texts.items())]
    assert unused == []
