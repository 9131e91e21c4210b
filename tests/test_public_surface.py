"""The public surface is what the package and its scripts use."""

import ast
import functools
import pathlib

import diracmech

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diracmech"
# every caller a default value can have: the package, its scripts, the benchmark and the tests
CALLER_FILES = tuple(sorted(PACKAGE.rglob("*.py"))
                     + [path for folder in ("scripts", "bench", "tests")
                        for path in sorted((ROOT / folder).glob("*.py"))])


@functools.cache
def tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


@functools.cache
def loaded_names(path: pathlib.Path) -> frozenset[str]:
    """Every name and attribute read (Load context) in the file at ``path``."""
    names = set()
    for node in ast.walk(tree(path)):
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


def public_defaults(path: pathlib.Path):
    """(qualified name, name, bound, positional names, parameter) for each parameter with a
    default of a public module-level function or class method; ``bound`` is True where an
    attribute call fills the first parameter (self or cls)."""
    module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    found = []
    for node in tree(path).body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            functions = [(f"{node.name}.{item.name}", item,
                          not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in item.decorator_list))
                         for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for qualname, func, bound in functions:
            if func.name.startswith("_"):
                continue
            spec = func.args
            positional = [a.arg for a in spec.posonlyargs + spec.args]
            with_default = positional[len(positional) - len(spec.defaults):]
            with_default += [a.arg for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d]
            found += [(f"{module}.{qualname}", func.name, bound, positional, p)
                      for p in with_default]
    return found


@functools.cache
def calls_in(path: pathlib.Path) -> dict[str, list]:
    """Called name -> (through an attribute, positional count or None for a * unpacking,
    keyword names or None for a ** unpacking) for each call in the file at ``path``."""
    calls = {}
    for node in ast.walk(tree(path)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name, through_attribute = node.func.id, False
        elif isinstance(node.func, ast.Attribute):
            name, through_attribute = node.func.attr, True
        else:
            continue
        count = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        keywords = (None if any(k.arg is None for k in node.keywords)
                    else {k.arg for k in node.keywords})
        calls.setdefault(name, []).append((through_attribute, count, keywords))
    return calls


def test_every_public_default_is_passed_by_some_call():
    texts = {path: path.read_text() for path in CALLER_FILES}

    def passed(name, bound, positional, parameter):
        # only a file whose text calls the name is parsed for it, the package first
        for path in (path for path, text in texts.items() if f"{name}(" in text):
            for through_attribute, count, keywords in calls_in(path).get(name, ()):
                if keywords is None or parameter in keywords or count is None:
                    return True
                # an attribute call fills a method's self or cls; a bare name calls a function
                if bound and not through_attribute:
                    continue
                offset = 1 if bound else 0
                if parameter in positional and positional.index(parameter) < count + offset:
                    return True
        return False

    never_passed = [f"{qualname}({parameter})"
                    for path in sorted(PACKAGE.rglob("*.py"))
                    for qualname, name, bound, positional, parameter in public_defaults(path)
                    if not passed(name, bound, positional, parameter)]
    assert never_passed == [], never_passed
