"""Documentation that must stay true: exported names and the README example."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
import types
from pathlib import Path

import cayleydeg
from cayleydeg.cli import _build_parser
from cayleydeg.graphs import builtin_graph

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    exported = {}
    for info in pkgutil.iter_modules(cayleydeg.__path__):
        mod = importlib.import_module(f"cayleydeg.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"
            exported[name] = getattr(mod, name)
    # the package re-exports public names of its modules, each under the
    # name and as the object its home module exports
    reexports = [
        name for name, obj in vars(cayleydeg).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert reexports
    for name in getattr(cayleydeg, "__all__", reexports):
        assert hasattr(cayleydeg, name), f"cayleydeg.__all__ names missing {name}"
        assert exported.get(name) is getattr(cayleydeg, name), name


def test_the_suite_imports_this_checkouts_sources():
    # pyproject.toml puts src/ first on the path, so plain pytest needs no
    # PYTHONPATH and never tests an installed copy
    src = README.parent / "src"
    assert src in Path(cayleydeg.__file__).resolve().parents


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md quick start", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[1].split()[-1] in ("True", "False")


def test_readme_command_lines_parse():
    text = README.read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines
    parser = _build_parser()
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "cayleydeg", line
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None


def test_readme_graph_names_build():
    text = README.read_text()
    section = text.split("Graph names", 1)[1]
    table = re.search(r"(?:^\|.*\n)+", section, re.M).group(0)
    names = re.findall(r"^\| `([^`]+)`", table, re.M)
    assert len(names) >= 4
    parser = _build_parser()
    for name in names:
        # placeholders (cycle:m, qN) take the value 5
        concrete = re.sub(r"(?<=:)m$|(?<=^q)N$", "5", name)
        X = builtin_graph(concrete)
        assert X.n > 0 and X.is_regular(), name
        parser.parse_args(["scan", "--graph", concrete])
        parser.parse_args(["signing", "search", "--graph", concrete])
