"""The README's Library section runs as written, and every name the README
or lowdepth.__all__ gives resolves, so a removed or renamed public name
fails here before a reader meets it."""

import importlib
import re
from pathlib import Path

import lowdepth

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")

# `L.name`, `lowdepth.name` or `<module>.name` inside a code span
_NAME = re.compile(r"\b(L|lowdepth|[a-z]+)\.([A-Za-z_]\w*)")


def _library_block() -> str:
    section = TEXT[TEXT.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_library_block_runs():
    exec(compile(_library_block(), "README.md (Library)", "exec"), {})


def test_every_public_name_resolves():
    assert lowdepth.__all__
    for name in lowdepth.__all__:
        assert getattr(lowdepth, name) is not None, name


def test_readme_names_resolve():
    modules = {p.stem for p in Path(lowdepth.__file__).parent.glob("*.py")}
    found = []
    for span in re.findall(r"`([^`\n]+)`", TEXT):
        for owner, name in _NAME.findall(span):
            if owner in ("L", "lowdepth"):
                found.append(name)
                assert hasattr(lowdepth, name) or name in modules, span
            elif owner in modules:
                found.append(name)
                assert hasattr(importlib.import_module(f"lowdepth.{owner}"), name), span
    assert "run_pass" in found
