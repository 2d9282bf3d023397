"""README.md is true: its python examples run, and its limits are the code's."""

import doctest
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kzero"
README = (SRC.parent.parent / "README.md").read_text()

# `module.MAX_NAME = value`, value an integer or an integer power like 10**12
LIMIT_RE = re.compile(r"`(\w+)\.(MAX_\w+) = (\d+)(?:\*\*(\d+))?`")
PYTHON_BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _stated_limits() -> list[tuple[str, str, int]]:
    return [
        (module, name, int(base) ** int(exponent or 1))
        for module, name, base, exponent in LIMIT_RE.findall(README)
    ]


def test_every_stated_limit_is_the_module_constant():
    stated = _stated_limits()
    assert stated, "README.md states no limit"
    for module, name, value in stated:
        actual = getattr(importlib.import_module(f"kzero.{module}"), name)
        assert actual == value, f"README says {module}.{name} = {value}, the code has {actual}"


def test_every_module_limit_is_stated():
    stated = {(module, name) for module, name, _ in _stated_limits()}
    for path in sorted(SRC.glob("*.py")):
        for name in re.findall(r"^(MAX_\w+) = ", path.read_text(), re.MULTILINE):
            assert (path.stem, name) in stated, f"README.md does not state {path.stem}.{name}"


def test_every_python_block_runs_as_a_doctest():
    blocks = PYTHON_BLOCK_RE.findall(README)
    assert blocks, "README.md has no python block"
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report: list[str] = []
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md python block {i}", "README.md", 0), out=report.append)
    assert runner.failures == 0, "".join(report)
