"""Count the code lines and the AST nodes of Python modules.

A code line is a physical line that holds a token of code: blank lines,
comment lines and the lines of string statements (the docstrings of modules,
classes and functions, and any other statement that is a bare string) do not
count.  A line holding both code and a comment counts once.

The AST node count is the number of nodes ``ast.walk`` yields for the module,
docstrings, operators and ``Load``/``Store`` contexts included: what compiling
the module from source walks, so it tracks the compile cost a job pays when
no bytecode cache is kept.

Prints one ``<code lines>  <nodes>  <path>`` row per module, then the totals;
when the reader of stdout closes it early, the script exits 1 with nothing on
stderr.  Each argument is a module or a directory, whose ``*.py`` files are
read recursively::

    python3 tools/code_lines.py src/kzero
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by string statements: the docstrings of the module, its classes
    and functions, and any other statement that is a bare string."""
    return {line for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for line in range(node.lineno, node.end_lineno + 1)}


def code_lines(source: str) -> int:
    """The number of physical lines of ``source`` that hold code outside its docstrings."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def ast_nodes(source: str) -> int:
    """The number of nodes ``ast.walk`` yields for the module ``source``."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


def modules(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for arg in map(Path, paths):
        found.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = nodes = 0
    try:
        for path in modules(argv):
            source = path.read_text(encoding="utf-8")
            count, size = code_lines(source), ast_nodes(source)
            lines, nodes = lines + count, nodes + size
            print(f"{count:6d}  {size:7d}  {path}")
        print(f"{lines:6d}  {nodes:7d}  total")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at the null device, so the flush at exit
        # cannot raise again (the idiom of the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
