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
stderr.  ``-h`` or ``--help`` prints this text and exits 0; a path that does not
exist gives one ``error:`` line and exit 2, before any row.  Each argument is a
module or a directory, whose ``*.py`` files are read recursively::

    python3 tools/code_lines.py src/kzero

A directory that holds the package's ``cli.py`` also gets one
``verb  <nodes>  <verb>: <modules>`` row per verb of its ``VERBS`` table after
the totals: the compile bill of a job of that verb, the nodes of the modules
it loads.  Those are ``__init__``, ``cli`` and the verb's home module, each
with the sibling modules its body imports when it runs, and theirs in turn;
an import inside a function counts only in the home's ``cmd_<verb>`` handler,
and one in an ``if TYPE_CHECKING:`` block never does.
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


def start_up_siblings(source: str, handler: str = "") -> set[str]:
    """The sibling modules that the module ``source`` imports when it runs, and those that
    its function ``handler`` imports: its relative imports outside other function bodies
    and ``if TYPE_CHECKING:`` blocks."""
    found, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != handler:
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            todo += node.orelse
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        for field in ("body", "orelse", "finalbody", "handlers"):
            todo += getattr(node, field, [])
    return found


def verb_homes(cli_source: str) -> dict[str, str]:
    """Each verb of the ``VERBS: ... = {...}`` table in ``cli_source`` and its home module,
    the second field of its row."""
    for node in ast.parse(cli_source).body:
        if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "VERBS":
            return {key.value: row.elts[1].value for key, row in zip(node.value.keys, node.value.values)}
    return {}


def compile_bills(package: Path) -> dict[str, list[str]]:
    """Per verb of ``package``'s CLI, the modules its job loads, sorted by name: at start,
    and those its handler ``cmd_<verb>`` imports."""
    bills = {}
    for verb, home in verb_homes((package / "cli.py").read_text(encoding="utf-8")).items():
        handler = "cmd_" + verb.replace("-", "_")
        loaded, todo = set(), ["__init__", "cli", home]
        while todo:
            name = todo.pop()
            if name not in loaded:
                loaded.add(name)
                source = (package / f"{name}.py").read_text(encoding="utf-8")
                todo += start_up_siblings(source, handler if name == home else "")
        bills[verb] = sorted(loaded)
    return bills


def modules(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for arg in map(Path, paths):
        found.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    return found


def print_rows(paths: list[str]) -> None:
    """Print the row of each module under ``paths``, the totals, and each verb's bill."""
    lines = nodes = 0
    sizes: dict[Path, int] = {}
    for path in modules(paths):
        source = path.read_text(encoding="utf-8")
        count, sizes[path] = code_lines(source), ast_nodes(source)
        lines, nodes = lines + count, nodes + sizes[path]
        print(f"{count:6d}  {sizes[path]:7d}  {path}")
    print(f"{lines:6d}  {nodes:7d}  total")
    for package in map(Path, paths):
        if (package / "cli.py").is_file():
            for verb, names in compile_bills(package).items():
                bill = sum(sizes[package / f"{name}.py"] for name in names)
                print(f"{'verb':>6}  {bill:7d}  {verb}: {' '.join(names)}")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    wants_help = "-h" in argv or "--help" in argv
    missing = [] if wants_help else [path for path in argv if not Path(path).exists()]
    if missing:
        print(f"error: no such file or directory: {missing[0]}", file=sys.stderr)
        return 2
    try:
        if wants_help:
            print(__doc__.strip())
        else:
            print_rows(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at the null device, so the flush at exit
        # cannot raise again (the idiom of the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
