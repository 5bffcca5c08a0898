"""Every function in `src/v8npst` is reached from the command line, but
for an allow-list: a fresh child process, so that no cache warmed by
another test hides a call, runs small `search`, `analyze` and `probe`
command lines and error paths under `sys.setprofile`, and each function
and method that `ast` finds in the package must have been called."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from v8npst import cli

PACKAGE = Path(cli.__file__).resolve().parent

# qualified name -> why no command line reaches it
ALLOWED = {
    "pst.classify_pair": "perfbench counts its calls (perfbench/layers.py)",
    "pst._pair_clause": "called only by classify_pair",
    "pst._pair_verdict": "called only by classify_pair",
    "group.region": "called only by _pair_clause",
    "pst.classify_graph_type": "perfbench spans it (perfbench/layers.py)",
    "oracle.transition": "perfbench counts its calls (perfbench/layers.py)",
    "oracle.projectors": "perfbench's warm calls it (perfbench/run.py)",
    "group.generated_subgroup": "perfbench/record.py calls it",
    "cyclotomic.CycloInt.value": "perfbench wraps it (perfbench/layers.py)",
    "cyclotomic.CycloInt.is_zero": "perfbench wraps it (perfbench/layers.py)",
    "cyclotomic.CycloInt.__setattr__": "the immutability guard: nothing sets an attribute",
    "group.ConnectionSet.members": "built on read only when not given; no command reads it",
    "group.ConnectionSet.bits": "built on read only when not given; every command gives it",
    "group.GroupParams.__reduce__": "copy and pickle call it, so that n keeps one instance",
}

COMMANDS = [
    "search --n 4 --max-classes 3 --verify",
    "analyze --n 1 --set a+b+a*b --verify",
    "analyze --n 4 --set a*b+a+a^7 --verify",
    "analyze --n 2 --set b,a^2*b^3",
    "probe --n 1 --set a+b+a*b --u 0 --v 4 --grid 400",
    "analyze --n 1 --set b^2",  # the error paths: an invalid set,
    "probe --n 1 --set a+b+a*b --u 0 --v 99",  # a vertex out of range,
    "search --n 9",  # n above the search bound,
    "search --n 0",  # a usage error
]

CHILD = """if True:
    import contextlib, io, json, os, sys
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == sys.argv[1]:
            reached.add((os.path.basename(code.co_filename), code.co_firstlineno))

    sys.setprofile(profile)
    from v8npst import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in sys.argv[2:]:
            cli.main(command.split())
    sys.setprofile(None)
    print(json.dumps(sorted(reached)))
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """(file name, first line of its code object: the first decorator's, if
    any) -> qualified name, for each function and method in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path.name, first] = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, name)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


def test_every_function_is_reached_from_the_command_line():
    child = [sys.executable, "-c", CHILD, str(PACKAGE), *COMMANDS]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(child, env=env, capture_output=True, text=True, timeout=300, check=True)
    reached = {tuple(key) for key in json.loads(out.stdout)}
    unreached = {name for key, name in defined_functions().items() if key not in reached}
    assert sorted(unreached - ALLOWED.keys()) == []  # reach it, or allow it with a reason
    assert sorted(ALLOWED.keys() - unreached) == []  # reached, or gone: drop it from the list
