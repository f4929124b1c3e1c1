"""No dead definitions: every function, class and method that a `flowbm`
module defines is named by code elsewhere in `src/`.

A name that no code in the package reads, calls or imports is code that
nothing runs, such as a forwarder left behind after its callers moved on.
Prose does not count: a docstring may still say "uniforms" after the
function of that name is dead.  Dunder methods are called by Python itself
and are left out, as is each name in `CALLED_FROM_OUTSIDE`.
"""

import ast
from pathlib import Path

import flowbm

SRC = Path(flowbm.__file__).parent

# Methods that numpy calls on the package's objects.
CALLED_FROM_OUTSIDE = {"generate_state"}  # sampling._SeedWords, read by PCG64


def test_every_defined_name_is_used_elsewhere_in_src():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    assert sorted(defined - used - dunder - CALLED_FROM_OUTSIDE) == []
