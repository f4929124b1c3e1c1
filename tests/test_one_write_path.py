"""One write path: every file that `flowbm` writes goes through
`checkpoint.replacing`, which writes a temporary file and renames it over
the target, so a failed write keeps the last whole file.

The scan reads `src/flowbm` by `ast`, as `tests/test_dead_names.py` does.
It flags any `open(...)` whose mode writes (`w`, `a`, `x` or `+`), or whose
`mode=` it cannot read, and any `write_text`/`write_bytes` call, unless the
call sits inside `checkpoint.replacing`.
"""

import ast
from pathlib import Path

import flowbm

SRC = Path(flowbm.__file__).parent
MODE_CHARS = set("rwxabt+")


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is not None and not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode computed at run time may write
    # `open(path, mode)`, `io.open(path, mode)` or `Path.open(mode)`: a
    # string made only of mode letters is the mode.
    modes = [mode.value] if mode is not None else [
        a.value for a in call.args[:2] if isinstance(a, ast.Constant) and isinstance(a.value, str)
        and a.value and set(a.value) <= MODE_CHARS]
    return any(set(m) & set("wax+") for m in modes)


def writes_outside_replacing(sources: dict[str, str]) -> list[str]:
    """`file:line` of every write call in `sources` (file name -> text)
    outside `checkpoint.replacing`."""
    found = []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text, filename=name)
        allowed = set()
        if name == "checkpoint.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "replacing":
                    allowed |= {id(inner) for inner in ast.walk(node)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed and _writes(node)]
    return found


def test_every_file_is_written_through_replacing():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert writes_outside_replacing(sources) == []


def test_the_scan_finds_each_kind_of_write():
    code = "\n".join([
        'open(p, "a", newline="")',
        'open(p, mode="w")',
        'io.open(p, "r+b")',
        'Path(p).open("x")',
        'open(p, mode=m)',
        'p.write_text("x")',
        'p.write_bytes(b"x")',
        'open(p)',
        'open(p, "rb")',
        'gzip.open(fh)',
        'open("/proc/self/maps", encoding="utf-8")',
    ])
    assert writes_outside_replacing({"cli.py": code}) == [f"cli.py:{i}" for i in range(1, 8)]
    inside = 'def replacing(p):\n    open(p, "wb")\n'
    assert writes_outside_replacing({"checkpoint.py": inside}) == []
    assert writes_outside_replacing({"cli.py": inside}) == ["cli.py:2"]
