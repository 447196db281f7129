import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import typelog

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_class_is_a_dataclass():
    """Every host process and every `repl` start imports typelog, and a
    `@dataclass` decoration generates and runs the source of its methods
    at import, about 0.4 ms each.  So the records are slotted classes or
    NamedTuples, `Solution` included."""
    found = []
    for info in pkgutil.iter_modules(typelog.__path__, "typelog."):
        if info.name == "typelog.__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and "__dataclass_fields__" in vars(cls)):
                found.append(cls)
    assert found == []


def test_import_loads_neither_dataclasses_nor_inspect():
    """`dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, about
    three quarters of what importing typelog would cost.  A fresh isolated
    interpreter imports the package and its CLI; only the modules that
    import newly loads count, not those the interpreter preloads."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import typelog, typelog.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = done.stdout.split()
    assert "typelog.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
