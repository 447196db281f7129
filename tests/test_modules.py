import importlib
import inspect
import pkgutil

import typelog
from typelog.solve import Solution


def test_solution_is_the_only_dataclass():
    """Every host process and every `repl` start imports typelog, and a
    `@dataclass` decoration generates and runs the source of its methods
    at import, about 0.4 ms each, which was about 40% of the import.  So
    the other records are slotted classes or NamedTuples.  `Solution`
    stays a dataclass because it is public API and callers may rebuild an
    answer with `dataclasses.replace`."""
    found = []
    for info in pkgutil.iter_modules(typelog.__path__, "typelog."):
        if info.name == "typelog.__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and "__dataclass_fields__" in vars(cls)):
                found.append(cls)
    assert found == [Solution]
