"""Module layering: each module imports only the modules below it."""

import pathlib
import re

import zetaseries

# lowest first, as in the package docstring
LAYERS = ["exactnum", "stirling", "harmonicnums", "powerseries", "coeffs", "harmonic",
          "reports", "series", "special", "msums", "audit", "cli"]

PACKAGE = pathlib.Path(zetaseries.__file__).parent


def _imported_modules(path):
    names = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if match := re.match(r"from \.(\w+) import", line):
            names.append(match.group(1))
        elif match := re.match(r"from \. import (.+)", line):
            names += [name.strip() for name in match.group(1).split(",")]
    return names


def test_layer_list_names_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_each_module_imports_only_lower_layers():
    for rank, module in enumerate(LAYERS):
        for name in _imported_modules(PACKAGE / f"{module}.py"):
            assert name in LAYERS[:rank], f"{module} imports {name}, which is not below it"
