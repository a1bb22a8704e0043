"""Import footprint: which modules each entry point loads.

Each check runs in a fresh interpreter with only ``src`` on the path and
compares ``sys.modules`` before and after the statement under test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LIBRARY_MODULES = (
    "multiindex", "ring", "linalg", "exterior", "hessian",
    "degree", "irreducibility", "node_cusp", "certificates",
)


def added_modules(setup: str, statement: str, *flags: str) -> set[str]:
    """Modules that ``statement`` adds to sys.modules after ``setup`` ran, in
    an interpreter started with ``flags``."""
    code = "\n".join([
        "import json, sys",
        setup,
        "before = set(sys.modules)",
        statement,
        "print(json.dumps(sorted(set(sys.modules) - before)))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def package_modules(names: set[str]) -> set[str]:
    return {n for n in names if n == "blockhess" or n.startswith("blockhess.")}


def test_cli_import_loads_no_library_module():
    assert package_modules(added_modules("", "import blockhess.cli")) == {"blockhess", "blockhess.cli"}


def test_library_import_loads_neither_dataclasses_nor_inspect():
    added = added_modules("", "\n".join(f"import blockhess.{m}" for m in LIBRARY_MODULES))
    assert {f"blockhess.{m}" for m in LIBRARY_MODULES} <= added
    assert not added & {"dataclasses", "inspect"}


def test_library_import_without_site_loads_no_typing():
    # -S: no site hook preloads typing, which costs more to import than the library
    added = added_modules("", "\n".join(f"import blockhess.{m}" for m in LIBRARY_MODULES), "-S")
    assert {f"blockhess.{m}" for m in LIBRARY_MODULES} <= added
    assert "typing" not in added


def test_degrees_command_loads_only_degree():
    added = added_modules("import blockhess.cli", 'blockhess.cli.main(["degrees", "--k", "3", "--N", "8"])')
    assert package_modules(added) == {"blockhess.degree"}
