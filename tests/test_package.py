"""Package-level checks: the module layering and the README's library example."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tmtensor"

# Each module and the package modules it may import from.  `products` is pure
# algebra: it knows tensors, not machines or their encodings.
LAYERS = {
    "errors": set(),
    "tensor": {"errors"},
    "machine": {"errors", "tensor"},
    "encoding": {"errors", "machine", "tensor"},
    "products": {"errors", "tensor"},
    "harness": {"encoding", "errors", "machine", "products", "tensor"},
    "cli": {"encoding", "errors", "harness", "machine", "products", "tensor"},
}


def package_imports(source):
    """The package modules a module's source imports from, relatively or by
    the package name; a name imported from the package itself counts as is."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "tmtensor":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tmtensor":
                    found.add(parts[1] if len(parts) > 1 else "tmtensor")
    return found


def test_package_imports_reads_every_import_form():
    source = (
        "import itertools\n"
        "from .encoding import decode_config\n"
        "from . import tensor\n"
        "import tmtensor.machine\n"
        "from tmtensor.harness import Check\n"
        "from tmtensor import DEFAULT_CAP\n"
        "import tmtensor\n"
    )
    expected = {"encoding", "tensor", "machine", "harness", "DEFAULT_CAP", "tmtensor"}
    assert package_imports(source) == expected


def test_modules_import_only_their_lower_layers():
    modules = {path.stem: path for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert set(modules) == set(LAYERS)
    for name, path in sorted(modules.items()):
        extra = package_imports(path.read_text()) - LAYERS[name]
        assert not extra, f"{name} imports from {sorted(extra)}"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
