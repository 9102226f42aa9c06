"""Package-level checks: the module layering, unused imports, the exceptions
the CLI catches, the README's library example and that no function changes a
tensor it receives."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tmtensor import (
    Dims,
    TensorError,
    audit_nnz,
    decode_config,
    encode_config,
    encode_machine,
    evolve,
    factors,
    initial_configuration,
    random_tensor,
    restrict_k_nonzero,
    type1,
    type2,
    type2_power,
    verify_evolution,
    verify_power,
)

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


def unused_imports(source):
    """Names a module imports but never reads.  An alias on a line marked
    ``# noqa: F401`` is kept on purpose and not reported."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_reads_uses_and_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .tensor import Dims, Quad\n"
        "from .products import (\n"
        "    type1,  # noqa: F401\n"
        "    type2,\n"
        ")\n"
        "def f(d: Dims) -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == ["Quad", "type2"]


def test_modules_import_no_unused_names():
    # The package's __init__ imports only to re-export; the test modules are
    # checked too, so a deleted test cannot leave a dead import behind.
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]
    for path in sorted(paths):
        if path != PACKAGE / "__init__.py":
            assert not unused_imports(path.read_text()), path.relative_to(ROOT)


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


def test_all_lists_exactly_the_imported_names():
    import tmtensor

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(tmtensor.__all__) == imported
    assert len(tmtensor.__all__) == len(imported)
    for name in tmtensor.__all__:
        assert hasattr(tmtensor, name), name


# Raised outside `cli.main`'s handlers on purpose: `from_entries` refuses a
# non-integer scalar, which only a library caller can pass; argparse turns an
# ArgumentTypeError into exit 2; SystemExit ends the `__main__` block.
UNCAUGHT_ON_PURPOSE = {
    ("tensor", "TypeError"),
    ("cli", "argparse.ArgumentTypeError"),
    ("cli", "SystemExit"),
}


def raised_names(source):
    """The exceptions a module's ``raise`` statements name, sorted; a bare
    re-raise names nothing and is skipped."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(ast.unparse(exc))
    return sorted(names)


def test_raised_names_reads_every_raise_form():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    try:\n"
        "        raise argparse.ArgumentTypeError('y')\n"
        "    except OSError:\n"
        "        raise\n"
        "    raise SystemExit\n"
    )
    assert raised_names(source) == ["SystemExit", "ValueError", "argparse.ArgumentTypeError"]


def test_cli_main_catches_every_raised_exception():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    caught = set()
    handlers = [h for node in ast.walk(main) if isinstance(node, ast.Try) for h in node.handlers]
    for handler in handlers:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught.update(ast.unparse(t) for t in types)
    assert {"ResourceLimit", "MachineFormatError", "TensorError", "ValueError"} <= caught
    for path in sorted(PACKAGE.glob("*.py")):
        for name in raised_names(path.read_text()):
            assert name in caught or (path.stem, name) in UNCAUGHT_ON_PURPOSE, (path.stem, name)


def test_no_function_changes_a_tensor_it_receives(corpus):
    """Every operand's entries are the same after each call, which an index
    cached on a tensor relies on."""
    snapshots = []

    def operands(*tensors):
        snapshots.extend((t, dict(t.entries)) for t in tensors)
        return tensors

    for _, machine, tape in corpus:
        encoding = encode_machine(machine, 3)
        a, b = operands(
            encode_config(initial_configuration(machine, tape, 3), encoding.tensor.dims),
            encoding.tensor,
        )
        factors(a, b)
        (b2,) = operands(type2_power(b, 2))
        type2(b, b2)
        for a_t in operands(*evolve(a, b, 4)):
            type1(a_t, b2)
            a_t.to_text()
            (restricted,) = operands(restrict_k_nonzero(a_t))
            if not restricted.is_zero:  # empty once off the window
                decode_config(restricted)
        list(verify_evolution(machine, tape, b, 4))
        list(verify_power(machine, tape, b2, 2, 2))
        audit_nnz(machine, encoding)
        b.to_text()

    dims = Dims(2, 2, 2)
    for seed in range(3):
        a, b, c = operands(
            random_tensor(dims, 0, density=0.5, value_bound=3, seed=seed),
            random_tensor(dims, 1, density=0.3, value_bound=3, seed=seed + 10),
            random_tensor(dims, 1, density=0.3, value_bound=3, seed=seed + 20),
        )
        factors(a, b)
        type1(a, b)
        type2(b, c)
        type2_power(c, 2)
        list(evolve(a, b, 3))
        restrict_k_nonzero(a)
        with pytest.raises(TensorError):
            decode_config(a)
        a.to_text()
        c.to_text()

    for t, before in snapshots:
        assert t.entries == before, t
