"""Outside-in tracing of the package's public functions.

The tracer swaps each traced function for a wrapper in every `tmtensor`
module namespace that binds it (and `SparseTensor.__eq__` on its class), so
calls made inside the package are traced as well; nothing in the package is
edited, and `uninstall` puts every original back.  Each call becomes a span
(id, parent id, name, start, end, job id) kept in memory.  Counts are computed
from the operands and results at the call boundary.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable

Span = tuple[int, int | None, str, float, float, int | None]
# (args, kwargs, result or None, exception or None) -> count increments
CountHook = Callable[[tuple, dict, Any, BaseException | None], dict[str, int]]


def _type1_counts(args, kwargs, result, exc):
    if exc is not None:
        return {}
    b = args[1] if len(args) > 1 else kwargs["b"]
    return {"scanned": b.nnz, "out_nnz": result.nnz}


def _type2_counts(args, kwargs, result, exc):
    if exc is not None:
        from tmtensor.errors import ResourceLimit

        return {"refused": int(isinstance(exc, ResourceLimit))}
    return {"out_nnz": result.nnz}


def _encode_machine_counts(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"nnz": result.tensor.nnz, "dropped": len(result.dropped)}


def _oracle_run_counts(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"steps": len(result.configs) - 1}


@dataclass(frozen=True)
class Target:
    name: str  # metric prefix, e.g. "products.type1"
    module: str
    attr: str  # "Class.method" for a method
    counts: CountHook | None = None


TARGETS = (
    Target("machine.parse_document", "tmtensor.machine", "parse_document"),
    Target("machine.oracle_run", "tmtensor.machine", "oracle_run", _oracle_run_counts),
    Target("encoding.encode_machine", "tmtensor.encoding", "encode_machine", _encode_machine_counts),
    Target("encoding.encode_config", "tmtensor.encoding", "encode_config"),
    Target("encoding.restrict_k_nonzero", "tmtensor.encoding", "restrict_k_nonzero"),
    Target("encoding.decode_config", "tmtensor.encoding", "decode_config"),
    Target("products.type1", "tmtensor.products", "type1", _type1_counts),
    Target("products.type2", "tmtensor.products", "type2", _type2_counts),
    Target("products.type2_power", "tmtensor.products", "type2_power"),
    Target("products.evolve", "tmtensor.products", "evolve"),
    Target("harness.verify_evolution", "tmtensor.harness", "verify_evolution"),
    Target("harness.mixed_assoc_trial", "tmtensor.harness", "mixed_assoc_trial"),
    Target("harness.type2_assoc_trial", "tmtensor.harness", "type2_assoc_trial"),
    Target("tensor.eq", "tmtensor.tensor", "SparseTensor.__eq__"),
    Target("cli.main", "tmtensor.cli", "main"),
)

COUNT_NAMES = (
    "products.type1.scanned",
    "products.type1.out_nnz",
    "products.type2.out_nnz",
    "products.type2.refused",
    "encoding.encode_machine.nnz",
    "encoding.encode_machine.dropped",
    "machine.oracle_run.steps",
)


class Tracer:
    """Records spans and counts for the wrapped functions while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counts: CountHook | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = len(self.spans)
            self.spans.append((span_id, parent, name, 0.0, 0.0, self.job))  # reserve the id
            self._stack.append(span_id)
            start = self.clock()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end, self.job)
                if counts is not None:
                    for key, value in counts(args, kwargs, result, error).items():
                        self.counts[f"{name}.{key}"] += value

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        for target in targets:
            owner: object = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(target.name, original, target.counts)
            if path:
                self._swap(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "tmtensor" and not name.startswith("tmtensor."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapper)

    def _swap(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


def self_times(spans: Iterable[Span]) -> dict[str, tuple[int, float, float]]:
    """Per name: calls, total time, and self time (total minus direct traced children)."""
    spans = list(spans)
    covered: dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    out: dict[str, tuple[int, float, float]] = {}
    for span_id, _, name, start, end, _ in spans:
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        duration = end - start
        out[name] = (calls + 1, total + duration, own + duration - covered.get(span_id, 0.0))
    return out
