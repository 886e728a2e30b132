"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each povm_forge
module with timing wrappers at every ``povm_forge.*`` binding site, and
wraps ``numpy.linalg.eigh``/``eigvalsh``/``svd`` as the ``lapack`` layer.
Nothing in the package changes; ``uninstall`` puts the originals back.

Every wrapped call is a span: name, start, end, parent span and
operation id, kept in memory and written out by ``write_spans``.  Per
name the tracer also sums calls, total time and self time (total minus
the time covered by child spans), plus a few counters read off results.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "povm", "extremality", "constructor", "decomposer", "cli")

# Class methods traced alongside the module functions: (layer, class, method).
METHODS = (
    ("povm", "Povm", "to_jsonable"),
    ("povm", "Povm", "from_jsonable"),
    ("decomposer", "DecompositionCertificate", "to_jsonable"),
    ("decomposer", "DecompositionCertificate", "from_jsonable"),
    ("decomposer", "DecompositionCertificate", "reconstruction"),
)

# Private helpers traced for their counters; absent ones are skipped.
PRIVATE = (
    ("constructor", "_outside_span", "constructor.span_test"),
    ("cli", "_load_json", "cli.load_json"),
    ("cli", "_write_json", "cli.write_json"),
)

LAPACK = (("eigh", "lapack.eigh"), ("eigvalsh", "lapack.eigvalsh"), ("svd", "lapack.svd"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in start order.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        # name id -> [calls, total_s, self_s]
        self.totals: dict[int, list] = {}
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[self._ids[name]] = [0, 0.0, 0.0]
        return self._ids[name]

    def _enter(self, name_id: int) -> None:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([index, start, 0.0])

    def _exit(self, name_id: int) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        row = self.totals[name_id]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _wrap(self, name: str, fn, on_result=None, outer_only=False):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if outer_only and not tracer._stack:
                return fn(*args, **kwargs)
            tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name_id)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer; calls from outside any program span skip lapack."""
        import povm_forge

        modules = {layer: sys.modules[f"povm_forge.{layer}"] for layer in LAYERS}
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    hook = _RESULT_HOOKS.get(f"{layer}.{attr}")
                    replacements[id(fn)] = self._wrap(f"{layer}.{attr}", fn, hook)
        for layer, attr, name in PRIVATE:
            fn = getattr(modules[layer], attr, None)
            if fn is not None:
                replacements[id(fn)] = self._wrap(name, fn, _RESULT_HOOKS.get(name))
        # Rebind at every binding site inside the package.
        sites = [povm_forge] + [
            module for key, module in list(sys.modules.items())
            if key.startswith("povm_forge.")
        ]
        for module in sites:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._set(module, attr, replacements[id(value)])
        # Subcommands are dispatched through a table, not by name.
        commands = getattr(modules["cli"], "_COMMANDS", {})
        for sub, fn in list(commands.items()):
            self._restore.append((commands, sub, fn))
            commands[sub] = self._wrap(f"cli.{sub}", fn)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[method]
            name = f"{layer}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._restore.append((cls, method, raw))
            setattr(cls, method, wrapped)
        for attr, name in LAPACK:
            wrapped = self._wrap(name, getattr(np.linalg, attr), _RESULT_HOOKS.get(name), outer_only=True)
            self._set(np.linalg, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s} over everything recorded."""
        return {
            self.names[i]: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
            for i, row in self.totals.items()
        }

    def write_spans(self, path: str, header: dict) -> None:
        """One JSON header line, then one tab-separated line per span:
        name id, start, end, parent span index (-1 at the root), operation id."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "names": self.names,
                                     "columns": ["name", "start", "end", "parent", "op"]}))
            handle.write("\n")
            rows = zip(self.span_name, self.span_start, self.span_end,
                       self.span_parent, self.span_op)
            handle.writelines(f"{n}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n" for n, s, e, p, o in rows)


def _svd_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("lapack.svd.out_bytes", sum(part.nbytes for part in result))


def _decompose_components(tracer: Tracer, args, result) -> None:
    tracer.count("decomposer.decompose.components", len(result.components))


def _span_accepted(tracer: Tracer, args, result) -> None:
    tracer.count("constructor.span_test.accepted", 1 if result else 0)


def _bytes_read(tracer: Tracer, args, result) -> None:
    tracer.count("cli.json_bytes", os.path.getsize(args[0]))


def _bytes_written(tracer: Tracer, args, result) -> None:
    tracer.count("cli.json_bytes", os.path.getsize(args[1]))


_RESULT_HOOKS = {
    "lapack.svd": _svd_bytes,
    "decomposer.decompose": _decompose_components,
    "constructor.span_test": _span_accepted,
    "cli.load_json": _bytes_read,
    "cli.write_json": _bytes_written,
}
