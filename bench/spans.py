"""Span recording around the public functions of sldgf's layers.

install() replaces every public function of the algebra, transfer,
analysis, family and oracle modules, in every sldgf module that holds it,
with a wrapper that records a span under "<layer>.<function>". The program
itself is not changed: calls between modules look the names up in the
caller's globals, so the caller sees the wrapper. Spans stay in memory and
are summarised, and written out, once at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("algebra", "transfer", "analysis", "family", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.sizes: dict[str, int] = {}
        self.colourings = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # items is not charged to the generator
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                items = fn(*args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(items)
                        except StopIteration:
                            return
                    yield item
        else:
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                with self.span(name):
                    try:
                        result = fn(*args, **kwargs)
                    except Exception:
                        self.failed[name] += 1
                        raise
                self._observe(name, args, result)
                return result
        return functools.wraps(fn)(wrapper)

    def _observe(self, name, args, result) -> None:
        """Sizes and work counts read at the layer boundary."""
        if name == "transfer.family_gf":
            family = args[0].spec.name
            coeffs = [c for p in (result.num, result.den) for c in p.terms.values()]
            self.sizes[f"transfer.gf_den_terms.{family}"] = len(result.den.terms)
            self.sizes[f"transfer.gf_num_terms.{family}"] = len(result.num.terms)
            self.sizes[f"transfer.gf_den_deg_z.{family}"] = max(
                e[2] for e in result.den.terms)
            self.sizes[f"transfer.gf_coeff_bits_max.{family}"] = max(
                max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in coeffs)
        elif name == "transfer.build_transfer_system":
            self.sizes[f"transfer.step_nnz.{result.spec.name}"] = sum(
                1 for row in result.t.data for entry in row if not entry.is_zero())
        elif name == "oracle.sld_bruteforce_colouring":
            self.colourings += 1 << args[0].vertex_count

    def self_times(self) -> Counter:
        """Duration minus the time covered by child spans, summed by name."""
        covered = Counter()
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - covered[index]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "self_s": dict(self.self_times()),
            "calls": dict(self.calls), "failed": dict(self.failed),
            "sizes": self.sizes}))


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer wherever sldgf holds it."""
    modules = [importlib.import_module(f"sldgf.{name}")
               for name in LAYERS + ("cli",)]
    for layer, module in zip(LAYERS, modules):
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
