"""Span tracing of mtspec from outside the package.

``Tracer.install`` wraps every public module-level function of every loaded
``mtspec.*`` module and rebinds each reference to it across the package's
module namespaces (including names imported with ``from .x import y`` and
module-level dispatch tables), so calls between modules are traced too.
``uninstall`` puts the original functions back.

Each span records (function, operation id, parent span, start ns, end ns,
first-segment flag) in a flat in-memory array; ``dump`` writes them out
once the run ends and ``aggregate`` turns dumped spans into per-function
call counts and self times.  A generator function gets one span per
resumption, so its self time excludes the consumer's work between items;
only its first resumption counts as a call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "mtspec"
FIELDS = 6  # function, op, parent, start, end, first

# private functions traced as well, so that cli rendering is fully covered
EXTRA = {"mtspec.cli": ("_render_theory_group", "_render_kernel")}

RENDER = {"cli.render_gen", "cli.render_group", "cli.render_exact",
          "cli.document_to_json", "cli._render_theory_group", "cli._render_kernel"}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.stack = []
        self.op = -1
        self.snf_max_digits = 0
        self._undo = []

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        wrappers = {}
        for module in self._modules():
            extra = EXTRA.get(module.__name__, ())
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    short = module.__name__[len(PACKAGE) + 1:] or PACKAGE
                    wrappers[id(value)] = self._wrap(value, "%s.%s" % (short, attr))
        for module in self._modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._undo.append((namespace, attr, value))
                    namespace[attr] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self):
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo = []

    def _fid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str):
        fid = self._fid(name)
        spans, stack = self.spans, self.stack
        on_return = self._snf_digits if name == "abelian.smith_normal_form" else None

        def enter(first):
            index = len(spans) // FIELDS
            spans.extend((fid, self.op, stack[-1] if stack else -1, 0, 0, first))
            stack.append(index)
            spans[index * FIELDS + 3] = perf_counter_ns()
            return index

        def leave(index):
            spans[index * FIELDS + 4] = perf_counter_ns()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = 1
                while True:
                    index = enter(first)
                    first = 0
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(index)
                    yield item
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(1)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index)
            if on_return is not None:
                on_return(result)
            return result
        return wrapper

    def _snf_digits(self, result):
        u, _, v = result
        biggest = max((abs(x) for m in (u, v) for x in m.entries), default=0)
        self.snf_max_digits = max(self.snf_max_digits, len(str(biggest)))

    def dump(self, path):
        """Write the recorded spans: a JSON header line, then the raw array."""
        header = {"names": self.names, "fields": FIELDS,
                  "snf_max_digits": self.snf_max_digits}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(out)


def load(path):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        spans = array("q")
        spans.frombytes(f.read())
    return header, spans


class Aggregate:
    """Call counts and self times per traced function, summed over dumps."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.load_data_hits = 0
        self.render_ns = 0
        self.snf_max_digits = 0

    def add(self, header, spans):
        names = header["names"]
        self.snf_max_digits = max(self.snf_max_digits, header["snf_max_digits"])
        count = len(spans) // FIELDS
        child_ns = [0] * count
        parses = set()
        parse_fid = names.index("certified.parse_data") if "certified.parse_data" in names else -1
        render = {i for i, n in enumerate(names) if n in RENDER}
        for i in range(count):
            base = i * FIELDS
            fid, parent = spans[base], spans[base + 2]
            duration = spans[base + 4] - spans[base + 3]
            if parent >= 0:
                child_ns[parent] += duration
                if fid == parse_fid:
                    parses.add(parent)
            if fid in render and (parent < 0 or spans[parent * FIELDS] not in render):
                self.render_ns += duration
        for i in range(count):
            base = i * FIELDS
            name = names[spans[base]]
            self.calls[name] = self.calls.get(name, 0) + spans[base + 5]
            self.self_ns[name] = (self.self_ns.get(name, 0)
                                  + spans[base + 4] - spans[base + 3] - child_ns[i])
            if name == "certified.load_data" and i not in parses:
                self.load_data_hits += 1

    def module_totals(self, module: str):
        prefix = module + "."
        calls = sum(c for n, c in self.calls.items() if n.startswith(prefix))
        self_ns = sum(t for n, t in self.self_ns.items() if n.startswith(prefix))
        return calls, self_ns
