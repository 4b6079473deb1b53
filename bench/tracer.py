"""Per-layer tracing of msym from outside the program.

A Tracer replaces every public function and method of each msym module with
a wrapper while it is installed, and puts the originals back when it is
removed.  A module-level function is replaced wherever a loaded msym module
holds it by name (``from .hecke_ops import apply_T`` in ``macdonald`` binds a
second name to the same object), so calls are counted whichever import they
come through.  Methods are replaced on their class, which covers every caller.

Each wrapper counts its calls.  A call that enters a layer from another layer
(or from the benchmark) also pushes a frame: its duration is added to the
function's inclusive time, and that duration minus the time spent in other
layers below it to the layer's self time.  A call made from inside its own
layer is only counted, so nesting costs one counter increment.  Calls into
``qt_field`` and ``polyring`` happen millions of times per run, so those
layers keep these aggregates only; the coarser layers in SPAN_LAYERS also
keep one span per boundary call (function, op index, parent span, start,
end), held in memory until the caller writes them out.
"""

import sys
import time

LAYERS = ("qt_field", "polyring", "combinatorics", "hecke_ops", "macdonald",
          "structure", "kernels")
SPAN_LAYERS = frozenset(("macdonald", "structure", "kernels"))

# Dunder methods that do arithmetic or construct values.  Comparisons,
# hashing, truth tests and printing are left unwrapped: they are trivial and
# run inside the caller's loops, where their time is charged to the caller.
_WRAPPED_DUNDERS = frozenset(("__init__", "__add__", "__sub__", "__neg__",
                              "__mul__", "__rmul__", "__truediv__", "__pow__"))
# Cache management is the benchmark's own bookkeeping, not work to measure.
_SKIPPED = frozenset(("is_zero", "is_one", "to_json", "clear_caches"))


def _result_terms(args, out):
    return len(out.terms)


def _first_arg_terms(args, out):
    return len(args[0].terms)


def _bipoly_terms_in(args, out):
    return len(args[0].poly.terms) + len(args[1].poly.terms)


# Term counts kept next to the call counts, keyed like the call counts.
SIZERS = {
    "polyring.MultiPoly.__add__": _result_terms,
    "polyring.MultiPoly.__sub__": _result_terms,
    "polyring.MultiPoly.__mul__": _result_terms,
    "polyring.MultiPoly.__rmul__": _result_terms,
    "polyring.MultiPoly.scale": _result_terms,
    "hecke_ops.apply_T": _first_arg_terms,
    "kernels.BiPoly.mul": _bipoly_terms_in,
}


class _Layer:
    __slots__ = ("name", "self_s", "spans")

    def __init__(self, name):
        self.name = name
        self.self_s = 0.0
        self.spans = name in SPAN_LAYERS


def _targets(module):
    """(owner, attribute, raw object, qualified name) for every public
    function of the module and every wrapped method of its classes."""
    modname = module.__name__
    out = []
    for name, obj in sorted(vars(module).items()):
        if (name.startswith("_") or name in _SKIPPED
                or getattr(obj, "__module__", None) != modname):
            continue
        if not isinstance(obj, type):
            if callable(obj):
                out.append((module, name, obj, name))
            continue
        for attr, raw in sorted(vars(obj).items()):
            if attr in _SKIPPED or isinstance(raw, (type, property)):
                continue
            if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
                out.append((obj, attr, raw, name + "." + attr))
    return out


class Tracer:
    """Counts and times calls into each msym layer while installed.

    ``modules`` maps each layer name in LAYERS to its loaded module.  Use as
    a context manager; afterwards ``calls``, ``terms``, ``fn_incl``,
    ``layers`` and ``spans`` hold the results.  Set ``op_index`` before each
    op so that spans carry the op they belong to.
    """

    def __init__(self, modules):
        self.modules = modules
        self.calls = {}
        self.terms = {}
        self.fn_incl = {}
        self.layers = {name: _Layer(name) for name in LAYERS}
        self.spans = []
        self.op_index = -1
        self._stack = []
        self._span_stack = []
        self._undo = []

    def _wrap(self, fn, layer, key):
        calls, terms, fn_incl = self.calls, self.terms, self.fn_incl
        stack, spans, span_stack = self._stack, self.spans, self._span_stack
        sizer = SIZERS.get(key)
        clock = time.perf_counter
        calls[key] = 0
        fn_incl[key] = 0.0
        if sizer is not None:
            terms[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] is layer:
                out = fn(*args, **kwargs)
                if sizer is not None:
                    terms[key] += sizer(args, out)
                return out
            frame = [layer, 0.0]
            if layer.spans:
                sid = len(spans)
                spans.append((key, self.op_index,
                               span_stack[-1] if span_stack else -1))
                span_stack.append(sid)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                layer.self_s += dt - frame[1]
                fn_incl[key] += dt
                if stack:
                    stack[-1][1] += dt
                if layer.spans:
                    span_stack.pop()
                    spans[sid] += (t0, t1)
            if sizer is not None:
                terms[key] += sizer(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        replaced = {}
        for lname, module in self.modules.items():
            layer = self.layers[lname]
            for owner, attr, raw, qual in _targets(module):
                key = lname + "." + qual
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, layer, key))
                else:
                    new = self._wrap(raw, layer, key)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                if owner is module:
                    replaced[id(raw)] = (raw, new)
        # Rebind every by-name import of a replaced function in the package.
        package = next(iter(self.modules.values())).__name__.split(".")[0]
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != package:
                continue
            space = vars(mod)
            for attr, val in list(space.items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val and space[attr] is val:
                    self._undo.append((mod, attr, val))
                    space[attr] = hit[1]
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
        return False

    def count(self, *keys):
        return sum(self.calls.get(k, 0) for k in keys)

    def layer_calls(self, lname):
        prefix = lname + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))
