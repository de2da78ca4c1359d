"""Outside-in layer trace for cycloseq, installed from the benchmark's files.

The six modules of ``cycloseq`` are the layers. ``Tracer.install`` replaces
every public function of each layer with a wrapper and rebinds that wrapper
under every name a layer module holds for it, so ``from .numtheory import
legendre`` in ``sequence``, ``autocorr`` and ``groupring`` is caught as well.
``GroupRingElement.__mul__`` looks ``mul`` up in the module globals, so the
rebinding also catches ``u * v``.

Three kinds of wrapper:

* span: records (name, start, end, parent) in memory;
* leaf: functions called ~10^5-10^6 times per run (``legendre``,
  ``is_prime``, ``is_odd_prime``) are counted and timed as a block without a
  span record, since a span per call would double the run time;
* gcd counter: every gcd the adic layer calls (``gcd_big``, ``math.gcd`` or a
  bare ``gcd``) is counted with its operand bit lengths and left untimed, so
  its time stays in the calling adic function's self time.

Work counters are exact and repeat from run to run; times do not. A function
``PER_LAYER`` names that a later version of the program no longer has, or no
longer has as a plain function, is reported in ``absent`` and its metrics
read 0.
"""

import functools
import importlib
import inspect
import math
import sys
import types
from collections import Counter
from time import perf_counter

PACKAGE = "cycloseq"
LAYERS = ("numtheory", "sequence", "autocorr", "groupring", "adic", "cli")

LEAVES = frozenset({"numtheory.legendre", "numtheory.is_prime", "numtheory.is_odd_prime"})

# Left unwrapped: a thin alias of math.gcd, counted where adic calls it.
UNTRACED = frozenset({"numtheory.gcd_big"})

# Every gcd the adic layer calls is counted under this name.
GCD = "adic.gcd"

# The per-layer metrics the benchmark reports, name -> unit.
PER_LAYER = {f"{layer}.self_s": "s" for layer in LAYERS}
PER_LAYER.update({
    "numtheory.legendre.calls": "count",
    "numtheory.is_prime.calls": "count",
    "sequence.generate.calls": "count",
    "sequence.residue_table.calls": "count",
    "autocorr.empirical_profile.self_s": "s",
    "autocorr.empirical_profile.calls": "count",
    "autocorr.empirical_profile.terms": "count",
    "autocorr.closed_form_profile.self_s": "s",
    "groupring.mul.self_s": "s",
    "groupring.mul.calls": "count",
    "groupring.mul.terms": "count",
    "adic.complexity_report.self_s": "s",
    "adic.d_star.self_s": "s",
    "adic.bits_to_int.self_s": "s",
    GCD + ".calls": "count",
    GCD + ".bits": "bits",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
})

# Functions the metrics name (layer.function.metric). One the trace does not
# wrap under that name, because it is gone or no longer a plain function, is
# listed as absent, so that its metrics never read 0 unannounced.
NAMED = sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                if name.count(".") == 2} - {GCD})


def _period(seq) -> int:
    """Period of the sequence handed to empirical_profile."""
    n = getattr(seq, "n", None)
    return n if isinstance(n, int) else len(seq)


# Exact work per call, summed into the ``<name>.terms`` counter.
TERMS = {
    "autocorr.empirical_profile": lambda args: _period(args[0]) ** 2,
    "groupring.mul": lambda args: args[0].order ** 2,
}


class _CountingMath(types.ModuleType):
    """Stand-in for ``math`` inside adic whose ``gcd`` is counted."""

    def __init__(self, gcd):
        super().__init__("math")
        self.gcd = gcd

    def __getattr__(self, name):
        return getattr(math, name)


class Tracer:
    """Spans and counters for one call of ``cycloseq.cli.main``."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, covered]
        self._stack = []
        self._in_leaf = False
        self.counts = Counter()
        self.leaf_s = Counter()  # layer -> seconds in timed leaves
        self.absent = set()

    def _span(self, name, fn):
        counts, spans, stack = self.counts, self.spans, self._stack
        terms = TERMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if terms is not None:
                try:
                    counts[name + ".terms"] += terms(args)
                except (AttributeError, IndexError, TypeError):
                    self.absent.add(name + ".terms")  # the signature changed
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
        return wrapper

    def _leaf(self, name, fn):
        layer = name.split(".")[0]
        counts, spans, stack = self.counts, self.spans, self._stack
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._in_leaf = False
                self.leaf_s[layer] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed
        return wrapper

    def _gcd(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts["adic.gcd.calls"] += 1
            counts["adic.gcd.bits"] += sum(int(x).bit_length() for x in args)
            return fn(*args)
        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and rebind each alias."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.add(layer)
        wrappers, traced = {}, set()
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                wrappers[obj] = (self._leaf if name in LEAVES else self._span)(name, obj)
                traced.add(name)
        targets = list(modules.values())
        if PACKAGE in sys.modules:
            targets.append(sys.modules[PACKAGE])
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        adic = modules.get("adic")
        gcds = [math.gcd, getattr(modules.get("numtheory"), "gcd_big", None)]
        gcd_found = False
        for attr, obj in list(vars(adic).items() if adic else ()):
            if obj is math:
                setattr(adic, attr, _CountingMath(self._gcd(math.gcd)))
                gcd_found = True
            elif callable(obj) and any(obj is g for g in gcds):
                setattr(adic, attr, self._gcd(obj))
                gcd_found = True
        self.absent.update(set(NAMED) - traced)
        if not gcd_found:
            self.absent.add(GCD)

    def summary(self) -> dict:
        """Self time per span name and per layer, plus the exact counters.

        A span's self time is its duration minus what its child spans and
        timed leaves cover. A layer's self time adds up its spans' self time
        and its timed leaves.
        """
        by_name = Counter()
        for name, start, end, _parent, covered in self.spans:
            by_name[name] += end - start - covered
        by_layer = Counter(self.leaf_s)
        for name, seconds in by_name.items():
            by_layer[name.split(".")[0]] += seconds
        return {"self_s": dict(by_name), "layer_self_s": dict(by_layer),
                "counts": dict(self.counts), "absent": sorted(self.absent),
                "spans": len(self.spans)}

    def span_records(self) -> list:
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent, _covered in self.spans]
