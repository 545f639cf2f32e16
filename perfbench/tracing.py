"""Run-time tracing of the calls between wzforms modules.

A ``Tracer`` replaces each boundary function with a timing wrapper in every
namespace that binds it (the defining module, each module that imported the
name, the package itself, or the class for a method), so a call is caught
where the caller looks the name up.  ``restore`` puts every original back and
verifies that it did.

Spans nest: a boundary's ``self_s`` is its time minus the time of the
boundary calls it made.  ``Polynomial.__mul__`` and ``divexact`` are called
too often for spans; they are aggregate counters and timers whose time is
not taken out of the enclosing span's self time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

MARK = "_perfbench_wrapped"


class TraceError(RuntimeError):
    """A boundary is missing, or a wrapper was left installed."""


class Stat:
    __slots__ = ("calls", "self_s", "counts", "seen", "maximum")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}
        self.seen = set()
        self.maximum = 0

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def ratio(self, key):
        return self.counts.get(key, 0) / self.calls if self.calls else 0.0


def _chars(st, args, result):
    st.bump("chars", len(args[0]))


def _gcd(st, args, result):
    if not result.is_constant:
        st.bump("nontrivial")
    key = (args[0], args[1])
    if key in st.seen:
        st.bump("repeat")
    st.seen.add(key)


def _repeat(st, args, result):
    if args[0] in st.seen:
        st.bump("repeat")
    st.seen.add(args[0])


def _base_degree(st, args, result):
    # _layers_by_inversion(R, U, b, m, i)
    st.maximum = max(st.maximum, args[2].degree_in(args[4]))


def _none(st, args, result):
    if result is None:
        st.bump("none")


def _ratio(key):
    return lambda st: st.ratio(key)


# (metric prefix, module, attribute in the module, observer, extra stats)
# An extra stat is (name, unit, value of a Stat).
BOUNDARIES = (
    ("cli.run_command", "cli", "run_command", None, ()),
    ("parser.parse_expression", "parser", "parse_expression", _chars,
     (("chars", "count", lambda st: st.counts.get("chars", 0)),)),
    ("shifts.is_wz_form", "shifts", "is_wz_form", None, ()),
    ("shifts.delta", "shifts", "delta", None, ()),
    ("polys.poly_gcd", "polys", "poly_gcd", _gcd,
     (("nontrivial_ratio", "ratio", _ratio("nontrivial")),
      ("repeat_ratio", "ratio", _ratio("repeat")))),
    ("polys.Polynomial.mul", "polys", "Polynomial.__mul__", None, ()),
    ("polys.Polynomial.divexact", "polys", "Polynomial.divexact", None, ()),
    ("factor.factor_polynomial", "factor", "factor_polynomial", _repeat,
     (("repeat_ratio", "ratio", _ratio("repeat")),)),
    ("rationals.partial_fraction", "rationals", "_partial_fraction_full", None, ()),
    ("rationals.linear_pole", "rationals", "_layers_at_linear_pole", None, ()),
    ("rationals.inversion", "rationals", "_layers_by_inversion", _base_degree,
     (("base_degree_max", "count", lambda st: st.maximum),)),
    ("rationals.substitute_linear", "rationals", "substitute_linear", None, ()),
    ("abramov.reduce", "abramov", "_reduce_structured", None, ()),
    ("abramov.solve_step_difference", "abramov", "solve_step_difference", _none,
     (("none_ratio", "ratio", _ratio("none")),)),
    ("intlinear.integer_linear_decompose", "intlinear",
     "integer_linear_decompose", None, ()),
    ("wzform.generate", "wzform", "generate", None, ()),
    ("wzform.decompose", "wzform", "decompose", None, ()),
    ("wzform.signed_range_sum", "wzform", "signed_range_sum", None, ()),
    ("wzform.conjugate_polygamma", "wzform", "conjugate_polygamma", None, ()),
    ("wzform.root_sums", "wzform", "_root_sum_terms", None, ()),
)
AGGREGATES = {"polys.Polynomial.mul", "polys.Polynomial.divexact"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, _, _, _, extras in BOUNDARIES:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out.extend((f"{name}.{stat}", unit) for stat, unit, _ in extras)
    return out


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "wzforms" or name.startswith("wzforms."))]


def _package_classes():
    classes = []
    for mod in package_modules():
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                classes.append(value)
    return classes


def _resolve(module, attr):
    """The original object and every (namespace, name) that binds it: for a
    method, every name of its class bound to it (``Polynomial.__rmul__`` is
    ``__mul__``), else every module of the package."""
    mod = importlib.import_module(f"wzforms.{module}")
    owner, _, name = attr.rpartition(".")
    space = getattr(mod, owner, None) if owner else mod
    if space is None or name not in vars(space):
        raise TraceError(f"boundary wzforms.{module}.{attr} does not exist")
    original = vars(space)[name]
    if getattr(original, MARK, False):
        raise TraceError(f"boundary wzforms.{module}.{attr} is already wrapped")
    spaces = [space] if owner else package_modules()
    bindings = [(ns, key) for ns in spaces
                for key, value in vars(ns).items() if value is original]
    return original, bindings


def installed_wrappers():
    """Names in the package that still hold a tracing wrapper."""
    found = []
    for ns in package_modules() + _package_classes():
        for key, value in vars(ns).items():
            if getattr(value, MARK, False):
                found.append(f"{getattr(ns, '__name__', ns)}.{key}")
    return found


class Tracer:
    """Wraps every boundary between ``install`` and ``restore``; ``stats``
    holds one Stat per boundary."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in BOUNDARIES}
        self._patched = []
        self._spans = []
        self._aggregates = []

    def install(self):
        try:
            for name, module, attr, observe, _ in BOUNDARIES:
                original, bindings = _resolve(module, attr)
                stack = self._aggregates if name in AGGREGATES else self._spans
                wrapper = _wrap(original, self.stats[name], stack, observe)
                for ns, key in bindings:
                    setattr(ns, key, wrapper)
                    self._patched.append((ns, key, original))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        wrong = [f"{getattr(ns, '__name__', ns)}.{key}"
                 for ns, key, original in self._patched
                 if vars(ns).get(key) is not original]
        self._patched.clear()
        left = installed_wrappers()
        if wrong or left:
            raise TraceError(f"tracing wrappers not removed: {wrong + left}")

    def metrics(self):
        out = {}
        for name, _, _, _, extras in BOUNDARIES:
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            for stat, _, value in extras:
                out[f"{name}.{stat}"] = value(st)
        return out

    def counts(self):
        """Everything but the timers: these must repeat exactly."""
        return {key: value for key, value in self.metrics().items()
                if not key.endswith(".self_s")}


def _wrap(fn, st, stack, observe):
    clock = perf_counter

    def wrapper(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - t0
            st.self_s += elapsed - stack.pop()
            st.calls += 1
            if stack:
                stack[-1] += elapsed
        if observe is not None:
            observe(st, args, result)
        return result

    wrapper.__wrapped__ = fn
    setattr(wrapper, MARK, True)
    return wrapper
