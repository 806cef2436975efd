"""Layer spans recorded from outside superhilb.

`Tracer.install` wraps the public functions of every layer module and the
operators of the ring and localized classes, and rebinds every name that a
superhilb module imported directly (`super_divmod` in `charts`,
`hilb21_atlas` in `obstruction` and `cli`, ...), so no call is missed.
Spans (name, start, end, parent) stay in memory and are written out at the
end of the run.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("ring", "localized", "parser", "matrix", "ideals", "charts",
          "obstruction", "cli")

# class methods and operators wrapped, as {layer: {class: {attr: span}}}
METHODS = {
    "ring": {"SuperPoly": {
        "__mul__": "mul", "__rmul__": "mul",
        "__add__": "add", "__radd__": "add", "__sub__": "add",
        "__rsub__": "add", "__neg__": "add",
        "__pow__": "pow",
        "substitute": "substitute",
        "as_coeff_map": "coeff_map", "coeff_of": "coeff_map",
    }},
    "localized": {"LocalizedPoly": {
        "simplified": "simplified",
        "__eq__": "eq",
        "substitute": "substitute",
        "__add__": "arith", "__radd__": "arith", "__sub__": "arith",
        "__rsub__": "arith", "__neg__": "arith", "__mul__": "arith",
        "__rmul__": "arith", "__truediv__": "arith", "__pow__": "arith",
        "reciprocal": "arith",
    }},
}

# public module functions get the span "<layer>.<function>" unless renamed
RENAME = {
    "ring.try_exact_divide": "ring.exact_divide",
    "localized.substitute_localized": "localized.substitute",
    "ideals.stratification_generators": "ideals.stratification",
    "obstruction.build_coboundary_system": "obstruction.build_system",
    "obstruction.build_full_coboundary_system": "obstruction.build_system",
    "obstruction.analyze_subsystem": "obstruction.analyze",
    "obstruction.solve_laurent_system": "obstruction.solve",
    "parser.parse_poly": "parser.parse",
    "parser.parse_localized": "parser.parse",
    "parser.parse_ring": "parser.parse",
    "parser.pretty_localized": "parser.pretty",
    "cli.cmd_transition": "cli.transition",
    "cli.cmd_split_check": "cli.split_check",
    "cli.cmd_reduce": "cli.reduce",
    "cli.cmd_strata": "cli.strata",
}

# per-layer metrics: self-time sums of one span name ("<span>_s"), counts
# made by the hooks below, and the self time of each whole layer
SPAN_METRICS = (
    "ring.mul", "ring.add", "ring.coeff_map", "ring.substitute",
    "ring.invert", "ring.exact_divide",
    "localized.simplified", "localized.eq", "localized.substitute",
    "localized.arith",
    "ideals.super_divmod", "ideals.reduce_to_basis", "ideals.raw_to_canonical",
    "ideals.stratification",
    "charts.transport_point", "charts.canonicalize", "charts.invert_transition",
    "charts.compose_rules", "charts.hilb21_atlas", "charts.verify_cocycle",
    "obstruction.build_system", "obstruction.analyze", "obstruction.solve",
    "obstruction.is_coboundary",
    "parser.parse", "parser.pretty",
    "matrix.left_inverse", "matrix.matmul",
    "cli.transition", "cli.split_check", "cli.reduce", "cli.strata",
)
COUNT_METRICS = (
    "ring.mul_calls", "ring.term_pairs", "ring.max_terms",
    "localized.simplified_calls", "localized.simplified_collapsed",
    "ideals.super_divmod_calls", "charts.rule_terms",
    "obstruction.solver_unknowns", "parser.chars", "trace.spans",
)


def per_layer_metric_names():
    """(name, unit) of every per-layer metric a traced run reports."""
    out = [(f"{span}_s", "s") for span in SPAN_METRICS]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(name, "count") for name in COUNT_METRICS]
    out.append(("trace.overhead_s", "s"))
    return out


def _terms(x):
    terms = getattr(x, "terms", None)
    return 1 if terms is None else len(terms)


def _hook_mul(counts, args, kwargs, result):
    counts["ring.mul_calls"] += 1
    counts["ring.term_pairs"] += _terms(args[0]) * _terms(args[1])
    counts["ring.max_terms"] = max(counts["ring.max_terms"], _terms(result))


def _hook_simplified(counts, args, kwargs, result):
    counts["localized.simplified_calls"] += 1
    counts["localized.simplified_collapsed"] += result.is_polynomial()


def _hook_divmod(counts, args, kwargs, result):
    counts["ideals.super_divmod_calls"] += 1


def _hook_atlas(counts, args, kwargs, result):
    counts["charts.rule_terms"] += sum(
        len(rule.num.terms) + len(rule.den.terms)
        for tmap in result.transitions.values()
        for rule in tmap.rules.values()
    )


def _hook_solve(counts, args, kwargs, result):
    system = args[0]
    bound = args[1] if len(args) > 1 else kwargs.get("degree_bound")
    if bound is None:
        bound = system.degree_bound
    counts["obstruction.solver_unknowns"] += (
        len(system.blocks) * (bound + 1) * (bound + 2) // 2
    )


def _hook_parse(counts, args, kwargs, result):
    counts["parser.chars"] += len(args[0])


def _hook_pretty(counts, args, kwargs, result):
    counts["parser.chars"] += len(result)


HOOKS = {
    "ring.mul": _hook_mul,
    "localized.simplified": _hook_simplified,
    "ideals.super_divmod": _hook_divmod,
    "charts.hilb21_atlas": _hook_atlas,
    "charts.hilb11_atlas": _hook_atlas,
    "charts.pi_v_atlas": _hook_atlas,
    "obstruction.solve": _hook_solve,
    "parser.parse": _hook_parse,
    "parser.pretty": _hook_pretty,
}


class Tracer:
    def __init__(self):
        self.enabled = False
        # spans live in flat arrays, which the garbage collector does not
        # scan, so a long trace does not slow the traced program down
        self.name_ids = {}  # span name -> id
        self.names = array("l")  # name id, by span index
        self.parents = array("l")  # by span index; -1 for a root span
        self.closed = array("l")  # span indices in closing order
        self.starts = array("d")  # by closing order
        self.ends = array("d")  # by closing order
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [span index, time covered by children]
        self._patches = []  # (owner, attribute, original)
        self._taken = 0  # spans already reported by take_round

    def wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        name_id = self.name_ids.setdefault(name, len(self.name_ids))

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.names)
            tracer.names.append(name_id)
            tracer.parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.closed.append(idx)
                tracer.starts.append(t0)
                tracer.ends.append(t1)
                tracer.self_time[name] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn):
        """Run fn() as a root span (one benchmark operation)."""
        self._stack.clear()
        self.enabled = True
        try:
            return self.wrap(name, fn)()
        finally:
            self.enabled = False
            self._stack.clear()

    def install(self):
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "superhilb" or name.startswith("superhilb.")
        }
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules[f"superhilb.{layer}"]
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr, short in methods.items():
                    orig = cls.__dict__[attr]
                    self._patches.append((cls, attr, orig))
                    setattr(cls, attr, self.wrap(f"{layer}.{short}", orig))
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrapped[id(obj)] = (obj, self.wrap(name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def take_round(self):
        """Per-layer metrics of the spans since the last call."""
        metrics = {f"{span}_s": self.self_time.get(span, 0.0)
                   for span in SPAN_METRICS}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                (t for name, t in self.self_time.items()
                 if name.startswith(layer + ".")), 0.0)
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0)
        metrics["trace.spans"] = len(self.names) - self._taken
        self._taken = len(self.names)
        self.self_time.clear()
        self.counts.clear()
        return metrics

    def write(self, path):
        """Write every span as tab-separated index, name, start, end,
        parent index (-1 for an operation's root span)."""
        names = {i: name for name, i in self.name_ids.items()}
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for idx, start, end in zip(self.closed, self.starts, self.ends):
                out.write(f"{idx}\t{names[self.names[idx]]}\t{start:.9f}\t"
                          f"{end:.9f}\t{self.parents[idx]}\n")
