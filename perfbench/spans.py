"""Per-layer tracing from outside fsing.

``install`` replaces each public function below, in every fsing module that
binds it, with a wrapper that records a span per call.  Spans nest through
a stack, so a layer's self time is its span's duration minus the time of
the spans it caused.  Counts are read from the arguments and the result at
the same boundary.  Nothing is patched unless ``install`` is called, and
the benchmark calls it only in the forked child of a traced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

from fsing.errors import DegreeGuardError, NonconvergenceError

MARK = "__perfbench_span__"


def _terms_out(args, result):
    return {"terms_out": len(result.terms)}


def _root(args, result):
    return {"terms_in": sum(len(g.terms) for g in args[0].generators), "gens_out": len(result.generators)}


def _basis(args, result):
    return {"gens_in": len(args[0].generators), "size_out": len(result)}


def _gens_out(args, result):
    return {"gens_out": len(result.generators)}


def _sigma(args, result):
    return {"iterations": result.iterations, "levels": result.e_max_used}


def _zero(args, result):
    return {"zero": int(result.is_zero())}


def _exit(args, result):
    return {"exit_nonzero": int(result != 0)}


# span name -> (module, attribute path, counts from (args, result), count names)
SPANS = {
    "ring.mul": ("fsing.ring", "Polynomial.__mul__", _terms_out, ("terms_out",)),
    "ring.pow": ("fsing.ring", "Polynomial.__pow__", _terms_out, ("terms_out",)),
    "frobenius.root": ("fsing.frobenius", "frobenius_root", _root, ("terms_in", "gens_out")),
    "groebner.basis": ("fsing.groebner", "Ideal.groebner_basis", _basis, ("gens_in", "size_out")),
    "groebner.normal_form": ("fsing.groebner", "normal_form", _zero, ("zero",)),
    "groebner.image_in_quotient": ("fsing.groebner", "Ideal.image_in_quotient", None, ()),
    "newton.hull": ("fsing.newton", "newton_hull", None, ()),
    "newton.ideal": ("fsing.newton", "newton_ideal", None, ()),
    "newton.closure": ("fsing.newton", "integral_closure_power", _gens_out, ("gens_out",)),
    "newton.power": ("fsing.newton", "MonomialIdeal.power", _gens_out, ("gens_out",)),
    "newton.jumps": ("fsing.newton", "jumping_candidates", None, ()),
    "nonfpure.sigma": ("fsing.nonfpure", "sigma", _sigma, ("iterations", "levels")),
    "nonfpure.tau_b": ("fsing.nonfpure", "tau_b", None, ()),
    "restriction.check": ("fsing.restriction", "check_restriction", None, ()),
    "cli.run": ("fsing.cli", "run", _exit, ("exit_nonzero",)),
}

# Errors counted where they leave a span: (span, exception, metric).
ERRORS = (
    ("groebner.basis", DegreeGuardError, "groebner.guard_errors"),
    ("nonfpure.sigma", NonconvergenceError, "nonfpure.nonconvergence"),
    ("nonfpure.tau_b", NonconvergenceError, "nonfpure.nonconvergence"),
)


class Tracer:
    """Span stack and per-span totals for one process."""

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {
            name: {"self_s": 0.0, "calls": 0, **dict.fromkeys(spec[3], 0)} for name, spec in SPANS.items()
        }
        self.errors: dict[str, int] = {counter: 0 for _, _, counter in ERRORS}
        self.stack: list[list] = []
        self.recording = False

    def wrap(self, name, fn, count):
        totals = self.totals[name]
        errors = [(exc, counter) for span, exc, counter in ERRORS if span == name]
        # A cached basis costs nothing; only calls that compute one count.
        cached = (lambda args: args[0]._basis is not None) if name == "groebner.basis" else (lambda args: False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording or cached(args):
                return fn(*args, **kwargs)
            span = [perf_counter(), 0.0]  # start, time covered by child spans
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                for kind, counter in errors:
                    if isinstance(exc, kind):
                        self.errors[counter] += 1
                raise
            finally:
                duration = perf_counter() - span[0]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += duration
                totals["self_s"] += duration - span[1]
                totals["calls"] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    totals[key] += value
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function across loaded fsing
        modules, then check that no binding of an original is left."""
        owners = {module: importlib.import_module(module) for module, *_ in SPANS.values()}
        modules = [m for key, m in sys.modules.items() if key == "fsing" or key.startswith("fsing.")]
        originals = {}
        for name, (module, path, count, _) in SPANS.items():
            owner = owners[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            originals[name] = fn
            wrapper = self.wrap(name, fn, count)
            if classes:
                setattr(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        for mod in modules:
            for key, value in vars(mod).items():
                for name, fn in originals.items():
                    if value is fn:
                        raise RuntimeError(f"{mod.__name__}.{key} still binds the untraced {name}")

    def metrics(self) -> dict[str, float]:
        """Flat per-layer totals, e.g. ``ring.mul.self_s`` and ``ring.mul.calls``."""
        out: dict[str, float] = {}
        for name, totals in self.totals.items():
            for key, value in totals.items():
                out[f"{name}.{key}"] = value
        out.update(self.errors)
        return out


def installed_wrappers() -> list[str]:
    """Bindings in loaded fsing modules and their classes that hold a wrapper."""
    found = []
    for key, mod in list(sys.modules.items()):
        if key != "fsing" and not key.startswith("fsing."):
            continue
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type):
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            found += [f"{key}.{a}" for a, v in owners if hasattr(v, MARK)]
    return found
