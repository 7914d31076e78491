"""Per-layer spans recorded from the benchmark's side of the calls.

Each traced function is replaced, at every spectile module binding that
refers to it, by a wrapper that records a span while tracing is enabled.
Internal calls are therefore seen too: spectrum.verify_orthogonality calls
the wrapped spectrum.ft_indicator binding.  Nothing in spectile is edited
on disk; the wrappers live only in the benchmark process.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" attributes wrap the method.
TARGETS = (
    ("fourier.ft_indicator", "spectile.fourier", "ft_indicator"),
    ("spectrum.verify_orthogonality", "spectile.spectrum", "verify_orthogonality"),
    ("spectrum.patch", "spectile.spectrum", "patch"),
    ("spectrum.make_patch", "spectile.spectrum", "make_patch"),
    ("spectrum.condition_C2_check", "spectile.spectrum", "condition_C2_check"),
    ("spectrum.uniqueness_check", "spectile.spectrum", "uniqueness_check"),
    ("spectrum.verify_density", "spectile.spectrum", "verify_density"),
    ("spectrum.decide_spectral", "spectile.spectrum", "decide_spectral"),
    ("tiling.points_in_ball", "spectile.tiling", "Lattice.points_in_ball"),
    ("tiling.venkov_mcmullen", "spectile.tiling", "venkov_mcmullen"),
    ("tiling.lattice_T", "spectile.tiling", "lattice_T"),
    ("tiling.packing_verify", "spectile.tiling", "packing_verify"),
    ("tiling.covering_verify", "spectile.tiling", "covering_verify"),
    ("tiling.is_prism", "spectile.tiling", "is_prism"),
    ("geometry.zonotope", "spectile.geometry", "zonotope"),
    ("geometry.from_vertices", "spectile.geometry", "from_vertices"),
    ("symmetry.symmetry_report", "spectile.symmetry", "symmetry_report"),
    ("symmetry.tau_vectors", "spectile.symmetry", "tau_vectors"),
    ("linalg.hnf_rational", "spectile.linalg", "hnf_rational"),
    ("oracle.multiplicity_sample", "spectile.oracle", "multiplicity_sample"),
    ("report.analyze", "spectile.report", "analyze"),
    ("catalog.resolve_input", "spectile.catalog", "resolve_input"),
    ("cli.main", "spectile.cli", "main"),
    ("cli.analyze", "spectile.cli", "_cmd_analyze"),
    ("cli.fourier", "spectile.cli", "_cmd_fourier"),
    ("cli.spectrum", "spectile.cli", "_cmd_spectrum"),
)

CLI_SPANS = ("cli.main", "cli.analyze", "cli.fourier", "cli.spectrum")


class Tracer:
    """Span totals, self times and call counts, per traced function.

    A span's total counts only its outermost activation, so recursion does
    not double it; its self time is its duration minus its child spans.
    """

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self._active = Counter()
        self._child = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            self._active[name] += 1
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._child.pop()
                self._active[name] -= 1
                self.self_time[name] += dt - child
                if not self._active[name]:
                    self.total[name] += dt
                if self._child:
                    self._child[-1] += dt

        return traced

    def install(self):
        """Wrap every target at every spectile module binding."""
        spectile_modules = [m for n, m in sys.modules.items() if n == "spectile" or n.startswith("spectile.")]
        for name, module, attr in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig)
            for mod in spectile_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def layer_metrics(self, names) -> dict:
        """The per-layer metrics of one round, for the names BENCHMARK.json
        declares.  The suffix says what a name reads: `_calls` a call
        count, `_us_per_call` total microseconds per call, `_self_s` a self
        time, `_s` a total.  `cli.self_s` is the self time of the CLI spans
        together: argument parsing, file reading and serialization."""
        out = {}
        for name in names:
            if name == "cli.self_s":
                out[name] = sum(self.self_time[n] for n in CLI_SPANS)
                continue
            for suffix, read in SUFFIXES:
                if name.endswith(suffix):
                    span = name[: -len(suffix)]
                    if span not in SPANS:
                        raise KeyError(f"per-layer metric {name}: no span {span} is traced")
                    out[name] = read(self, span)
                    break
            else:
                raise KeyError(f"per-layer metric {name}: unknown suffix")
        return out


SPANS = {name for name, _, _ in TARGETS}
# tried in order: a name ending in _self_s also ends in _s
SUFFIXES = (
    ("_calls", lambda t, span: t.calls[span]),
    ("_us_per_call", lambda t, span: 1e6 * t.total[span] / t.calls[span] if t.calls[span] else 0.0),
    ("_self_s", lambda t, span: t.self_time[span]),
    ("_s", lambda t, span: t.total[span]),
)
