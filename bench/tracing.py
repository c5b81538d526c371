"""Per-layer spans recorded from outside the library.

Tracer.install() replaces library names with timing wrappers at the place
each caller resolves them: the module global a caller looks up (e.g.
``diracweyl.fullline.halfline_m`` for fullline_m's calls) or the class
attribute for methods.  uninstall() puts the originals back, so untimed
and timed passes run the unmodified library.  Spans are kept in memory as
(name, start, end, parent, pass) and written out when the run ends.
"""

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name); a name missing from the library is
# skipped, so a later refactor shows up as an absent layer, not a crash
WRAP_POINTS = (
    ("diracweyl.cli", "main", "cli.main"),
    ("diracweyl.cli", "load_potential", "foundation.load"),
    ("diracweyl.cli", "halfline_m", "weyldisk.halfline"),
    ("diracweyl.fullline", "halfline_m", "weyldisk.halfline"),
    ("diracweyl.spectral", "halfline_m", "weyldisk.halfline"),
    ("diracweyl.cli", "fullline_m", "fullline.fullline_m"),
    ("diracweyl.fullline", "fullline_m", "fullline.fullline_m"),
    ("diracweyl.spectral", "fullline_m", "fullline.fullline_m"),
    ("diracweyl.fullline", "principal_logm", "fullline.logm"),
    ("diracweyl.spectral", "principal_logm", "fullline.logm"),
    ("diracweyl.cli", "upsilon", "fullline.upsilon"),
    ("diracweyl.spectral", "upsilon", "fullline.upsilon"),
    ("diracweyl.cli", "band_spectrum", "spectral.band_spectrum"),
    ("diracweyl.spectral", "band_spectrum", "spectral.band_spectrum"),
    ("diracweyl.spectral", "monodromy", "spectral.monodromy"),
    ("diracweyl.cli", "normal_form", "gauge.reduce"),
    ("diracweyl.cli", "gauge_with_omega", "gauge.reduce"),
    ("diracweyl.gauge", "gauge_factors", "gauge.factors"),
    ("diracweyl.gauge", "solve_ivp", "gauge.ode"),
    ("diracweyl.propagator", "solve_ivp", "propagator.ode"),
    ("diracweyl.propagator.Propagator", "__init__", "propagator.init"),
    ("diracweyl.propagator.Propagator", "transfer", "propagator.transfer"),
    ("diracweyl.foundation.PotentialSpec", "eval", "foundation.eval"),
)


def _resolve(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, pass)
        self.counters = []       # per pass: name -> value
        self.pass_id = -1
        self._stack = []
        self._saved = []
        self._props = []         # Propagators built in the current pass

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "weyldisk.halfline": self._on_halfline,
            "gauge.factors": self._on_gauge_factors,
            "propagator.transfer": self._on_transfer,
            "propagator.init": self._on_init,
        }
        for owner_path, attr, name in WRAP_POINTS:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                continue
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hooks.get(name)))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.pass_id)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- counters ---------------------------------------------------------

    def _count(self, key, value, op=None):
        c = self.counters[self.pass_id]
        c[key] = op(c.get(key, value), value) if op else c.get(key, 0) + value

    def _on_halfline(self, args, kwargs, h):
        self._count("weyldisk.sweeps", h.sweeps)
        self._count("weyldisk.c_final.max", abs(h.c_final - h.x0), max)

    def _on_gauge_factors(self, args, kwargs, f):
        self._count("gauge.drift", f.drift, max)

    def _on_transfer(self, args, kwargs, t):
        xa = args[1] if len(args) > 1 else kwargs["xa"]
        xb = args[2] if len(args) > 2 else kwargs["xb"]
        self._count("propagator.transfer.span", abs(xb - xa))

    def _on_init(self, args, kwargs, _):
        self._props.append(args[0])

    def begin_pass(self):
        self.pass_id += 1
        self.counters.append({})
        self._props = []

    def end_pass(self, runtime_warnings):
        steps = sum(getattr(p, "ode_steps", 0) for p in self._props)
        self._props = []
        self._count("propagator.ode.steps", steps)
        self._count("propagator.runtime_warnings", runtime_warnings)

    # -- aggregation ------------------------------------------------------

    def _pass_spans(self, pid):
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == pid]

    def layer_times(self, pid):
        """name -> (calls, inclusive s, self s) for one pass.  Inclusive
        time counts a span only when no ancestor has the same name."""
        spans = self.spans
        child = defaultdict(float)
        for _, (name, t0, t1, parent, _) in self._pass_spans(pid):
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, parent, _) in self._pass_spans(pid):
            rec = out[name]
            rec[0] += 1
            rec[2] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec[1] += t1 - t0
        return out

    def covered(self, pid, names):
        """Time under any span of the given names (nesting counted once)."""
        spans = self.spans
        total = 0.0
        for _, (name, t0, t1, parent, _) in self._pass_spans(pid):
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def under(self, pid, name, ancestor):
        """Number of ``name`` spans that have an ``ancestor`` span above."""
        spans = self.spans
        n = 0
        for _, (nm, _, _, parent, _) in self._pass_spans(pid):
            if nm != name:
                continue
            p = parent
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            n += p >= 0
        return n

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": names,
                                 "columns": ["name", "start", "end",
                                             "parent", "pass"]}) + "\n")
            for name, t0, t1, parent, pid in self.spans:
                fh.write(f"{index[name]},{t0:.9f},{t1:.9f},{parent},{pid}\n")
