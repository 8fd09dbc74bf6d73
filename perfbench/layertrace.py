"""Layer tracing from outside the program.

The tracer wraps the public functions of each primeshape module (layer)
and records one span per call: layer, function, parent span, start, end,
whether it raised, and for the MI kernels the kernel key and the count
of log-sum-exp terms.  Callers import some of these functions by name
(``optimizer`` imports ``mi_complex_points``, ``pas`` imports
``ccdm_encode``), so a wrapper replaces every alias of the function in
every loaded ``primeshape`` module, and ``restore`` puts each original
back.

A layer whose module or any listed function no longer exists is not
wrapped; its metrics are reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import time

#: Layer name -> (module, public functions whose calls are timed).
LAYERS = {
    "awgn_mi": ("primeshape.awgn_mi", ("mi_real_points", "mi_complex_points")),
    "optimizer": (
        "primeshape.optimizer",
        ("snr_for_rate", "optimize_time_sharing", "optimize_shaped_ask", "optimize_cqam"),
    ),
    "constellations": (
        "primeshape.constellations",
        ("build_ask", "build_cqam", "build_cqam_stretched"),
    ),
    "shaping": ("primeshape.shaping", ("ccdm_encode", "ccdm_decode")),
    "pas": ("primeshape.pas", ("generate_frames", "map_frame", "empirical_distributions")),
    "cli": ("primeshape.cli", ("main",)),
}

#: MI kernels reported per (kind, p, nodes); other keys appear in the report only.
MI_KEYS = ("complex.p7.n48", "complex.p7.n96", "real.p7.n96", "real.p13.n96")

#: Attribute marking a tracer wrapper; it holds the wrapped original.
ORIGINAL_ATTR = "__perfbench_original__"

#: Per-layer metrics printed by the traced run: name -> unit.
PER_LAYER_UNITS = {
    **{
        f"awgn_mi.{key}.{stat}": unit
        for key in MI_KEYS
        for stat, unit in (("calls", "count"), ("ms_per_call", "ms"))
    },
    "awgn_mi.busy_s": "s",
    "awgn_mi.share": "fraction",
    "awgn_mi.terms": "count",
    "awgn_mi.mterms_per_s": "Mterm/s",
    "optimizer.solves": "count",
    "optimizer.solves_per_row": "count",
    "optimizer.mi_evals_per_solve": "count",
    "optimizer.solve_ms_p50": "ms",
    "optimizer.solve_failures": "count",
    "optimizer.nu_widenings": "count",
    "optimizer.self_s": "s",
    "optimizer.row_s_max": "s",
    "constellations.builds": "count",
    "constellations.build_ms_p50": "ms",
    "shaping.ccdm_encode.calls": "count",
    "shaping.ccdm_encode.ms_per_block": "ms",
    "shaping.ccdm_decode.calls": "count",
    "shaping.ccdm_decode.ms_per_block": "ms",
    "shaping.share": "fraction",
    "pas.map_frame.calls": "count",
    "pas.map_frame.us_per_frame": "us",
    "pas.generate_frames.self_s": "s",
    "pas.empirical_distributions.ms": "ms",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
}

# span fields
LAYER, NAME, PARENT, START, END, FAILED, KEY, TERMS = range(8)


def _mi_detail(fn, kind):
    """Describe one MI call: (kernel key, log-sum-exp terms).

    terms = conditioning points x nodes^dim x points, the size of the
    distance tensor the kernel reduces.
    """
    params = inspect.signature(fn).parameters
    names = list(params)
    defaults = {k: v.default for k, v in params.items() if v.default is not v.empty}

    def detail(args, kwargs):
        a = {**defaults, **dict(zip(names, args)), **kwargs}
        n_points = len(a["points"])
        nodes = a["nodes"]
        positive = sum(1 for q in a["priors"] if q > 0.0)
        if kind == "real":
            return f"real.p{n_points}.n{nodes}", positive * nodes * n_points
        if a["condition_on"] is None:
            cond = positive
        else:
            cond = sum(1 for w in a["condition_weights"] if w != 0.0)
        p = math.isqrt(n_points)
        return f"complex.p{p}.n{nodes}", cond * nodes * nodes * n_points

    return detail


_MI_KIND = {"mi_real_points": "real", "mi_complex_points": "complex"}


def primeshape_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "primeshape" or name.startswith("primeshape."))
    ]


def wrapped_names() -> list[str]:
    """Every `module.attr` in loaded primeshape modules that is a tracer wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in primeshape_modules()
        for attr, value in vars(m).items()
        if hasattr(value, ORIGINAL_ATTR)
    ]


class Tracer:
    """Context manager that wraps the layer functions and records spans."""

    def __init__(self, layers: dict = LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        modules = primeshape_modules()
        for layer, (module_name, names) in self.layers.items():
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.missing.append(layer)
                continue
            originals = {name: getattr(module, name, None) for name in names}
            if not all(callable(fn) for fn in originals.values()):
                self.missing.append(layer)
                continue
            for name, fn in originals.items():
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, wrapper)
            self.wrapped.append(layer)

    def restore(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        detail = _mi_detail(fn, _MI_KIND[name]) if name in _MI_KIND else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key, terms = detail(args, kwargs) if detail else (None, 0)
            span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, False, key, terms]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper


def _dur(span) -> float:
    return span[END] - span[START]


def _per_call(spans, scale: float) -> float:
    """Mean duration in the given unit; 0 when the function was not called."""
    return scale * sum(map(_dur, spans)) / len(spans) if spans else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[list],
    wrapped: list[str],
    wall_s: float,
    widenings: int,
    output_bytes: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed like PER_LAYER_UNITS.

    Only layers in `wrapped` contribute; metrics of other layers are
    absent.  `trace.overhead_frac` needs the untraced wall time and is
    added by the caller.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += _dur(span)

    def self_s(field: int, value: str) -> float:
        return sum(_dur(s) - child_s[i] for i, s in enumerate(spans) if s[field] == value)

    def busy_s(layer: str) -> float:
        # outermost spans of the layer, so nested calls count once
        return sum(
            _dur(s)
            for s in spans
            if s[LAYER] == layer and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer)
        )

    def named(name: str) -> list[list]:
        return [s for s in spans if s[NAME] == name]

    out: dict[str, float] = {}
    if "awgn_mi" in wrapped:
        mi = [s for s in spans if s[LAYER] == "awgn_mi"]
        for key in MI_KEYS:
            calls = [s for s in mi if s[KEY] == key]
            out[f"awgn_mi.{key}.calls"] = len(calls)
            out[f"awgn_mi.{key}.ms_per_call"] = _per_call(calls, 1e3)
        busy = busy_s("awgn_mi")
        terms = sum(s[TERMS] for s in mi)
        out["awgn_mi.busy_s"] = busy
        out["awgn_mi.share"] = busy / wall_s
        out["awgn_mi.terms"] = terms
        out["awgn_mi.mterms_per_s"] = terms / busy / 1e6 if busy else 0.0
    if "optimizer" in wrapped:
        solves = named("snr_for_rate")
        rows = [s for s in spans if s[NAME].startswith("optimize_")]
        out["optimizer.solves"] = len(solves)
        out["optimizer.solves_per_row"] = len(solves) / len(rows) if rows else 0.0
        if "awgn_mi" in wrapped:
            solve_ids = {i for i, s in enumerate(spans) if s[NAME] == "snr_for_rate"}
            in_solve = sum(
                1 for s in spans if s[LAYER] == "awgn_mi" and s[PARENT] in solve_ids
            )
            out["optimizer.mi_evals_per_solve"] = in_solve / len(solves) if solves else 0.0
        out["optimizer.solve_ms_p50"] = 1e3 * _median([_dur(s) for s in solves])
        out["optimizer.solve_failures"] = sum(1 for s in solves if s[FAILED])
        out["optimizer.nu_widenings"] = widenings
        out["optimizer.self_s"] = self_s(LAYER, "optimizer")
        out["optimizer.row_s_max"] = max((_dur(s) for s in rows), default=0.0)
    if "constellations" in wrapped:
        builds = [s for s in spans if s[LAYER] == "constellations"]
        out["constellations.builds"] = len(builds)
        out["constellations.build_ms_p50"] = 1e3 * _median([_dur(s) for s in builds])
    if "shaping" in wrapped:
        for name in ("ccdm_encode", "ccdm_decode"):
            calls = named(name)
            out[f"shaping.{name}.calls"] = len(calls)
            out[f"shaping.{name}.ms_per_block"] = _per_call(calls, 1e3)
        out["shaping.share"] = busy_s("shaping") / wall_s
    if "pas" in wrapped:
        frames = named("map_frame")
        out["pas.map_frame.calls"] = len(frames)
        out["pas.map_frame.us_per_frame"] = _per_call(frames, 1e6)
        out["pas.generate_frames.self_s"] = self_s(NAME, "generate_frames")
        out["pas.empirical_distributions.ms"] = _per_call(named("empirical_distributions"), 1e3)
    if "cli" in wrapped:
        out["cli.self_s"] = self_s(LAYER, "cli")
        out["cli.output_bytes"] = output_bytes
    out["trace.coverage"] = sum(_dur(s) for s in spans if s[PARENT] < 0) / wall_s
    return out


def mi_calls_by_key(spans: list[list]) -> dict[str, int]:
    """Every MI kernel key seen, with its call count."""
    counts: dict[str, int] = {}
    for s in spans:
        if s[KEY] is not None:
            counts[s[KEY]] = counts.get(s[KEY], 0) + 1
    return dict(sorted(counts.items()))
