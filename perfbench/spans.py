"""In-memory span tracer that wraps emitternet's public functions from outside.

``install`` replaces every public function of the traced modules (and the
public methods of ``RunConfig``) with a wrapper that records a span: name,
start, end, parent span and the command-run identifier. Because
``from .x import f`` binds a second name, every ``emitternet*`` module
attribute that is the original function object is replaced, not only the
defining one. Spans stay in a list until ``dump`` writes them out.

A few functions also record counters (work done) taken from their
arguments or results, so per-layer ratios are measured where the work
happens.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time
from typing import Any, Callable

LAYERS = ("cli", "config", "spectral", "lineio", "overlap", "spatial", "ple", "register")


def _lineio_rows(args, result):
    a = args()
    rows = len(result) if "records" not in a else len(a["records"])
    return {"rows": rows, "bytes": os.path.getsize(a["path"])}


def _bootstrap(args, result):
    a = args()
    return {"n": len(a["emitters"]), "resamples": int(a["resamples"])}


# Counters recorded per call, keyed by span name. Each takes a callable that
# binds the call's arguments (only when needed) and the call's result.
COUNTERS: dict[str, Callable] = {
    "spectral.sample_ensemble": lambda args, r: {"n": len(r)},
    "spectral.sample_line_positions": lambda args, r: {"n": len(r[0])},
    "lineio.write_line_list": _lineio_rows,
    "lineio.read_line_list": _lineio_rows,
    "overlap.overlap_curve": lambda args, r: {"n": r.n_emitters, "pairs": r.n_pairs},
    "overlap.bootstrap_std_error": _bootstrap,
    "overlap.monte_carlo_threshold": lambda args, r: {
        "trials": r.trials,
        "censored": r.n_censored,
    },
    "spatial.occupancy_stats": lambda args, r: {"trials": r.trials},
    "spatial.spectral_arrangement_rate": lambda args, r: {
        "trials": int(args()["trials"]),
        "rate": float(r),
    },
    "ple.fit_multi_lorentzian": lambda args, r: {
        "nfev": r.iterations,
        "converged": int(bool(r.converged)),
    },
    "register.run_ghz_chain_with_loss": lambda args, r: {"branches": len(r.mixture.branches)},
}


class Tracer:
    """Records spans as ``[id, parent, name, start, end, run, counters]``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, self.run_id, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list, counters: dict | None = None) -> None:
        span[4] = time.perf_counter()
        span[6] = counters
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span)
                raise
            if counter is None:
                self.end(span)
            else:

                def bound() -> dict[str, Any]:
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    return ba.arguments

                self.end(span, counter(bound, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public function of each layer module in every binding."""
        from emitternet.config import RunConfig

        replaced: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"emitternet.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    replaced[id(value)] = self.wrap(value, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "emitternet" or mod_name.startswith("emitternet."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced and inspect.isfunction(value):
                        setattr(module, attr, replaced[id(value)])
        for attr, value in list(vars(RunConfig).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, classmethod):
                setattr(RunConfig, attr, classmethod(self.wrap(value.__func__, f"config.{attr}")))
            elif inspect.isfunction(value):
                setattr(RunConfig, attr, self.wrap(value, f"config.{attr}"))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Profile:
    """Per-name and per-layer times and counters over the processes of one pass.

    ``processes`` holds ``(wall_s, spans)`` per process. A span's self time
    is its duration minus the time its child spans cover; a process's time
    outside any root span (interpreter start and exit) is the ``startup``
    layer's self time, so the self times of one pass add up to its wall time.
    """

    def __init__(self, processes: list[tuple[float, list[list]]]) -> None:
        self.self_s: dict[str, float] = {}
        self.time_s: dict[str, float] = {}
        self.layer_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, list[dict]] = {}
        for wall, spans in processes:
            done = [s for s in spans if s[4] is not None]
            names = {s[0]: s[2] for s in done}
            parent = {s[0]: s[1] for s in done}
            child_s: dict[int, float] = {}
            for s in done:
                if s[1] is not None:
                    child_s[s[1]] = child_s.get(s[1], 0.0) + s[4] - s[3]
            roots = sum(s[4] - s[3] for s in done if s[1] is None)
            self._add(self.self_s, "startup", wall - roots)
            for s in done:
                name, dur = s[2], s[4] - s[3]
                layer = _layer(name)
                self._add(self.self_s, layer, dur - child_s.get(s[0], 0.0))
                self.calls[name] = self.calls.get(name, 0) + 1
                if s[6]:
                    self.counters.setdefault(name, []).append(s[6])
                above = []
                p = s[1]
                while p is not None:
                    above.append(names[p])
                    p = parent[p]
                if name not in above:
                    self._add(self.time_s, name, dur)
                if layer not in map(_layer, above):
                    self._add(self.layer_s, layer, dur)

    @staticmethod
    def _add(table: dict[str, float], key: str, value: float) -> None:
        table[key] = table.get(key, 0.0) + value

    def time(self, name: str) -> float:
        """Wall time inside ``name``, counting nested calls of it once."""
        return self.time_s.get(name, 0.0)

    def total(self, name: str, key: str) -> float:
        return sum(c[key] for c in self.counters.get(name, ()))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a layer the pass never entered reads 0."""
        t, total = self.time, self.total

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        boot = "overlap.bootstrap_std_error"
        boot_pairs = sum(
            c["resamples"] * c["n"] * (c["n"] - 1) / 2 for c in self.counters.get(boot, ())
        )
        dense_n = [
            c["n"] for k in ("overlap.overlap_curve", boot) for c in self.counters.get(k, ())
        ]
        line_list = ("lineio.write_line_list", "lineio.read_line_list")
        chain = "spatial.spectral_arrangement_rate"
        chain_trials = total(chain, "trials")
        fits = self.calls.get("ple.fit_multi_lorentzian", 0)
        m = {
            "config.resolve_s": self.layer_s.get("config", 0.0),
            "spectral.sample_ensemble_s": t("spectral.sample_ensemble"),
            "spectral.emitters_per_s": ratio(
                total("spectral.sample_ensemble", "n"), t("spectral.sample_ensemble")
            ),
            "spectral.summarize_s": t("spectral.summarize_ensemble"),
            "spectral.line_arrays_s": t("spectral.line_arrays"),
            "spectral.line_arrays_calls": self.calls.get("spectral.line_arrays", 0),
            "spectral.sample_line_positions_calls": self.calls.get(
                "spectral.sample_line_positions", 0
            ),
            "spectral.sample_line_positions_s": t("spectral.sample_line_positions"),
            "lineio.write_line_list_s": t("lineio.write_line_list"),
            "lineio.read_line_list_s": t("lineio.read_line_list"),
            "lineio.rows": sum(total(k, "rows") for k in line_list),
            "lineio.bytes": sum(total(k, "bytes") for k in line_list),
            "lineio.write_table_s": t("lineio.write_table"),
            "overlap.curve_s": t("overlap.overlap_curve"),
            "overlap.pairs": total("overlap.overlap_curve", "pairs"),
            # One dense n x n float64 matrix, from array sizes, not measured.
            "overlap.pair_bytes_computed": 8.0 * max(dense_n, default=0) ** 2,
            "overlap.bootstrap_s": t(boot),
            "overlap.bootstrap_calls": self.calls.get(boot, 0),
            "overlap.bootstrap_resamples": total(boot, "resamples"),
            "overlap.bootstrap_ns_per_pair": ratio(t(boot) * 1e9, boot_pairs),
            "overlap.mc_threshold_s": t("overlap.monte_carlo_threshold"),
            "overlap.mc_trials": total("overlap.monte_carlo_threshold", "trials"),
            "overlap.mc_censored_ratio": ratio(
                total("overlap.monte_carlo_threshold", "censored"),
                total("overlap.monte_carlo_threshold", "trials"),
            ),
            "overlap.histogram_s": t("overlap.histogram"),
            "overlap.birthday_threshold_s": t("overlap.birthday_threshold"),
            "spatial.occupancy_s": t("spatial.occupancy_stats"),
            "spatial.occupancy_trials": total("spatial.occupancy_stats", "trials"),
            "spatial.chain_s": t(chain),
            "spatial.chain_trials": chain_trials,
            "spatial.chain_us_per_trial": ratio(t(chain) * 1e6, chain_trials),
            "spatial.chain_hit_ratio": ratio(
                sum(c["rate"] * c["trials"] for c in self.counters.get(chain, ())), chain_trials
            ),
            "spatial.scene_s": t("spatial.sample_scene"),
            "ple.synthesize_s": t("ple.synthesize"),
            "ple.initial_guess_s": t("ple.initial_guess"),
            "ple.fit_s": t("ple.fit_multi_lorentzian"),
            "ple.fit_nfev": total("ple.fit_multi_lorentzian", "nfev"),
            "ple.fit_converged_ratio": ratio(total("ple.fit_multi_lorentzian", "converged"), fits),
            "ple.classify_s": t("ple.classify_pair_spectrum"),
            "register.chain_s": t("register.run_ghz_chain"),
            "register.lossy_chain_s": t("register.run_ghz_chain_with_loss"),
            "register.sweep_s": t("register.fidelity_vs_eta_sweep"),
            "register.herald_pair_calls": self.calls.get("register.herald_pair", 0),
            "register.branches": total("register.run_ghz_chain_with_loss", "branches"),
        }
        for layer in ("startup", "import", *LAYERS, "script"):
            m[f"self.{layer}_s"] = self.self_s.get(layer, 0.0)
        return m
