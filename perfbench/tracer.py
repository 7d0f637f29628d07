"""Outside-in span tracer for fidte's layers.

The tracer replaces public functions on the modules that import them (for
example ``fidte.sampler.energy_gradients``, which the sampler looks up in its
own namespace) with timing wrappers.  Each call records one span
``(name, start, end, parent, meta)`` in memory; ``restore`` puts every
original function back.  Nothing inside fidte is edited.

``summarize`` turns a span list into per-name counts, total time and self
time (a span's duration minus the part covered by its direct children), and
``layer_metrics`` maps that summary onto the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import time

# Role of an fidte network, read from its output width: the data-model
# surfaces c(x) and tau(x) have one output, the CQR quantile nets two, and
# the inverse network one per theta slot (always more than two).
_ROLE_BY_WIDTH = {1: "model", 2: "q"}


def nn_role(params) -> str:
    return _ROLE_BY_WIDTH.get(params.spec.d_out, "inv")


def _arg(args, kwargs, index: int, name: str, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _nn_label(direction: str):
    def label(args, kwargs):
        return f"nn.{nn_role(args[0])}_{direction}"
    return label


def _pass_label(args, kwargs):
    need_z = _arg(args, kwargs, 6, "need_z", True)
    need_w = _arg(args, kwargs, 7, "need_w", True)
    if need_z and not need_w:
        return "engine.z_pass"
    if need_w and not need_z:
        return "engine.w_pass"
    return "engine.zw_pass"


def _cqr_label(args, kwargs):
    return f"cqr.ite.{_arg(args, kwargs, 3, 'mode', 'naive')}"


def _efi_iterations(bound) -> int:
    cfg = bound.arguments["config"]
    return cfg.init_iters + cfg.k_burn + cfg.m_keep


# (module, attribute, span name or label(args, kwargs), meta(bound) or None).
# meta receives the inspect-bound arguments, which costs microseconds, so it
# is set only on calls made a few times per command, never per iteration.
MINIMAL_POINTS = [
    ("fidte.cli", "load_config", "config.resolve", None),
    ("fidte.runner", "run_efi", "sampler.run_efi", _efi_iterations),
]

FULL_POINTS = MINIMAL_POINTS + [
    ("fidte.cqr", "pinball_fit", "cqr.pinball_fit", None),
    ("fidte.runner", "generate", "datagen.generate", None),
    ("fidte.sampler", "energy_gradients", _pass_label, None),
    ("fidte.sampler", "energy", "engine.record", None),
    ("fidte.sampler", "feature_matrix", "engine.feature_matrix", None),
    ("fidte.engine", "feature_matrix", "engine.feature_matrix", None),
    ("fidte.engine", "mlp_forward_batch", _nn_label("forward"), None),
    ("fidte.engine", "mlp_backward_batch", _nn_label("backward"), None),
    ("fidte.sampler", "sghmc_z_step", "sampler.z_step", None),
    ("fidte.sampler", "sgd_w_step", "sampler.w_step", None),
    ("fidte.sampler", "log_prior_grad", "prior.grad", None),
    ("fidte.runner", "ate_interval", "inference.ate", None),
    ("fidte.runner", "ite_intervals", "inference.ite", None),
    ("fidte.runner", "pehe", "inference.pehe", None),
    ("fidte.runner", "cqr_ite", _cqr_label, None),
    ("fidte.cqr", "mlp_forward_batch", _nn_label("forward"), None),
    ("fidte.cqr", "mlp_backward_batch", _nn_label("backward"), None),
    ("fidte.runner", "write_rows_csv", "runner.write", None),
    ("fidte.cli", "write_rows_csv", "runner.write", None),
]


class Tracer:
    """Span recorder that wraps module attributes and can undo the wrapping."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, module, attr: str, name, meta=None) -> None:
        original = getattr(module, attr)
        signature = inspect.signature(original) if meta is not None else None
        spans, stack, clock = self.spans, self._stack, time.monotonic

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            info = None
            if meta is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = meta(bound)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, info)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def install(self, points) -> None:
        for mod_name, attr, name, meta in points:
            self.wrap(importlib.import_module(mod_name), attr, name, meta)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def summarize(spans) -> dict:
    """Per span name: count, total and self seconds, and efi-scoped counts.

    ``efi_count`` counts the spans of that name that ran inside a
    ``sampler.run_efi`` span, so per-iteration ratios see only sampler work.
    Spans must be in call order, parents before children (as recorded).
    """
    n = len(spans)
    child_time = [0.0] * n
    in_efi = [False] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_efi[i] = in_efi[parent] or spans[parent][0] == "sampler.run_efi"
    out: dict = {}
    for i, (name, start, end, _, info) in enumerate(spans):
        s = out.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "efi_count": 0, "meta": 0}
        )
        s["count"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["efi_count"] += in_efi[i]
        if info is not None:
            s["meta"] += info
    return out


def _mean_s(summary, name, key="total_s") -> float:
    s = summary.get(name)
    return s[key] / s["count"] if s else 0.0


def _mean_ms(summary, name, key="total_s") -> float:
    return 1e3 * _mean_s(summary, name, key)


def _field(summary, name, key):
    s = summary.get(name)
    return s[key] if s else 0


def layer_metrics(summary: dict) -> dict:
    """The benchmark's per-layer metrics from one traced command's summary."""
    iters = _field(summary, "sampler.run_efi", "meta")
    passes = sum(
        _field(summary, p, "efi_count")
        for p in ("engine.z_pass", "engine.w_pass", "engine.zw_pass", "engine.record")
    )
    nn_calls = sum(
        s["efi_count"] for name, s in summary.items() if name.startswith("nn.")
    )
    per_iter = (lambda v: v / iters) if iters else (lambda v: 0.0)
    m = {
        "engine.z_pass_ms": _mean_ms(summary, "engine.z_pass"),
        "engine.w_pass_ms": _mean_ms(summary, "engine.w_pass"),
        "engine.z_pass_self_ms": _mean_ms(summary, "engine.z_pass", "self_s"),
        "engine.w_pass_self_ms": _mean_ms(summary, "engine.w_pass", "self_s"),
        "engine.record_ms": _mean_ms(summary, "engine.record"),
        "engine.feature_matrix_ms": _mean_ms(summary, "engine.feature_matrix"),
        "engine.passes_per_iter": per_iter(passes),
        "sampler.ms_per_iter": ms_per_iter(summary),
        "sampler.self_ms_per_iter": per_iter(1e3 * _field(summary, "sampler.run_efi", "self_s")),
        "sampler.z_step_ms": _mean_ms(summary, "sampler.z_step"),
        "sampler.w_step_ms": _mean_ms(summary, "sampler.w_step"),
        "prior.grad_ms": _mean_ms(summary, "prior.grad"),
        "runner.efi_calls": _field(summary, "sampler.run_efi", "count"),
        "runner.write_ms": 1e3 * _field(summary, "runner.write", "total_s"),
        "nn.calls_per_iter": per_iter(nn_calls),
        "inference.ite_ms": _mean_ms(summary, "inference.ite"),
        "inference.pehe_ms": _mean_ms(summary, "inference.pehe"),
        "inference.ate_ms": _mean_ms(summary, "inference.ate"),
        "cqr.pinball_fit_s": _mean_s(summary, "cqr.pinball_fit"),
        "config.resolve_ms": _mean_ms(summary, "config.resolve"),
        "datagen.generate_ms": _mean_ms(summary, "datagen.generate"),
    }
    for mode in ("naive", "exact", "inexact"):
        m[f"cqr.ite_s.{mode}"] = _mean_s(summary, f"cqr.ite.{mode}")
    for role in ("inv", "model", "q"):
        for direction in ("forward", "backward"):
            m[f"nn.{role}_{direction}_ms"] = _mean_ms(summary, f"nn.{role}_{direction}")
    return m


def ms_per_iter(summary: dict) -> float:
    """Milliseconds per sampler iteration: ``run_efi`` time over its iterations."""
    iters = _field(summary, "sampler.run_efi", "meta")
    return 1e3 * _field(summary, "sampler.run_efi", "total_s") / iters if iters else 0.0
