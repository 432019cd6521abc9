"""In-memory spans around pseudoreplay's public functions, recorded from outside.

Each traced name is replaced, at the module attribute where its caller looks
it up, by a timing wrapper; no file of the package changes. A call made once
per layer boundary (a strategy, an ensemble, one member's training, one
evaluation) becomes a span with a parent link. A call made once per step or
once per window (loss_and_gradient, apply_standardizer, forward,
window_trial, confusion, metrics) is folded into a count and busy time on the
enclosing span instead. A name the package no longer has is skipped, and the
metrics that need it are left out.
"""

from __future__ import annotations

import time
from collections import defaultdict

STRATEGIES = ("rcl", "ewc", "finetune", "baseline")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "folded", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id, self.name, self.parent = span_id, name, parent
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by child spans and folded calls
        self.folded: dict[str, list] = {}  # key -> [calls, busy seconds, rows]
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "folded": self.folded,
            "attrs": self.attrs,
        }


class _Call:
    """A folded call in progress; it charges its time to its owner span."""

    __slots__ = ("owner", "child")

    def __init__(self, owner: Span):
        self.owner, self.child = owner, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.kept: dict[str, list] = defaultdict(list)
        self.wrapped: set[str] = set()
        self._stack: list = []
        self._originals: list[tuple[object, str, object]] = []

    def _owner(self) -> Span:
        top = self._stack[-1]
        return top if isinstance(top, Span) else top.owner

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._owner().id if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.duration

    def _patch(self, module, attr: str, name: str, wrapper_for) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper_for(original))
        self.wrapped.add(name)

    def span(self, module, attr: str, name: str, attrs=None, keep: bool = False) -> None:
        """Record each call of module.attr as a span; attrs(args, result) -> dict."""

        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                span = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(span)
                if attrs is not None:
                    span.attrs = attrs(args, result)
                if keep:
                    self.kept[name].append(result)
                return result

            return wrapper

        self._patch(module, attr, name, wrapper_for)

    def fold(self, module, attr: str, name: str, key=None) -> None:
        """Count calls of module.attr on the enclosing span; key(args, kwargs)
        -> (suffix, rows) splits the count."""

        def wrapper_for(original):
            def wrapper(*args, **kwargs):
                suffix, rows = key(args, kwargs) if key is not None else ("", 1)
                parent = self._stack[-1]
                call = _Call(self._owner())
                self._stack.append(call)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    busy = time.perf_counter() - start
                    self._stack.pop()
                    parent.child += busy
                    entry = call.owner.folded.setdefault(name + suffix, [0, 0.0, 0])
                    entry[0] += 1
                    entry[1] += busy
                    entry[2] += rows

            return wrapper

        self._patch(module, attr, name, wrapper_for)

    def run(self, name: str, fn, *args):
        """Call fn(*args) as the root span."""
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def _gradient_key(args, kwargs):
    model, _batch, labels = args[:3]
    penalty = args[3] if len(args) > 3 else kwargs.get("penalty")
    anchored = penalty is not None and penalty.lam != 0.0
    rows = len(labels)
    return (
        f"/{model.spec.kind}/{'anchored' if anchored else 'plain'}/"
        f"{'single' if rows == 1 else 'batch'}",
        rows,
    )


def install(cli, continual, classifier) -> Tracer:
    """Wrap every traced name where the package's own callers look it up."""
    tracer = Tracer()
    for attr, name in (
        ("compare_strategies", "continual.compare_strategies"),
        ("load_trials", "data.load_trials"),
        ("synthesize_stream", "data.synthesize_stream"),
        ("metrics_csv", "reporting.metrics_csv"),
        ("render_report", "reporting.render_report"),
    ):
        tracer.span(cli, attr, name)
    tracer.span(
        continual, "run_strategy", "continual.run_strategy",
        attrs=lambda args, _: {"strategy": args[0]}, keep=True,
    )
    tracer.span(continual, "fit_generator", "generator.fit_generator")
    tracer.span(
        continual, "generate", "generator.generate",
        attrs=lambda _, result: {"samples": len(result)},
    )
    tracer.span(continual, "fit_ensemble", "classifier.fit_ensemble")
    for module in (continual, classifier):
        tracer.span(module, "train", "classifier.train")
        tracer.fold(module, "apply_standardizer", "data.apply_standardizer")
        tracer.fold(module, "fit_standardizer", "data.fit_standardizer")
    tracer.span(continual, "fisher_diagonal", "classifier.fisher_diagonal")
    for attr in ("predict", "member_probabilities"):
        tracer.span(
            continual, attr, f"classifier.{attr}",
            attrs=lambda args, _: {"windows": len(args[1])},
        )
    tracer.fold(continual, "confusion", "metrics.confusion")
    tracer.fold(continual, "metrics", "metrics.metrics")
    tracer.fold(continual, "window_trial", "data.window_trial")
    tracer.fold(classifier, "loss_and_gradient", "classifier.loss_and_gradient", _gradient_key)
    tracer.fold(classifier, "forward", "classifier.forward")
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, int]:
    """Per-layer figures of one traced run; the root span is the run.

    A ratio over calls the workload never makes reads 0. Alongside the
    metrics it returns grad_rows, the row count of all loss_and_gradient
    calls, for the cross-check against the config.
    """
    root = tracer.spans[0]
    total = root.duration
    named = defaultdict(list)
    for span in tracer.spans:
        named[span.name].append(span)

    def seconds(name: str) -> float:
        return sum(s.duration for s in named[name])

    folded = defaultdict(lambda: [0, 0.0, 0])  # (owner name, key) -> sums
    for span in tracer.spans:
        for key, (calls, busy, rows) in span.folded.items():
            entry = folded[(span.name, key)]
            entry[0] += calls
            entry[1] += busy
            entry[2] += rows

    def fold_sum(match, field: int) -> float:
        return sum(v[field] for (owner, key), v in folded.items() if match(owner, key))

    def steps(pred):
        def match(owner, key):
            if owner != "classifier.train" or not key.startswith("classifier.loss_and_gradient/"):
                return False
            return pred(*key.split("/")[1:3])

        return fold_sum(match, 0), fold_sum(match, 1)

    dense_n, dense_s = steps(lambda kind, pen: kind == "dense" and pen == "plain")
    conv_n, conv_s = steps(lambda kind, pen: kind == "conv" and pen == "plain")
    anch_n, anch_s = steps(lambda kind, pen: pen == "anchored")
    train_n, train_busy = steps(lambda kind, pen: True)
    train_s = seconds("classifier.train")
    fisher_s = seconds("classifier.fisher_diagonal")
    fisher_n = fold_sum(lambda owner, key: owner == "classifier.fisher_diagonal"
                        and key.startswith("classifier.loss_and_gradient/"), 0)

    evaluation = named["classifier.predict"] + named["classifier.member_probabilities"]
    predict_s = sum(s.duration for s in evaluation)
    windows = sum(s.attrs.get("windows", 0) for s in evaluation)

    def is_standardize(_owner, key):
        return key in ("data.apply_standardizer", "data.fit_standardizer")

    standardize_s = fold_sum(is_standardize, 1)
    fit_s = seconds("generator.fit_generator")
    metrics = {
        "classifier.step_us.dense": 1e6 * _ratio(dense_s, dense_n),
        "classifier.step_us.anchored": 1e6 * _ratio(anch_s, anch_n),
        "classifier.step_us.conv": 1e6 * _ratio(conv_s, conv_n),
        "classifier.train_self_share": _ratio(train_s - train_busy, train_s),
        "classifier.train_steps": train_n,
        "classifier.fisher_us_per_sample": 1e6 * _ratio(fisher_s, fisher_n),
        "classifier.predict_us_per_window": 1e6 * _ratio(predict_s, windows),
        "generator.fit_s": fit_s,
        "generator.generate_s": seconds("generator.generate"),
        "generator.pseudo_samples": sum(s.attrs["samples"] for s in named["generator.generate"]),
        "data.load_trials_s": seconds("data.load_trials"),
        "data.windowing_s": fold_sum(lambda _o, key: key == "data.window_trial", 1),
        "data.standardize_s": standardize_s,
        "data.standardize_calls": fold_sum(is_standardize, 0),
        "continual.self_s": sum(s.self_time for name in
                                ("continual.run_strategy", "continual.compare_strategies")
                                for s in named[name]),
        "metrics.busy_s": fold_sum(lambda _o, key: key.startswith("metrics."), 1),
        "reporting.write_s": seconds("reporting.metrics_csv") + seconds("reporting.render_report"),
        "cli.self_s": root.self_time,
        "classifier.train_share": _ratio(train_s, total),
        "classifier.conv_step_share": _ratio(conv_s, total),
        "classifier.fisher_share": _ratio(fisher_s, total),
        "generator.fit_share": _ratio(fit_s, total),
        "classifier.predict_share": _ratio(predict_s, total),
        "data.standardize_share": _ratio(standardize_s, total),
    }
    for strategy in STRATEGIES:
        metrics[f"continual.strategy_s.{strategy}"] = sum(
            s.duration for s in named["continual.run_strategy"] if s.attrs["strategy"] == strategy
        )
    grad_rows = fold_sum(lambda _o, key: key.startswith("classifier.loss_and_gradient/"), 2)
    return {name: value for name, value in metrics.items() if _measured(name, tracer.wrapped)}, grad_rows


# metrics that need each group of traced names; a missing name drops them
_NEEDS = (
    (("classifier.loss_and_gradient", "classifier.train"), (
        "classifier.step_us.dense", "classifier.step_us.anchored", "classifier.step_us.conv",
        "classifier.train_self_share", "classifier.train_steps", "classifier.conv_step_share",
    )),
    (("classifier.train",), ("classifier.train_share",)),
    (("classifier.loss_and_gradient", "classifier.fisher_diagonal"), (
        "classifier.fisher_us_per_sample", "classifier.fisher_share",
    )),
    (("classifier.predict", "classifier.member_probabilities"), (
        "classifier.predict_us_per_window", "classifier.predict_share",
    )),
    (("generator.fit_generator",), ("generator.fit_s", "generator.fit_share")),
    (("generator.generate",), ("generator.generate_s", "generator.pseudo_samples")),
    (("data.load_trials",), ("data.load_trials_s",)),
    (("data.window_trial",), ("data.windowing_s",)),
    (("data.apply_standardizer", "data.fit_standardizer"), (
        "data.standardize_s", "data.standardize_calls", "data.standardize_share",
    )),
    (("continual.run_strategy", "continual.compare_strategies"), (
        "continual.self_s", *(f"continual.strategy_s.{s}" for s in STRATEGIES),
    )),
    (("metrics.confusion", "metrics.metrics"), ("metrics.busy_s",)),
    (("reporting.metrics_csv", "reporting.render_report"), ("reporting.write_s",)),
)


def _measured(metric: str, wrapped: set[str]) -> bool:
    return all(
        name in wrapped for names, metrics in _NEEDS if metric in metrics for name in names
    )
