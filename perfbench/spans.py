"""Span tracer and the wrappers that time each layer of ``repro`` from outside.

Nothing in ``src/`` knows about this module. :func:`install` replaces the
functions and methods named in :data:`PROBES` with timing wrappers and
returns an :class:`Installation` whose :meth:`~Installation.uninstall`
puts every original object back. A module-level function is patched in
every loaded ``repro`` module that holds it (``from .x import f``
re-exports included), so a call through any import path is seen.

A span is ``[name, start, end, parent, round]``; spans live in memory
and the caller writes them out when the run ends. A span's *self time* is
its duration minus the durations of its direct children (the process is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "NAME", "START", "END", "PARENT", "ROUND",
    "Tracer",
    "Probe",
    "PROBES",
    "Installation",
    "install",
    "self_times",
    "layer_self_times",
    "round_coverage",
    "wrapper_cost_s",
]

NAME, START, END, PARENT, ROUND = range(5)
ROUND_SPAN = "round"


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.round_id = 0
        self._stack: list[int] = []

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def stop_in_child(self) -> None:
        """Forked workers keep the wrappers but record nothing."""
        self.active = False
        self.spans = []
        self._stack = []


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s[NAME]] += own
    return dict(totals)


def round_coverage(spans: list[list]) -> list[tuple[int, float, float]]:
    """``(round, wall_s, covered share)`` for every traced round.

    The covered share is the time the round's direct child spans account
    for, divided by the round's wall time; the rest ran in
    ``Server.run_round`` itself, outside every traced layer.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out = []
    for idx, s in enumerate(spans):
        if s[NAME] == ROUND_SPAN:
            wall = s[END] - s[START]
            out.append((s[ROUND], wall, child_time[idx] / wall if wall > 0 else 0.0))
    return out


# -- counters taken from call arguments and results ---------------------------

def _nbytes(counter: str) -> Callable:
    def hook(tracer, args, result):
        tracer.count(counter, result.nbytes)
    return hook


def _calls(counter: str) -> Callable:
    def hook(tracer, args, result):
        tracer.count(counter)
    return hook


def _message_bytes(counter: str) -> Callable:
    def hook(tracer, args, result):
        tracer.count(counter, sum(m.nbytes for m in result))
    return hook


def _execute(tracer, args, result):
    tracer.count("parallel.execute_calls")
    tracer.count("parallel.fit_time_sum_s", sum(s.client_time_s for s in result))


def _synthesize(tracer, args, result):
    tracer.count("fedguard.cache_hits", args[0].last_cache_hits)


def _synthesized(tracer, args, result):
    tracer.count("fedguard.decoders_synthesized", len(args[1]))


def _audit(tracer, args, result):
    tracer.count("fedguard.audited", len(args[2]))
    tracer.count("fedguard.accepted", len(result.accepted_ids))


@dataclass(frozen=True)
class Probe:
    """One patch target.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``span`` names the span (``None`` records no span, only the hook);
    ``hook(tracer, args, result)`` runs after a successful call;
    ``skip_under`` folds the call into its caller when the innermost open
    span has that name (a predict's forward pass stays predict time).
    """

    target: str
    span: str | None
    hook: Callable | None = None
    skip_under: str | None = None
    begins_round: bool = False


PROBES: tuple[Probe, ...] = (
    # repro.nn
    Probe("repro.nn.layers:Conv2d.forward", "nn.conv_forward"),
    Probe("repro.nn.layers:Conv2d.backward", "nn.conv_backward"),
    Probe("repro.nn.functional:im2col", "nn.im2col", _nbytes("nn.im2col_bytes")),
    Probe("repro.nn.functional:col2im", "nn.col2im", _nbytes("nn.col2im_bytes")),
    Probe("repro.nn.layers:MaxPool2d.forward", "nn.maxpool_forward"),
    Probe("repro.nn.layers:MaxPool2d.backward", "nn.maxpool_backward"),
    Probe("repro.nn.layers:Linear.forward", "nn.linear_forward"),
    Probe("repro.nn.layers:Linear.backward", "nn.linear_backward"),
    Probe("repro.nn.optim:SGD.step", "nn.sgd_step", _calls("nn.sgd_steps")),
    Probe("repro.nn.optim:Adam.step", "nn.adam_step", _calls("nn.adam_steps")),
    Probe("repro.nn.losses:SoftmaxCrossEntropy.forward", "nn.loss"),
    Probe("repro.nn.losses:SoftmaxCrossEntropy.backward", "nn.loss"),
    Probe("repro.nn.losses:CVAELoss.forward", "nn.loss"),
    Probe("repro.nn.losses:CVAELoss.backward", "nn.loss"),
    Probe("repro.nn.serialization:vector_to_parameters", "nn.vector_to_parameters"),
    Probe("repro.nn.serialization:parameters_to_vector", "nn.parameters_to_vector"),
    Probe("repro.nn.serialization:stack_parameters", "nn.stack_parameters"),
    # repro.models
    Probe("repro.models.classifier:CNNClassifier.forward", "models.cnn_forward",
          skip_under="models.cnn_predict"),
    Probe("repro.models.classifier:CNNClassifier.backward", "models.cnn_backward"),
    Probe("repro.models.classifier:CNNClassifier.predict", "models.cnn_predict"),
    Probe("repro.models.cvae:CVAE.forward", "models.cvae_forward"),
    Probe("repro.models.cvae:CVAE.backward", "models.cvae_backward"),
    Probe("repro.models.cvae:CVAEDecoder.forward", "models.decoder_forward"),
    # repro.fl.client (and the batched engine's entry point)
    Probe("repro.fl.client:train_classifier", "client.train_classifier"),
    Probe("repro.fl.batched:train_classifiers_batched", "client.train_classifier"),
    Probe("repro.fl.client:train_cvae", "client.train_cvae",
          _calls("client.cvae_trainings")),
    # repro.fl.server phases; the round span is the root of every round
    Probe("repro.fl.server:Server.run_round", ROUND_SPAN, begins_round=True),
    Probe("repro.fl.strategy:Strategy.setup", "server.strategy_setup"),
    *(Probe(f"repro.fl.server:Server.phase_{phase}", f"server.{phase}")
      for phase in ("select", "broadcast", "fit", "collect", "aggregate",
                    "apply", "evaluate")),
    # repro.fl.modes
    Probe("repro.fl.modes:SyncRoundMode.run_round", "modes.self"),
    Probe("repro.fl.modes:AsyncBufferedMode.run_round", "modes.self"),
    Probe("repro.fl.modes:AsyncBufferedMode._dispatch", None,
          _calls("modes.dispatches")),
    # repro.fl.parallel
    Probe("repro.fl.parallel:ExecutionBackend.execute", "parallel.execute", _execute),
    # repro.fl.transport
    Probe("repro.fl.transport:Channel.broadcast", None,
          _message_bytes("transport.download_bytes")),
    Probe("repro.fl.transport:Channel.collect", None,
          _message_bytes("transport.upload_bytes")),
    # repro.defenses.fedguard
    Probe("repro.defenses.fedguard:FedGuard.synthesize", "fedguard.synthesize",
          _synthesize),
    Probe("repro.defenses.fedguard:FedGuard._synthesize_stacked", None, _synthesized),
    Probe("repro.defenses.fedguard:FedGuard.aggregate", "fedguard.audit", _audit),
    # repro.data
    Probe("repro.data.synthetic_mnist:generate_dataset", "data.generate"),
)


def _wrap(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    name, hook, skip = probe.span, probe.hook, probe.skip_under
    begins_round = probe.begins_round

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        if begins_round:
            tracer.round_id = args[1]
        if name is None or (skip is not None and tracer.innermost() == skip):
            result = original(*args, **kwargs)
        else:
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


class Installation:
    """The patches :func:`install` made, undone by :meth:`uninstall`."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, holder, attr: str, replacement) -> None:
        self.patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, replacement)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.patches):
            setattr(holder, attr, original)
        self.patches.clear()


def _resolve(target: str):
    """``(holder, attr)`` pairs to patch and the original object."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        return [(cls, attr)], cls.__dict__[attr]
    original = getattr(module, qualname)
    holders = [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "repro" or mod_name.startswith("repro.")
        for name, value in list(vars(mod).items())
        if value is original
    ]
    return holders, original


def install(tracer: Tracer, probes: tuple[Probe, ...] = PROBES) -> Installation:
    """Patch every probe's target with a timing wrapper bound to ``tracer``."""
    importlib.import_module("repro.experiments.scenarios")  # load every layer
    installation = Installation()
    try:
        for probe in probes:
            holders, original = _resolve(probe.target)
            wrapper = _wrap(tracer, probe, original)
            for holder, attr in holders:
                installation.patch(holder, attr, wrapper)
    except BaseException:
        installation.uninstall()
        raise
    os.register_at_fork(after_in_child=tracer.stop_in_child)
    return installation


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured extra seconds one traced call costs over a bare call."""
    def noop():
        return None

    tracer = Tracer()
    tracer.active = True
    wrapped = _wrap(tracer, Probe("calibration:noop", "noop"), noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / calls
