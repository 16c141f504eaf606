"""Span tracing of loco_pda from outside the package.

`Tracer.install()` rebinds the public functions and methods the benchmark
measures with span-recording wrappers. Every module-level name in
`loco_pda.*` that refers to a wrapped function is rebound, so calls through
`from .models import extract_activations` and through `models.extract_...`
are both seen. `Tracer.uninstall()` puts the originals back. The package
source is not modified.

A span records its name, start, end and the span that was open when it
started. A span's self time is its duration minus the durations of its
direct child spans. Besides spans, the wrappers record:

- computed dense-kernel work per `DenseLayer` call, from shapes: FLOPs of the
  forward product, of the weight gradient and of the input gradient, and the
  float32 bytes each call reads and writes (not measured: cache traffic is
  not seen);
- tracemalloc peaks of `adapt_classifier` and `retrain_baseline`, next to
  the closed-form `build_ledger` entries for the same call. The call with the
  largest ledger is replayed after the traced op, so that tracemalloc does
  not slow the traced op;
- how many calls to `extract_activations`, `MlpModel.predict` and
  `ClassDistribution.from_labels` repeat a call already made in the same op
  with identical model weights and inputs;
- files and bytes written and read by `formats`, and bytes hashed by the
  CLI's manifest checksums.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from loco_pda import adaptation, cli, cvae, evaluation, formats, models, numerics

F32_BYTES = 4

# Spans of these names are kept only as per-parent aggregates in the trace
# file; a field op makes several hundred thousand of them.
HOT_SPANS = frozenset({
    "numerics.dense_forward", "numerics.dense_backward",
    "numerics.adam_step", "numerics.sgd_step", "cvae.loss_and_grads",
})

# The run-all stages, in the order cli.cmd_run_all runs them.
RUN_ALL_STAGES = (
    "synth-data", "train-source", "prune", "dump-activations", "train-cvae",
    "train-uncond", "estimate-domain", "adapt", "baseline", "evaluate",
    "sweep-budget", "compare-uncond", "memory-report",
)

# Every per-layer metric a traced run prints: (name, unit).
PER_LAYER_METRICS = (
    ("numerics.dense_forward.calls", "count"),
    ("numerics.dense_forward.self_s", "s"),
    ("numerics.dense_backward.calls", "count"),
    ("numerics.dense_backward.self_s", "s"),
    ("numerics.adam_step.calls", "count"),
    ("numerics.adam_step.self_s", "s"),
    ("numerics.sgd_step.calls", "count"),
    ("numerics.sgd_step.self_s", "s"),
    ("numerics.dense_gflop.fwd", "GFLOP"),
    ("numerics.dense_gflop.grad_w", "GFLOP"),
    ("numerics.dense_gflop.grad_in", "GFLOP"),
    ("numerics.dense_gbyte.fwd", "GB"),
    ("numerics.dense_gbyte.bwd", "GB"),
    ("numerics.dense_gflops_per_s", "GFLOP/s"),
    ("models.train_softmax_stack.calls", "count"),
    ("models.train_softmax_stack.self_s", "s"),
    ("models.train_source_model.s", "s"),
    ("models.prune_model.s", "s"),
    ("models.extract_activations.calls", "count"),
    ("models.extract_activations.s", "s"),
    ("cvae.train_cvae.s", "s"),
    ("cvae.fit_vae.steps", "count"),
    ("cvae.step_ms", "ms"),
    ("cvae.train_uncond_pack.s", "s"),
    ("cvae.generate_activations.calls", "count"),
    ("cvae.generate_activations.rows", "count"),
    ("cvae.generate_activations.s", "s"),
    ("adaptation.estimate_domain.calls", "count"),
    ("adaptation.estimate_domain.s", "s"),
    ("adaptation.adapt_classifier.calls", "count"),
    ("adaptation.adapt_classifier.s", "s"),
    ("adaptation.adapt_classifier.peak_alloc_kb", "KiB"),
    ("adaptation.adapt_classifier.ledger_kb", "KiB"),
    ("adaptation.adapt_classifier.alloc_over_ledger", "ratio"),
    ("adaptation.retrain_baseline.calls", "count"),
    ("adaptation.retrain_baseline.s", "s"),
    ("adaptation.retrain_baseline.peak_alloc_kb", "KiB"),
    ("adaptation.retrain_baseline.ledger_kb", "KiB"),
    ("adaptation.retrain_baseline.alloc_over_ledger", "ratio"),
    ("evaluation.run_experiment_matrix.s", "s"),
    ("evaluation.budget_sweep.s", "s"),
    ("evaluation.cond_vs_uncond.s", "s"),
    ("evaluation.recompute_share", "ratio"),
    ("formats.save.calls", "count"),
    ("formats.save.bytes", "B"),
    ("formats.save.s", "s"),
    ("formats.load.calls", "count"),
    ("formats.load.bytes", "B"),
    ("formats.load.s", "s"),
    ("cli.sha256.bytes", "B"),
    ("cli.sha256.s", "s"),
    *((f"cli.stage.{stage}.s", "s") for stage in RUN_ALL_STAGES),
    ("cli.run_all.rest_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


def _layers_digest(layers) -> bytes:
    return _digest(*(arr for layer in layers for arr in (layer.weight, layer.bias)))


class Tracer:
    """Records spans and counters while installed; one instance per traced op."""

    def __init__(self):
        self.spans = []                 # (span_id, parent_id, name, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.alloc = {}                 # name -> (peak_bytes, ledger_bytes)
        self._alloc_calls = {}          # name -> (ledger_bytes, fn, args, kwargs)
        self._stack = []                # open spans: [span_id, start, child_s]
        self._ids = itertools.count(1)
        self._seen = set()              # recompute keys within the current op
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(self._ids), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[2]
                spans.append((frame[0], parent[0] if parent else 0, name, frame[1], end))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _rebind_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "loco_pda" or mod_name.startswith("loco_pda."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for key, value in list(cli.COMMANDS.items()):
            if value is original:
                cli.COMMANDS[key] = wrapper
                self._undo.append((cli.COMMANDS, key, original))

    def _rebind_method(self, cls, attr, name, **hooks):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, **hooks))
        else:
            wrapped = self._wrap(name, raw, **hooks)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    # -- hooks -------------------------------------------------------------

    def _after_forward(self, out, args, kwargs):
        layer, x = args[0], args[1]
        b, i, o = x.shape[0], layer.in_dim, layer.out_dim
        self.counts["gflop.fwd"] += 2.0 * b * i * o
        # reads x, W, b; writes the pre-activation and the output
        self.counts["gbyte.fwd"] += F32_BYTES * (b * i + i * o + o + 2 * b * o)

    def _after_backward(self, result, args, kwargs):
        layer, grad_out = args[0], args[1]
        b, i, o = grad_out.shape[0], layer.in_dim, layer.out_dim
        grad_in = result[0]
        self.counts["gflop.grad_w"] += 2.0 * b * i * o
        # reads grad_out, x; writes grad_w and grad_b
        moved = b * o + b * i + i * o + o
        if grad_in is not None:
            self.counts["gflop.grad_in"] += 2.0 * b * i * o
            moved += i * o + b * i       # reads W, writes grad_in
        self.counts["gbyte.bwd"] += F32_BYTES * moved

    def _after_generate(self, batch, args, kwargs):
        self.counts["generate.rows"] += len(batch)

    def _recompute(self, key):
        self.counts["recompute.calls"] += 1
        if key in self._seen:
            self.counts["recompute.repeats"] += 1
        else:
            self._seen.add(key)

    def _after_extract(self, result, args, kwargs):
        bound = _EXTRACT_SIG.bind(*args, **kwargs)
        model, inputs = bound.arguments["model"], bound.arguments["inputs"]
        self._recompute(("extract", _layers_digest(model.fe_layers), _digest(inputs)))

    def _after_predict(self, result, args, kwargs):
        model, x = args[0], args[1]
        self._recompute(("predict", _layers_digest(model.layers), _digest(x)))

    def _after_from_labels(self, result, args, kwargs):
        labels, num_classes = args[1], args[2] if len(args) > 2 else kwargs["num_classes"]
        self._recompute(("from_labels", _digest(np.asarray(labels)), int(num_classes)))

    def _keep_largest(self, name, fn, ledger_of):
        """Remember the call with the largest closed-form ledger, to be replayed
        under tracemalloc by measure_allocations()."""
        def after(result, args, kwargs):
            ledger = ledger_of(args, kwargs, result)
            if name not in self._alloc_calls or ledger > self._alloc_calls[name][0]:
                self._alloc_calls[name] = (ledger, fn, args, kwargs)
        return after

    def _file_io(self, kind, path_args):
        """Count the files named by the first path_args arguments, sized after
        the call."""
        def after(result, args, kwargs):
            paths = args[:path_args]
            self.counts[f"{kind}.files"] += len(paths)
            self.counts[f"{kind}.bytes"] += sum(os.path.getsize(p) for p in paths)
        return after

    def _after_sha256(self, result, args, kwargs):
        self.counts["sha256.bytes"] += os.path.getsize(args[0])

    # -- install -----------------------------------------------------------

    def install(self) -> "Tracer":
        fn, meth = self._rebind_function, self._rebind_method
        meth(numerics.DenseLayer, "forward", "numerics.dense_forward",
             after=self._after_forward)
        meth(numerics.DenseLayer, "backward", "numerics.dense_backward",
             after=self._after_backward)
        meth(numerics.Adam, "step", "numerics.adam_step")
        meth(numerics.SgdMomentum, "step", "numerics.sgd_step")
        fn(models, "train_softmax_stack", "models.train_softmax_stack")
        fn(models, "train_source_model", "models.train_source_model")
        fn(models, "prune_model", "models.prune_model")
        fn(models, "extract_activations", "models.extract_activations",
           after=self._after_extract)
        meth(models.MlpModel, "predict", "models.predict", after=self._after_predict)
        fn(cvae, "train_cvae", "cvae.train_cvae")
        fn(cvae, "fit_vae", "cvae.fit_vae")
        meth(cvae.CvaeModel, "loss_and_grads", "cvae.loss_and_grads")
        fn(cvae, "train_uncond_pack", "cvae.train_uncond_pack")
        fn(cvae, "generate_activations", "cvae.generate_activations",
           after=self._after_generate)
        meth(adaptation.ClassDistribution, "from_labels", "adaptation.from_labels",
             after=self._after_from_labels)
        fn(adaptation, "estimate_domain", "adaptation.estimate_domain")
        fn(adaptation, "adapt_classifier", "adaptation.adapt_classifier",
           after=self._keep_largest("adapt_classifier", adaptation.adapt_classifier,
                                    _loco_ledger))
        fn(adaptation, "retrain_baseline", "adaptation.retrain_baseline",
           after=self._keep_largest("retrain_baseline", adaptation.retrain_baseline,
                                    _baseline_ledger))
        fn(evaluation, "run_experiment_matrix", "evaluation.run_experiment_matrix")
        fn(evaluation, "budget_sweep", "evaluation.budget_sweep")
        fn(evaluation, "cond_vs_uncond", "evaluation.cond_vs_uncond")
        fn(formats, "save_activations", "formats.save", after=self._file_io("save", 1))
        fn(formats, "save_mlp", "formats.save", after=self._file_io("save", 1))
        fn(formats, "save_cvae", "formats.save", after=self._file_io("save", 2))
        fn(formats, "load_activations", "formats.load", after=self._file_io("load", 1))
        fn(formats, "load_model_file", "formats.load", after=self._file_io("load", 1))
        fn(cli, "_sha256", "cli.sha256", after=self._after_sha256)
        for stage in RUN_ALL_STAGES:
            fn(cli, "cmd_" + stage.replace("-", "_"), f"cli.stage.{stage}")
        fn(cli, "cmd_run_all", "cli.run_all")
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def measure_allocations(self) -> None:
        """Replay the kept adapt_classifier and retrain_baseline calls, untraced,
        under tracemalloc, so that their peaks do not slow the traced op."""
        for name, (ledger, fn, args, kwargs) in self._alloc_calls.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.alloc[name] = (peak, ledger)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def metrics(self, traced_op_s: float, untraced_op_s: float) -> dict:
        c, calls, tot, own = self.counts, self.calls, self.total_s, self.self_s
        dense_s = own["numerics.dense_forward"] + own["numerics.dense_backward"]
        gflop = (c["gflop.fwd"] + c["gflop.grad_w"] + c["gflop.grad_in"]) / 1e9
        steps = calls["cvae.loss_and_grads"]
        stage_s = sum(tot[f"cli.stage.{s}"] for s in RUN_ALL_STAGES)
        values = {
            "numerics.dense_forward.calls": calls["numerics.dense_forward"],
            "numerics.dense_forward.self_s": own["numerics.dense_forward"],
            "numerics.dense_backward.calls": calls["numerics.dense_backward"],
            "numerics.dense_backward.self_s": own["numerics.dense_backward"],
            "numerics.adam_step.calls": calls["numerics.adam_step"],
            "numerics.adam_step.self_s": own["numerics.adam_step"],
            "numerics.sgd_step.calls": calls["numerics.sgd_step"],
            "numerics.sgd_step.self_s": own["numerics.sgd_step"],
            "numerics.dense_gflop.fwd": c["gflop.fwd"] / 1e9,
            "numerics.dense_gflop.grad_w": c["gflop.grad_w"] / 1e9,
            "numerics.dense_gflop.grad_in": c["gflop.grad_in"] / 1e9,
            "numerics.dense_gbyte.fwd": c["gbyte.fwd"] / 1e9,
            "numerics.dense_gbyte.bwd": c["gbyte.bwd"] / 1e9,
            "numerics.dense_gflops_per_s": gflop / dense_s if dense_s else 0.0,
            "models.train_softmax_stack.calls": calls["models.train_softmax_stack"],
            "models.train_softmax_stack.self_s": own["models.train_softmax_stack"],
            "models.train_source_model.s": tot["models.train_source_model"],
            "models.prune_model.s": tot["models.prune_model"],
            "models.extract_activations.calls": calls["models.extract_activations"],
            "models.extract_activations.s": tot["models.extract_activations"],
            "cvae.train_cvae.s": tot["cvae.train_cvae"],
            "cvae.fit_vae.steps": steps,
            "cvae.step_ms": 1e3 * tot["cvae.fit_vae"] / steps if steps else 0.0,
            "cvae.train_uncond_pack.s": tot["cvae.train_uncond_pack"],
            "cvae.generate_activations.calls": calls["cvae.generate_activations"],
            "cvae.generate_activations.rows": c["generate.rows"],
            "cvae.generate_activations.s": tot["cvae.generate_activations"],
            "adaptation.estimate_domain.calls": calls["adaptation.estimate_domain"],
            "adaptation.estimate_domain.s": tot["adaptation.estimate_domain"],
            "evaluation.run_experiment_matrix.s": tot["evaluation.run_experiment_matrix"],
            "evaluation.budget_sweep.s": tot["evaluation.budget_sweep"],
            "evaluation.cond_vs_uncond.s": tot["evaluation.cond_vs_uncond"],
            "evaluation.recompute_share": (c["recompute.repeats"] / c["recompute.calls"]
                                           if c["recompute.calls"] else 0.0),
            "formats.save.calls": c["save.files"],
            "formats.save.bytes": c["save.bytes"],
            "formats.save.s": tot["formats.save"],
            "formats.load.calls": c["load.files"],
            "formats.load.bytes": c["load.bytes"],
            "formats.load.s": tot["formats.load"],
            "cli.sha256.bytes": c["sha256.bytes"],
            "cli.sha256.s": tot["cli.sha256"],
            "cli.run_all.rest_s": (tot["cli.run_all"] - stage_s
                                   if calls["cli.run_all"] else 0.0),
            "trace.overhead_s": traced_op_s - untraced_op_s,
            "trace.overhead_share": (traced_op_s - untraced_op_s) / untraced_op_s,
        }
        for stage in RUN_ALL_STAGES:
            values[f"cli.stage.{stage}.s"] = tot[f"cli.stage.{stage}"]
        for name in ("adapt_classifier", "retrain_baseline"):
            key = f"adaptation.{name}"
            peak, ledger = self.alloc.get(name, (0, 0))
            values[f"{key}.calls"] = calls[key]
            values[f"{key}.s"] = tot[key]
            values[f"{key}.peak_alloc_kb"] = peak / 1024
            values[f"{key}.ledger_kb"] = ledger / 1024
            values[f"{key}.alloc_over_ledger"] = peak / ledger if ledger else 0.0
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in PER_LAYER_METRICS}

    def trace_record(self) -> dict:
        """Spans for the trace file: every span outside HOT_SPANS in full, the
        hot ones as (name, parent name) aggregates."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        t0 = min((s[3] for s in self.spans), default=0.0)
        full, hot = [], defaultdict(lambda: [0, 0.0])
        for sid, parent, name, start, end in self.spans:
            if name in HOT_SPANS:
                agg = hot[(name, names.get(parent, ""))]
                agg[0] += 1
                agg[1] += end - start
            else:
                full.append({"id": sid, "parent": parent, "name": name,
                             "start_s": start - t0, "end_s": end - t0})
        full.sort(key=lambda s: s["start_s"])
        return {
            "spans": full,
            "hot_spans": [{"name": n, "parent": p, "calls": k, "total_s": s}
                          for (n, p), (k, s) in sorted(hot.items())],
            "self_s": dict(sorted(self.self_s.items())),
        }


_EXTRACT_SIG = inspect.signature(models.extract_activations)
_ADAPT_SIG = inspect.signature(adaptation.adapt_classifier)
_BASELINE_SIG = inspect.signature(adaptation.retrain_baseline)


def _ledger_bytes(spec, names) -> int:
    # the specs below pass the pruned model as m0 too: only transient entries
    # are summed, never the deployed-model one
    ledger = evaluation.build_ledger(spec)
    return sum(e.bytes for e in ledger.entries if e.name in names)


def _loco_ledger(args, kwargs, result) -> int:
    """Closed-form transient bytes of one adapt_classifier call: the generated
    pool plus classifier training."""
    bound = _ADAPT_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    cfg = a["cfg"] or adaptation.AdaptationConfig()
    spec = evaluation.LedgerSpec("loco", a["mp"], a["mp"], generator=a["generator"],
                                 pool_rows=cfg.total_generated,
                                 batch_size=cfg.hyper.batch_size)
    return _ledger_bytes(spec, ("generated-pool", "classifier-training"))


def _baseline_ledger(args, kwargs, result) -> int:
    """Closed-form bytes of one retrain_baseline call: the stored rows it
    trained on plus classifier training."""
    bound = _BASELINE_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    hyper = a["hyper"] or adaptation.DEFAULT_BASELINE_HYPER
    spec = evaluation.LedgerSpec("baseline", a["mp"], a["mp"],
                                 stored_rows=result[1].rows_used,
                                 batch_size=hyper.batch_size)
    return _ledger_bytes(spec, ("stored-samples", "classifier-training"))
