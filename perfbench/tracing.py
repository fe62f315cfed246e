"""Per-layer tracing installed from outside the library.

The tracer replaces public functions of the ``plangen`` modules with
wrappers while it is installed and puts the originals back when it is
removed.  A module function becomes a span (name, start, end, parent,
item id, phase).  An autodiff primitive is counted instead (calls, time,
tape nodes per op kind): a toy game runs thousands of them, so one span
per op would cost more memory than the run itself.

Nothing under ``src/`` knows about the tracer.  Because several modules
import functions by name (``training`` calls ``encode_pool``, not
``encoders.encode_pool``), every ``plangen`` module namespace that holds
the original function object is patched, not only the defining module.
A function that no longer exists is listed as absent and its metrics
read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs traced as spans.  Names that a refactor may
# delete (encode_paragraph, for example) are listed too and simply show
# up as absent once they are gone.
SPAN_TARGETS = [
    ("autodiff", "backward"), ("autodiff", "clip_global_norm"),
    ("autodiff", "grad_check"),
    ("encoders", "lstm_cell"), ("encoders", "encode_pool"),
    ("encoders", "encode_paragraphs"), ("encoders", "encode_paragraph"),
    ("encoders", "step_text_state"), ("encoders", "step_plan_state"),
    ("planner", "prior_plan_distribution"), ("planner", "posterior_plan_distribution"),
    ("planner", "kl_divergence"), ("planner", "sample_plan"),
    ("generator", "init_decoder"), ("generator", "decode_step"),
    ("generator", "generate_paragraph"),
    ("training", "train"), ("training", "compute_loss"),
    ("training", "adagrad_update"), ("training", "plan_selection_accuracy"),
    ("training", "prepare_game"), ("training", "save_checkpoint"),
    ("training", "load_checkpoint"),
    ("inference", "generate_document"), ("inference", "tune_bins"),
    ("metrics", "evaluate_corpus"), ("metrics", "bleu"),
    ("corpus", "build_plan_pool"), ("corpus", "build_vocab"),
    ("corpus", "read_corpus"), ("corpus", "write_corpus"),
    ("synth", "generate_toy_corpus"),
]

# Public autodiff functions that are not tape ops.
NOT_OPS = {
    "tensor", "param", "const", "zeros", "record", "backward", "grad_check",
    "clip_global_norm", "sample_gumbel", "no_grad", "graph_scope",
    "new_graph", "active_graph",
}

# Op kinds as OpRecord.kind names them, where that differs from the function.
OP_KIND = {"sum_": "sum", "gumbel_softmax_sample": "gumbel_softmax"}
OP_KINDS = ["add", "sub", "mul", "div", "neg", "tanh", "sigmoid", "exp", "log",
            "matmul", "sum", "reshape", "swap_last2", "concat", "narrow",
            "take_rows", "gather_last", "softmax", "log_softmax", "gumbel_softmax"]

# Per-layer metrics: name -> (unit, better).  All are emitted on every
# workload; a layer a workload does not exercise reads 0.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "trace.overhead_share": ("share", "lower"),
    "autodiff.ops_per_item": ("count", "lower"),
    "autodiff.tape_nodes_per_item": ("count", "lower"),
    "autodiff.backward_ms_per_item": ("ms", "lower"),
    "autodiff.clip_ms_per_update": ("ms", "lower"),
    "autodiff.grad_check.max_rel_err": ("ratio", "lower"),
    "encoders.lstm_cell.calls_per_item": ("count", "lower"),
    "encoders.lstm_cell.ms_per_item": ("ms", "lower"),
    "encoders.encode_pool.ms_per_item": ("ms", "lower"),
    "encoders.encode_paragraphs.ms_per_item": ("ms", "lower"),
    "encoders.state_steps.ms_per_item": ("ms", "lower"),
    "planner.distribution.ms_per_item": ("ms", "lower"),
    "planner.kl.ms_per_item": ("ms", "lower"),
    "planner.sample.ms_per_item": ("ms", "lower"),
    "generator.decode_step.calls_per_item": ("count", "lower"),
    "generator.decode_step.ms_per_item": ("ms", "lower"),
    "generator.decode_steps_per_token": ("count", "lower"),
    "generator.beam_search.self_ms_per_item": ("ms", "lower"),
    "generator.init_decoder.ms_per_item": ("ms", "lower"),
    "training.compute_loss.ms_per_item": ("ms", "lower"),
    "training.adagrad_update.ms": ("ms", "lower"),
    "training.plan_selection_accuracy.ms": ("ms", "lower"),
    "training.checkpoint.save_ms": ("ms", "lower"),
    "training.checkpoint.load_ms": ("ms", "lower"),
    "training.prepare_game.ms_per_item": ("ms", "lower"),
    "inference.generate_document.self_ms_per_item": ("ms", "lower"),
    "inference.tune_bins.ms": ("ms", "lower"),
    "inference.paragraphs_per_doc": ("count", "lower"),
    "inference.truncated_share": ("share", "lower"),
    "inference.empty_doc_share": ("share", "lower"),
    "metrics.evaluate_corpus.ms": ("ms", "lower"),
    "metrics.bleu.ms": ("ms", "lower"),
    "corpus.build_plan_pool.ms_per_item": ("ms", "lower"),
    "corpus.build_vocab.ms": ("ms", "lower"),
    "synth.generate_toy_corpus.ms": ("ms", "lower"),
}
for _kind in OP_KINDS:
    LAYER_METRICS[f"autodiff.op_us.{_kind}"] = ("us", "lower")
for _kind in OP_KINDS:
    LAYER_METRICS[f"autodiff.tape_nodes.{_kind}"] = ("count", "lower")


def replace_everywhere(orig, new) -> list[tuple[dict, str, object]]:
    """Point every plangen namespace that holds ``orig`` at ``new``;
    returns what :func:`restore` needs to undo it."""
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "plangen" or mod_name.startswith("plangen.")):
            continue
        ns = vars(mod)
        for attr, val in list(ns.items()):
            if val is orig:
                patched.append((ns, attr, orig))
                ns[attr] = new
    return patched


def restore(patched: list[tuple[dict, str, object]]) -> None:
    for ns, attr, orig in reversed(patched):
        ns[attr] = orig


class Tracer:
    """Spans and op counters for one run, kept in memory until written.

    ``item_span`` names the span that starts a workload item (a trained
    game, a generated document, a loss evaluation); every span records
    the id of the item current when it started.
    """

    def __init__(self, item_span: str):
        self.item_span = item_span
        self.item = -1
        self.phase = "setup"
        # span rows: [name, start, end, parent index, item id, phase]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_op = False
        self.ops: dict[str, dict[str, list]] = {}
        self._cur_ops: dict[str, list] = {}
        self.produced = Counter()   # per phase: tokens, docs, paragraphs, ...
        self.absent: list[str] = []
        self._patched: list[tuple[dict, str, object]] = []
        self.set_phase("setup")

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self._cur_ops = self.ops.setdefault(phase, {})

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack
        starts_item = name == self.item_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_item:
                self.item += 1
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, self.phase]
            spans.append(row)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[1], row[2] = t0, perf_counter()
                stack.pop()
            if on_result is not None:
                try:
                    on_result(out)
                except (TypeError, ValueError, AttributeError):
                    self.absent.append(f"{name} result")  # return shape changed
            return out

        return wrapper

    def _op(self, kind: str, fn, tensor_type):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_op:  # an op built from other ops counts once
                return fn(*args, **kwargs)
            self._in_op = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_op = False
            dt = perf_counter() - t0
            if isinstance(out, tensor_type):
                st = self._cur_ops.get(kind)
                if st is None:
                    st = self._cur_ops[kind] = [0, 0.0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += out.requires_grad
            return out

        return wrapper

    def _on_paragraph(self, out) -> None:
        """Decoding positions of a beam-searched paragraph, EOS included."""
        token_ids, truncated = out
        self.produced[(self.phase, "tokens")] += len(token_ids) + (0 if truncated else 1)

    def _on_document(self, out) -> None:
        phase = self.phase
        self.produced[(phase, "docs")] += 1
        self.produced[(phase, "paragraphs")] += len(out.paragraphs)
        self.produced[(phase, "truncated")] += sum(bool(t) for t in out.truncated_paragraphs)
        self.produced[(phase, "empty_docs")] += not out.paragraphs

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        import plangen.autodiff as ad
        from importlib import import_module

        hooks = {"generator.generate_paragraph": self._on_paragraph,
                 "inference.generate_document": self._on_document}
        self.absent = []
        for mod_name, fn_name in SPAN_TARGETS:
            name = f"{mod_name}.{fn_name}"
            orig = getattr(import_module(f"plangen.{mod_name}"), fn_name, None)
            if orig is None:
                self.absent.append(name)
                continue
            self._patched += replace_everywhere(orig, self._span(name, orig, hooks.get(name)))
        for fn_name, fn in list(vars(ad).items()):
            if (fn_name.startswith("_") or fn_name in NOT_OPS
                    or not inspect.isfunction(fn) or fn.__module__ != ad.__name__):
                continue
            self._patched += replace_everywhere(
                fn, self._op(OP_KIND.get(fn_name, fn_name), fn, ad.Tensor))
        present = {OP_KIND.get(n, n) for n in vars(ad)}
        self.absent += [f"autodiff.{k}" for k in OP_KINDS if k not in present]

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    # -- metrics ---------------------------------------------------------------

    def _span_stats(self):
        """Per (phase, name): [calls, total s, self s]."""
        child = [0.0] * len(self.spans)
        for row in self.spans:
            if row[3] >= 0:
                child[row[3]] += row[2] - row[1]
        stats: dict[tuple[str, str], list] = {}
        for i, (name, t0, t1, _, _, phase) in enumerate(self.spans):
            st = stats.setdefault((phase, name), [0, 0.0, 0.0])
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - child[i]
        return stats

    def call_counts(self) -> dict[str, int]:
        counts = Counter()
        for row in self.spans:
            counts[row[0]] += 1
        for phase_ops in self.ops.values():
            for kind, st in phase_ops.items():
                counts[f"autodiff.{kind}"] += st[0]
        return dict(sorted(counts.items()))

    def layer_metrics(self, phase: str, max_rel_err: float,
                      overhead_share: float) -> dict[str, float]:
        """Per-layer metrics; ``*_per_item`` and ``calls_per_*`` values are
        over the items of ``phase``, ``.ms`` values are means per call over
        the whole run (set-up included), so set-up layers show too."""
        stats = self._span_stats()
        items = stats.get((phase, self.item_span), [0])[0]

        def per_item(*names, self_time=False, calls=False):
            if not items:
                return 0.0
            total = 0.0
            for n in names:
                st = stats.get((phase, n))
                if st:
                    total += st[0] if calls else (st[2] if self_time else st[1]) * 1e3
            return total / items

        def per_call_ms(name, only_phase=None):
            calls = total = 0.0
            for (ph, n), st in stats.items():
                if n == name and (only_phase is None or ph == only_phase):
                    calls += st[0]
                    total += st[1]
            return 1e3 * total / calls if calls else 0.0

        ops = self.ops.get(phase, {})
        n_ops = sum(st[0] for st in ops.values())
        n_nodes = sum(st[2] for st in ops.values())
        produced = {k: self.produced[(phase, k)]
                    for k in ("tokens", "docs", "paragraphs", "truncated", "empty_docs")}
        steps_in_beam = sum(1 for row in self.spans
                            if row[0] == "generator.decode_step" and row[5] == phase
                            and row[3] >= 0 and self.spans[row[3]][0] == "generator.generate_paragraph")
        docs, paras = produced["docs"], produced["paragraphs"]
        m = {
            "trace.overhead_share": overhead_share,
            "autodiff.ops_per_item": n_ops / items if items else 0.0,
            "autodiff.tape_nodes_per_item": n_nodes / items if items else 0.0,
            "autodiff.backward_ms_per_item": per_item("autodiff.backward"),
            "autodiff.clip_ms_per_update": per_call_ms("autodiff.clip_global_norm", phase),
            "autodiff.grad_check.max_rel_err": max_rel_err,
            "encoders.lstm_cell.calls_per_item": per_item("encoders.lstm_cell", calls=True),
            "encoders.lstm_cell.ms_per_item": per_item("encoders.lstm_cell"),
            "encoders.encode_pool.ms_per_item": per_item("encoders.encode_pool"),
            "encoders.encode_paragraphs.ms_per_item": per_item("encoders.encode_paragraphs"),
            "encoders.state_steps.ms_per_item": per_item("encoders.step_text_state",
                                                         "encoders.step_plan_state"),
            "planner.distribution.ms_per_item": per_item("planner.prior_plan_distribution",
                                                         "planner.posterior_plan_distribution"),
            "planner.kl.ms_per_item": per_item("planner.kl_divergence"),
            "planner.sample.ms_per_item": per_item("planner.sample_plan"),
            "generator.decode_step.calls_per_item": per_item("generator.decode_step", calls=True),
            "generator.decode_step.ms_per_item": per_item("generator.decode_step"),
            "generator.decode_steps_per_token": (steps_in_beam / produced["tokens"]
                                                 if produced["tokens"] else 0.0),
            "generator.beam_search.self_ms_per_item": per_item("generator.generate_paragraph",
                                                               self_time=True),
            "generator.init_decoder.ms_per_item": per_item("generator.init_decoder"),
            "training.compute_loss.ms_per_item": per_item("training.compute_loss"),
            "training.adagrad_update.ms": per_call_ms("training.adagrad_update"),
            "training.plan_selection_accuracy.ms": per_call_ms("training.plan_selection_accuracy"),
            "training.checkpoint.save_ms": per_call_ms("training.save_checkpoint"),
            "training.checkpoint.load_ms": per_call_ms("training.load_checkpoint"),
            # one call prepares one game, so the mean per call is per game
            "training.prepare_game.ms_per_item": per_call_ms("training.prepare_game"),
            "inference.generate_document.self_ms_per_item": per_item(
                "inference.generate_document", self_time=True),
            "inference.tune_bins.ms": per_call_ms("inference.tune_bins"),
            "inference.paragraphs_per_doc": paras / docs if docs else 0.0,
            "inference.truncated_share": produced["truncated"] / paras if paras else 0.0,
            "inference.empty_doc_share": produced["empty_docs"] / docs if docs else 0.0,
            "metrics.evaluate_corpus.ms": per_call_ms("metrics.evaluate_corpus"),
            "metrics.bleu.ms": per_call_ms("metrics.bleu"),
            "corpus.build_plan_pool.ms_per_item": per_call_ms("corpus.build_plan_pool"),
            "corpus.build_vocab.ms": per_call_ms("corpus.build_vocab"),
            "synth.generate_toy_corpus.ms": per_call_ms("synth.generate_toy_corpus"),
        }
        for kind in OP_KINDS:
            st = ops.get(kind)
            m[f"autodiff.op_us.{kind}"] = 1e6 * st[1] / st[0] if st and st[0] else 0.0
            m[f"autodiff.tape_nodes.{kind}"] = st[2] / items if st and items else 0.0
        return m

    def write(self, path, extra: dict) -> None:
        """``extra``, call counts, op counters and spans as one JSON document."""
        doc = dict(extra)
        doc["calls"] = self.call_counts()
        doc["ops"] = {phase: {k: {"calls": st[0], "seconds": st[1], "tape_nodes": st[2]}
                              for k, st in sorted(ops.items())}
                      for phase, ops in self.ops.items()}
        doc["span_fields"] = ["name", "start", "end", "parent", "item", "phase"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
