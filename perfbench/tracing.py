"""Spans and counts at the boundaries of the `rbcm` modules.

`Tracer.install()` replaces each traced function by a wrapper in every
`rbcm` module that holds it, so calls made through another module (for
example `decide.run_deterministic`, which is `machine.run_deterministic`)
and calls inside the defining module are both seen.  `uninstall()` puts
the originals back.

A span records the name, start, end and parent span, and the id of the
benchmark operation that caused it.  Self time is a span's duration minus
the time its child spans cover.  Counts are taken from the arguments and
results at the same boundary.

Traced: every public function of `machine`, `regular`, `fileformat`,
`decide`, `constructions`, `transducer` and `cli`, and the private
stages that the per-layer metrics name.  Left out, so that their time
counts in their caller: the per-step helpers in HOT (called once per
simulation step or per semilinear-set operation, where a wrapper would
cost more than the work), and `hilbert_solutions`, whose time belongs to
`solve_diophantine`.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("machine", "regular", "fileformat", "decide", "constructions", "transducer", "cli")
PRIVATE = {
    "decide": ("_ncm_explore", "_parikh_paths", "_fourier_motzkin_feasible",
               "_probe_witness", "_search_witness", "_member_pipeline"),
    "constructions": ("_complement",),
}
HOT = {
    "machine": ("applicable_steps", "apply_deltas", "current_symbol", "fresh_budgets",
                "initial_configuration", "all_guards", "step", "accepts"),
    "decide": ("linear", "realize", "sl_zero", "sl_union", "sl_concat", "sl_star",
               "hilbert_solutions"),
}
# outermost calls of these build the machines that `constructions.out_*` count
PRODUCERS = {
    "constructions.inverse_insertion_ncm", "constructions.concat_ncm",
    "constructions.boolean_dcm", "constructions.product_intersection",
    "constructions.strip_end_marker_one_counter", "constructions.inverse_prefix_dcm1",
    "constructions.left_quotient_word", "transducer.inverse_apply",
    "transducer.forward_image_ncm",
}

# per-layer metric -> traced functions whose self time it sums
SELF_TIME = {
    "machine.run_deterministic.s": ("machine.run_deterministic",),
    "machine.enforce_reversal_control.s": ("machine.enforce_reversal_control",),
    "decide.ncm_explore.s": ("decide._ncm_explore",),
    "decide.to_one_reversal.s": ("decide.to_one_reversal",),
    "decide.build_phase_automaton.s": ("decide.build_phase_automaton",),
    "decide.parikh_paths.s": ("decide._parikh_paths",),
    "decide.sl_dedup.s": ("decide.sl_dedup",),
    "decide.linear_feasible.s": ("decide.linear_feasible",),
    "decide.fourier_motzkin.s": ("decide._fourier_motzkin_feasible",),
    "decide.solve_diophantine.s": ("decide.solve_diophantine",),
    "decide.probe_witness.s": ("decide._probe_witness",),
    "decide.search_witness.s": ("decide._search_witness",),
    "constructions.product_intersection.s": ("constructions.product_intersection",),
    "constructions.complement.s": ("constructions._complement",),
    "constructions.stay_runs_terminate.s": ("constructions.stay_runs_terminate",),
    "constructions.inverse_insertion_ncm.s": ("constructions.inverse_insertion_ncm",),
    "constructions.concat_ncm.s": ("constructions.concat_ncm",),
    "constructions.strip_end_marker_one_counter.s": ("constructions.strip_end_marker_one_counter",),
    "constructions.left_quotient_word.s": ("constructions.left_quotient_word",),
    "transducer.inverse_apply.s": ("transducer.inverse_apply",),
    "transducer.forward_image_ncm.s": ("transducer.forward_image_ncm",),
    "transducer.transduce_det.s": ("transducer.transduce_det",),
    "regular.s": "regular.",                   # every traced function of the module
    "fileformat.parse_machine.s": ("fileformat.parse_machine",),
    "fileformat.serialize_machine.s": ("fileformat.serialize_machine",),
    "cli.run_cli.s": ("cli.run_cli",),
}
# per-layer metric -> traced function whose calls it counts
CALLS = {
    "machine.run_deterministic.calls": "machine.run_deterministic",
    "decide.ncm_explore.calls": "decide._ncm_explore",
    "decide.linear_feasible.calls": "decide.linear_feasible",
    "decide.probe_witness.calls": "decide._probe_witness",
    "decide.member_pipeline.calls": "decide._member_pipeline",
}
COUNTS = (
    "machine.run_steps", "machine.rc_states", "decide.one_rev.transitions",
    "decide.phase.nodes", "decide.phase.edges", "decide.linear_sets",
    "decide.probe_witness.hits", "constructions.out_states",
    "constructions.out_transitions", "fileformat.bytes",
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.keep_spans = True   # spans are kept for the first traced round only
        self.self_time = {}      # traced function -> seconds
        self.calls = {}          # traced function -> calls
        self.counts = {}         # count metric -> value
        self.stack = []          # open spans: [span index or -1, child seconds]
        self.producing = 0       # open PRODUCERS spans
        self.op = None
        self._saved = []

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn):
        tracer = self
        producer = name in PRODUCERS

        def wrapper(*args, **kwargs):
            outermost = producer and tracer.producing == 0
            tracer.producing += producer
            idx = -1
            if tracer.keep_spans:
                idx = len(tracer.spans)
                parent = tracer.stack[-1][0] if tracer.stack else -1
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op])
            tracer.stack.append([idx, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.producing -= producer
                _idx, child = tracer.stack.pop()
                if idx >= 0:
                    tracer.spans[idx][1:3] = [start, end]
                if tracer.stack:
                    tracer.stack[-1][1] += end - start
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + (end - start - child)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            tracer._observe(name, args, result, outermost)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _observe(self, name, args, result, outermost):
        if name == "machine.run_deterministic":
            self.count("machine.run_steps", len(result.steps))
        elif name == "machine.enforce_reversal_control":
            self.count("machine.rc_states", len(result.states))
        elif name == "decide.to_one_reversal":
            self.count("decide.one_rev.transitions", len(result.transitions))
        elif name == "decide.build_phase_automaton":
            self.count("decide.phase.nodes", len(result.nodes))
            self.count("decide.phase.edges", len(result.edges))
        elif name == "decide._parikh_paths":
            self.count("decide.linear_sets", len(result))
        elif name == "decide.linear_feasible":
            self.count("decide.linear_feasible.useful", result is not None)
        elif name == "decide._probe_witness":
            self.count("decide.probe_witness.hits", result is not None)
        elif name == "fileformat.parse_machine":
            self.count("fileformat.bytes", len(args[0]))
        elif name == "fileformat.serialize_machine":
            self.count("fileformat.bytes", len(result))
        if outermost:
            self.count("constructions.out_states", len(result.states))
            self.count("constructions.out_transitions", len(result.transitions))

    def install(self):
        mods = {m: importlib.import_module(f"rbcm.{m}") for m in MODULES}
        holders = [importlib.import_module("rbcm")] + list(mods.values())
        for m, mod in mods.items():
            for n, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if (n.startswith("_") and n not in PRIVATE.get(m, ())) or n in HOT.get(m, ()):
                    continue
                wrapped = self._wrap(f"{m}.{n}", fn)
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._saved.append((holder, attr, fn))
                            setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved = []

    def metrics(self, rounds):
        """Per-layer metrics, each per traced round."""
        out = {}
        for metric, names in SELF_TIME.items():
            if isinstance(names, str):
                names = [n for n in self.self_time if n.startswith(names)]
            out[metric] = sum(self.self_time.get(n, 0.0) for n in names) / rounds
        for metric, name in CALLS.items():
            out[metric] = self.calls.get(name, 0) / rounds
        for metric in COUNTS:
            out[metric] = self.counts.get(metric, 0) / rounds
        calls = self.calls.get("decide.linear_feasible", 0)
        out["decide.linear_feasible.feasible"] = (
            self.counts.get("decide.linear_feasible.useful", 0) / calls if calls else 0.0)
        return out
