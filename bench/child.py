"""In-process instrumentation of one kljnsim CLI invocation.

Run by ``run.py`` in a fresh interpreter, never imported by it:

    python3 bench/child.py setup  -- <kljnsim argv>
    python3 bench/child.py trace  SPANS.json -- <kljnsim argv>
    python3 bench/child.py memory PEAK.json  -- <kljnsim argv>

``setup`` resolves the configuration and exits the moment the first cell
would start, so the parent's wall clock of the whole process is the set-up
time.  ``trace`` wraps the module-level functions at each layer boundary,
runs the CLI unchanged and writes every span, as a JSON list, at the end.
``memory`` runs the CLI under ``tracemalloc`` and writes the traced peak in
bytes.  The package must
already be importable (``run.py`` puts the checkout's ``src`` on the path).
"""

import functools
import itertools
import json
import os
import sys
import threading
import tracemalloc
from time import perf_counter_ns

# Exit code of a set-up probe whose command never reached a cell.
NO_CELL_REACHED = 3


def _cli_argv() -> list[str]:
    return sys.argv[sys.argv.index("--") + 1 :]


def setup_probe(argv: list[str]) -> int:
    # Stub the cell entry points in their defining modules before the CLI
    # binds them with ``from .experiment import ...``.
    import kljnsim.channel
    import kljnsim.experiment

    def first_cell(*args, **kwargs):
        os._exit(0)

    kljnsim.experiment.sweep = first_cell
    kljnsim.experiment.run_point = first_cell
    kljnsim.channel.simulate_session = first_cell
    import kljnsim.cli

    kljnsim.cli.main(argv)
    return NO_CELL_REACHED


class Recorder:
    """Collects spans in memory: (id, parent, name, start_ns, end_ns, cell, info).

    Each thread keeps its own stack of open spans.  A pool thread whose
    stack is empty takes the innermost span open on the main thread as its
    parent, which links sweep cells run by ``--threads`` to their sweep.
    ``cell`` is the id of the enclosing ``experiment.run_point`` span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, int | None]] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` recording one span per call.

        ``info(args, result)`` may return a number kept with the span, such
        as a sample or period count.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            parent, cell = outer if outer else (None, None)
            if name == "experiment.run_point":
                cell = span_id
            stack.append((span_id, cell))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            extra = info(args, result) if info else None
            self.spans.append((span_id, parent, name, start, end, cell, extra))
            return result

        return traced


def _instrument(recorder: Recorder) -> None:
    import kljnsim.attacks as attacks
    import kljnsim.channel as channel
    import kljnsim.cli as cli
    import kljnsim.experiment as experiment

    def periods(args, records):
        return len(records)

    def samples(args, trace):
        return args[0].n_samples

    def members(args, prep):
        return prep.ensemble_size

    def secure(args, outcome):
        return outcome.n_secure

    def undetermined(args, decision):
        return int(decision.guess is None)

    # (module, attribute, span name, info); names are patched where the
    # callers look them up, because each caller binds them by import.
    targets = [
        (experiment, "simulate_session", "channel.session", periods),
        (experiment, "hf_prepare", "attacks.hf_prepare", members),
        (experiment, "hf_ac_power", "attacks.hf_ac_power", None),
        (experiment, "hf_decide", "attacks.hf_decide", None),
        (experiment, "lf_threshold", "attacks.lf_threshold", None),
        (experiment, "lf_gamma", "attacks.lf_gamma", None),
        (experiment, "lf_decide", "attacks.lf_decide", undetermined),
        (experiment, "notch_filter", "experiment.notch", None),
        (experiment, "run_point", "experiment.run_point", secure),
        (channel, "generate_unit_gbwn", "noise.gbwn", samples),
        (attacks, "generate_unit_gbwn", "noise.gbwn", samples),
        (attacks, "periodogram", "noise.periodogram", None),
        (cli, "sweep", "experiment.sweep", None),
        (cli, "run_point", "experiment.run_point", secure),
        (cli, "write_sweep_csv", "experiment.csv", None),
        (cli, "dispatch", "cli.dispatch", None),
    ]
    for module, attribute, name, info in targets:
        setattr(module, attribute, recorder.wrap(name, getattr(module, attribute), info))


def trace_run(out_path: str, argv: list[str]) -> int:
    import kljnsim.cli

    recorder = Recorder()
    _instrument(recorder)
    code = kljnsim.cli.main(argv)
    with open(out_path, "w") as handle:
        json.dump(recorder.spans, handle)
    return code


def memory_run(out_path: str, argv: list[str]) -> int:
    import kljnsim.cli

    tracemalloc.start()
    code = kljnsim.cli.main(argv)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    with open(out_path, "w") as handle:
        json.dump(peak, handle)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup_probe(_cli_argv()))
    if mode == "trace":
        sys.exit(trace_run(sys.argv[2], _cli_argv()))
    if mode == "memory":
        sys.exit(memory_run(sys.argv[2], _cli_argv()))
    sys.exit(f"unknown mode {mode!r}")
