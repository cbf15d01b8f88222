"""Outside-in tracer: runs the qwalk CLI with every public layer function
wrapped, then writes the spans to a JSON file.

    PYTHONPATH=src python perfbench/tracer.py TRACE_OUT <qwalk cli args...>

Nothing under ``src/`` changes.  Modules import functions by name
(``from .walk import evolve``), so each public function is replaced in
every ``qwalk`` module namespace that bound it, and the CLI's command
table ``qwalk.cli._COMMANDS`` is patched too.

Each call of an ordinary function becomes one span: name, start, end,
parent and self time (duration minus the time covered by child calls).
Functions called ~10^5 times per run (``HOT``) keep a count, a total, a
self total and a log-spaced latency histogram instead of one span each.
Everything stays in memory until the CLI returns.  Timestamps come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so they compare with
the launching process's clock.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time

import qwalk
import qwalk.cli

LAYERS = ("coin", "walk", "decoherence", "stats", "classical", "pricing")
CLI_FUNCTIONS = ("run", "parse_config", "write_outputs")
HOT = {"walk.step_unitary", "decoherence.step_broken_links", "decoherence.realization_rng"}
#: histogram bins per factor of two in latency
BINS_PER_OCTAVE = 8
#: functions whose distinct argument tuples are counted
DISTINCT_ARGS = ("decoherence.realization_rng", "classical.stable_pdf")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, self seconds]
        self.hot = {}  # name -> [count, total, self, {bin: count}]
        self.distinct = {name: set() for name in DISTINCT_ARGS}
        # one frame per open call: [span index or -1, time covered by children]
        self.stack = [[-1, 0.0]]

    def wrap(self, name, fn):
        perf = time.perf_counter
        stack = self.stack
        seen = self.distinct.get(name)

        if name in HOT:
            stat = self.hot.setdefault(name, [0, 0.0, 0.0, {}])
            hist = stat[3]
            log2 = math.log2

            def hot(*args, **kwargs):
                frame = [-1, 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    stack[-1][1] += dur
                    stat[0] += 1
                    stat[1] += dur
                    stat[2] += dur - frame[1]
                    b = int(log2(max(dur, 1e-9) * 1e9) * BINS_PER_OCTAVE)
                    hist[b] = hist.get(b, 0) + 1
                    if seen is not None:
                        seen.add((args, tuple(sorted(kwargs.items()))))

            return hot

        spans = self.spans

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1][0], 0.0]
            spans.append(span)
            frame = [index, 0.0]
            stack.append(frame)
            span[1] = t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = t1 = perf()
                stack.pop()
                stack[-1][1] += t1 - t0
                span[4] = t1 - t0 - frame[1]
                if seen is not None:
                    seen.add((args, tuple(sorted(kwargs.items()))))

        return traced

    def install(self):
        """Wrap the public functions of every layer in every qwalk module
        namespace that holds them."""
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules.get(f"qwalk.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for attr in CLI_FUNCTIONS:
            fn = getattr(qwalk.cli, attr, None)
            if inspect.isfunction(fn):
                wrapped[id(fn)] = self.wrap(f"cli.{attr}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name == "qwalk" or module_name.startswith("qwalk."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped and inspect.isfunction(value):
                        setattr(module, attr, wrapped[id(value)])
        commands = getattr(qwalk.cli, "_COMMANDS", {})
        for key, fn in commands.items():
            commands[key] = self.wrap("cli.command", fn)

    def dump(self, path, t_cli_start):
        doc = {
            "t_cli_start": t_cli_start,
            "spans": self.spans,
            "hot": {
                name: {"count": c, "total_s": tot, "self_s": slf,
                       "histogram": sorted(h.items())}
                for name, (c, tot, slf, h) in self.hot.items()
            },
            "distinct": {name: len(s) for name, s in self.distinct.items()},
            "bins_per_octave": BINS_PER_OCTAVE,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t_cli_start = time.perf_counter()
    code = qwalk.cli.run(argv)
    tracer.dump(out_path, t_cli_start)
    return code


if __name__ == "__main__":
    sys.exit(main())
