"""In-memory span recorder and the wrapping that feeds it.

A span is one call of a wrapped library function: its name, start and
end (``perf_counter`` seconds), the index of the span that was open when
it started (its parent, -1 for none), the op id the benchmark set, and the
name of the exception it raised, if any.  The open span and the op id
live in ``contextvars``, so nesting needs no bookkeeping in the wrapped
code.  Spans stay in memory until ``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import sys
import time

NAME, START, END, PARENT, OP, ERROR = range(6)


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open = contextvars.ContextVar("open_span", default=-1)
        self._op = contextvars.ContextVar("op_id", default=-1)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Tag the spans opened inside the block with ``op_id``."""
        token = self._op.set(op_id)
        try:
            yield
        finally:
            self._op.reset(token)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; its result and exceptions pass unchanged."""
        span = [name, self.clock(), None, self._open.get(), self._op.get(), None]
        self.spans.append(span)
        token = self._open.set(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            self._open.reset(token)
            span[END] = self.clock()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def overhead_pct(traced_wall: float, untraced_wall: float) -> float:
    """Extra wall time of the traced pass over the same ops, in percent."""
    return 100.0 * (traced_wall / untraced_wall - 1.0)


def install(recorder: SpanRecorder, targets: dict, package: str = "kleinian"):
    """Wrap ``package.<module>.<fn>`` for every ``{module: [fn, ...]}`` entry.

    The wrapper replaces the function in its defining module and in every
    ``package`` module that imported it by name, so calls from one layer
    into another are recorded too.  Returns a function that restores the
    originals.
    """
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == package or k.startswith(package + "."))]
    undo = []
    for mod_name, fn_names in targets.items():
        home = sys.modules[f"{package}.{mod_name}"]
        for fn_name in fn_names:
            orig = getattr(home, fn_name)
            wrapped = recorder.wrap(f"{mod_name}.{fn_name}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, orig))

    def restore():
        for m, attr, orig in reversed(undo):
            setattr(m, attr, orig)

    return restore
