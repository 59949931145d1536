"""Span recorder, self time, overhead arithmetic and function wrapping.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
from spans import END, ERROR, NAME, OP, PARENT, START  # noqa: E402


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def _nested(rec):
    def leaf():
        return "leaf"

    def root():
        rec.call("b", leaf)
        rec.call("c", leaf)
        return "root"

    with rec.op(7):
        return rec.call("a", root)


def test_nested_and_sibling_spans_link_parents_and_ops():
    rec = spans.SpanRecorder(clock=ScriptedClock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    assert _nested(rec) == "root"
    names = [s[NAME] for s in rec.spans]
    assert names == ["a", "b", "c"]
    assert [s[PARENT] for s in rec.spans] == [-1, 0, 0]
    assert [s[OP] for s in rec.spans] == [7, 7, 7]
    assert [(s[START], s[END]) for s in rec.spans] == [(0.0, 10.0), (1.0, 3.0), (4.0, 6.0)]
    assert spans.self_times(rec.spans) == [6.0, 2.0, 2.0]


def test_op_id_resets_after_block():
    rec = spans.SpanRecorder(clock=ScriptedClock([0.0, 1.0, 2.0, 3.0]))
    with rec.op(3):
        rec.call("x", lambda: None)
    rec.call("y", lambda: None)
    assert [s[OP] for s in rec.spans] == [3, -1]


def test_self_time_counts_overlapping_children_once():
    rows = [
        ["p", 0.0, 10.0, -1, 0, None],
        ["c1", 1.0, 5.0, 0, 0, None],
        ["c2", 3.0, 7.0, 0, 0, None],
        ["g", 1.5, 2.5, 1, 0, None],
    ]
    assert spans.self_times(rows) == pytest.approx([4.0, 3.0, 4.0, 1.0])


def test_overhead_arithmetic():
    assert spans.overhead_pct(1.2, 1.0) == pytest.approx(20.0)
    assert spans.overhead_pct(2.0, 2.0) == 0.0
    assert spans.overhead_pct(0.9, 1.0) == pytest.approx(-10.0)


def test_wrapping_keeps_results_and_exceptions():
    rec = spans.SpanRecorder()
    payload = {"k": [1, 2]}

    def give(x, *, y):
        return payload if (x, y) == (1, 2) else None

    class Boom(ValueError):
        pass

    err = Boom("bad")

    def fail():
        raise err

    wrapped_give = rec.wrap("give", give)
    wrapped_fail = rec.wrap("fail", fail)
    assert wrapped_give(1, y=2) is payload
    assert wrapped_give.__name__ == "give" and wrapped_give.__wrapped__ is give
    with pytest.raises(Boom) as info:
        wrapped_fail()
    assert info.value is err
    assert [s[ERROR] for s in rec.spans] == [None, "Boom"]
    # the failed span is closed and no longer open: the next one is a root
    rec.call("after", lambda: None)
    assert rec.spans[-1][PARENT] == -1
    assert all(s[END] is not None for s in rec.spans)


def test_install_wraps_every_module_that_imported_the_name():
    pkg = types.ModuleType("fakepkg")
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x + 1

    home.f = f
    user.f = f  # as after "from .home import f"
    exec("def g(x):\n    return f(x) * 2\n", user.__dict__)
    mods = {"fakepkg": pkg, "fakepkg.home": home, "fakepkg.user": user}
    sys.modules.update(mods)
    try:
        rec = spans.SpanRecorder()
        restore = spans.install(rec, {"home": ["f"]}, package="fakepkg")
        assert home.f is not f and user.f is not f
        assert user.g(1) == 4 and home.f(2) == 3
        assert [s[NAME] for s in rec.spans] == ["home.f", "home.f"]
        restore()
        assert home.f is f and user.f is f
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_spans_written_as_json_lines(tmp_path):
    rec = spans.SpanRecorder(clock=ScriptedClock([0.0, 1.0]))
    rec.call("only", lambda: None)
    out = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(out))
    assert [json.loads(ln) for ln in out.read_text().splitlines()] == [
        ["only", 0.0, 1.0, -1, -1, None]
    ]
