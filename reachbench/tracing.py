"""Spans recorded from outside the program, by wrapping its public functions.

A ``Tracer`` replaces each target attribute with a wrapper that records one
span per call: (label, start, end, parent index, quantity, raised). Spans
stay in memory until the run ends. Each name is patched where callers look
it up: a module attribute (``model.transition``), a class attribute
(``trainer.Adam.step``) or a name imported into another module
(``trainer.project``). ``Patch.remove`` restores every original attribute.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

_MARK = "__reachbench_wrapped__"


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    label: the span name, or a callable (args, kwargs) -> name.
    qty: optional callable (args, kwargs, result) -> number stored on the
    span (bytes written, tape records, ...).
    """

    owner: object
    attr: str
    label: object
    qty: object = None


class Tracer:
    """Wraps a fixed list of targets; spans accumulate across installs."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []   # (label, start, end, parent, qty, raised)
        self._stack = []

    def wrap(self, fn, label, qty=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised, out = True, None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                n = qty(args, kwargs, out) if (qty is not None and not raised) else 0
                spans[idx] = (name, start, end, parent, n, raised)

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        """Wrap every target; returns the Patch that undoes it."""
        patch = Patch()
        try:
            for t in self.targets:
                original = t.owner.__dict__[t.attr]
                if getattr(original, _MARK, False):
                    raise RuntimeError(f"{t.attr} is already wrapped")
                patch.saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(original, t.label, t.qty))
        except BaseException:
            patch.remove()
            raise
        return patch


class Patch:
    def __init__(self):
        self.saved = []

    def remove(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def wrapped_names(targets):
    """Targets whose attribute still holds a wrapper (empty after removal)."""
    return [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}" for t in targets
            if getattr(t.owner.__dict__[t.attr], _MARK, False)]


def covered_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered_length(children.get(i, ()), s[1], s[2])
            for i, s in enumerate(spans)]


@dataclass
class LabelStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    qty: float = 0.0
    raised: int = 0


def summarize(spans, keep=None):
    """Aggregate spans by label; `keep` optionally selects spans by index."""
    out = defaultdict(LabelStats)
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if keep is not None and not keep[i]:
            continue
        st = out[s[0]]
        st.calls += 1
        st.total_s += s[2] - s[1]
        st.self_s += own
        st.qty += s[4]
        st.raised += s[5]
    return out


def inside(spans, ancestor):
    """Per span: whether it is, or runs inside, a span named `ancestor`.

    Parents always precede their children, so one forward pass suffices.
    """
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        flags[i] = s[0] == ancestor or (s[3] >= 0 and flags[s[3]])
    return flags
