"""Spans recorded around the library's layer boundaries, from outside it.

``Tracer.install()`` replaces each boundary function at the name its callers
look up with a wrapper that records a span (name, start, end, parent) and
calls the original; ``Tracer.uninstall()`` puts the original objects back.
Spans live in flat arrays (28 bytes each) because the integrand and
``RadialProfile.value`` run hundreds of thousands of times per pass.

The wrapper's own bookkeeping runs outside the span it records, so it lands
in the parent's self time.  ``span_cost()`` measures that cost per span, and
``SpanTable`` subtracts it once per child from self times and once per
descendant from durations.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._patched: list = []   # (owner, attribute, original)
        self.active = False

    # ----------------------------------------------------------- recording

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` (recorded only while active)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        # Kept flat: this runs for every integrand evaluation.
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent = self.name_id, self.parent
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def _truncate(self, n: int):
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[n:]

    def span_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one span's bookkeeping adds outside its own interval: the
        best of ``repeats`` timings of ``calls`` wrapped no-op calls, less
        the recorded span time and the same calls unwrapped."""
        def noop():
            pass
        wrapped = self.wrap("trace.calibration", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            lo = len(self.start)
            self.active = True
            t0 = clock()
            for _ in range(calls):
                wrapped()
            t1 = clock()
            self.active = False
            inside = float(np.sum(np.frombuffer(self.end, dtype=np.float64)[lo:]
                                  - np.frombuffer(self.start, dtype=np.float64)[lo:]))
            self._truncate(lo)
            t2 = clock()
            for _ in range(calls):
                noop()
            t3 = clock()
            costs.append(((t1 - t0) - inside - (t3 - t2)) / calls)
        return max(0.0, min(costs))

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, name: str, make=None):
        original = owner.__dict__[attr]
        wrapper = (make or self.wrap)(name, original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_integrate(self, name: str, integrate):
        """integrate(request) with the request's integrand wrapped for the
        call; the swap runs inside the integrate span."""
        def swapped(request):
            fn = request.fn
            request.fn = self.wrap("calculus.integrand", fn)
            try:
                return integrate(request)
            finally:
                request.fn = fn
        wrapper = self.wrap(name, swapped)
        wrapper.__wrapped__ = integrate
        return wrapper

    def install(self):
        import ibodies.criteria
        import ibodies.families
        import ibodies.oracle
        import ibodies.profile
        import ibodies.transform
        from ibodies.profile import RadialProfile
        self._patch(ibodies.transform, "integrate", "calculus.integrate",
                    self._wrap_integrate)
        self._patch(ibodies.criteria, "integrate", "criteria.integrate",
                    self._wrap_integrate)
        self._patch(ibodies.transform, "h_jet", "transform.h_jet")
        self._patch(ibodies.transform, "box_operator", "transform.box_operator")
        self._patch(ibodies.transform, "obstruction_field",
                    "transform.obstruction_field")
        self._patch(RadialProfile, "value", "profile.value")
        self._patch(RadialProfile, "eval_array", "profile.eval_array")
        self._patch(ibodies.profile, "profile_from_json", "profile.profile_from_json")
        self._patch(ibodies.families, "check_for_dimension",
                    "families.check_for_dimension")
        self._patch(ibodies.families, "instantiate", "families.instantiate")
        self._patch(ibodies.oracle, "mc_section_volume", "oracle.mc_section_volume")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Read-only view of spans lo..hi with durations and self times, both
    net of the tracer's bookkeeping (``span_cost`` seconds per span)."""

    def __init__(self, tracer: Tracer, lo: int = 0, hi: int = None,
                 span_cost: float = 0.0):
        arr = tracer.arrays()
        hi = len(arr["start"]) if hi is None else hi
        self.names = tracer.names
        self.name_id = arr["name_id"][lo:hi]
        parent = arr["parent"][lo:hi]
        self.parent = np.where(parent >= lo, parent - lo, -1)
        raw = arr["end"][lo:hi] - arr["start"][lo:hi]
        n = len(raw)
        has_parent = self.parent >= 0
        # A parent always precedes its children, so depth and descendant
        # counts can be filled level by level.
        depth = np.zeros(n, dtype=np.int64)
        for _ in range(64):
            new = np.where(has_parent, depth[np.maximum(self.parent, 0)] + 1, 0)
            if np.array_equal(new, depth):
                break
            depth = new
        descendants = np.zeros(n)
        for d in range(int(depth.max(initial=0)), 0, -1):
            level = depth == d
            np.add.at(descendants, self.parent[level], 1.0 + descendants[level])
        self.dur = raw - span_cost * descendants
        children = np.bincount(self.parent[has_parent], minlength=n)
        child_raw = np.bincount(self.parent[has_parent], weights=raw[has_parent],
                                minlength=n)
        self.self_time = raw - child_raw - span_cost * children

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def parent_is(self, name: str) -> np.ndarray:
        return self.parent_in(lambda n: n == name)

    def parent_in(self, accept) -> np.ndarray:
        """Spans whose parent's name satisfies ``accept``."""
        ok = np.array([bool(accept(n)) for n in self.names] + [False])
        parent_name = np.where(self.parent >= 0, self.name_id[self.parent], len(self.names))
        return ok[parent_name]
