"""Spans around omegalab's entry points, recorded from outside the program.

``Tracer.install`` rebinds every module attribute of omegalab that holds a
traced function, so calls made from inside the package (``cli`` calling
``omega``, ``ideals`` calling ``closure_elements``) are seen as well as the
benchmark's own. Only entry points are wrapped, never per-element
primitives such as ``ring.mul``.

A span is ``(id, name, start, end, parent, unit, counts)``. The parent
stack is kept per thread. A span opened on a thread with an empty stack,
such as a campaign's pool thread, takes as parent the innermost span open
on the thread that activated the tracer. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

# span tuple fields
ID, NAME, START, END, PARENT, UNIT, COUNTS = range(7)


def _checked(_args, out):
    return {"pairs": out.checked, "sampled": out.mode.startswith("sampled")}


def _lattice_hit(args):
    return {"hit": args[0].caches.get("all_ideals") is not None}


# name -> (count taken before the call from its arguments,
#          count taken from the return value)
COUNTERS: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "rings.verify_ring_axioms": (None, lambda a, out: {"unchecked": not out.checked}),
    "ideals.all_ideals": (_lattice_hit, lambda a, out: {"ideals": len(out)}),
    "absorbing.omega": (None, lambda a, out: {"capped": out.value is None}),
    "absorbing.strong_omega": (None, lambda a, out: {"capped": out.value is None}),
    "content_checks.dm_exponent_table": (None, _checked),
    "content_checks.gaussian_search": (None, _checked),
    "content_checks.armendariz_search": (None, _checked),
    "content_checks.certify_pair_sweep": (
        None,
        lambda a, out: {"pairs": out.pairs, "qualifying": out.qualifying,
                        "sampled": out.mode.startswith("sampled")},
    ),
    "content_checks.verify_poly_omega": (None, lambda a, out: {"tuples": out.checked}),
    "integers.conjecture_check_int": (
        None, lambda a, out: {"checked": out.checked, "drawn": out.drawn}
    ),
    "cli.run_campaign": (None, lambda a, out: {"records": len(out)}),
}

PACKAGE = "omegalab"
# module -> traced functions defined there
ENTRY_POINTS = {
    "rings": ("parse_ring_spec", "make_zmod", "make_product",
              "make_truncated_local", "make_quotient", "verify_ring_axioms"),
    "ideals": ("all_ideals", "closure_elements", "ideal_radical",
               "is_radical_ideal"),
    "absorbing": ("omega", "strong_omega", "is_n_absorbing",
                  "is_strongly_n_absorbing", "omega_agreement_table"),
    "polys": ("poly_mul",),
    "content_checks": ("dm_exponent_table", "gaussian_search",
                       "armendariz_search", "certify_pair_sweep",
                       "verify_poly_omega", "bezout_factor"),
    "integers": ("conjecture_check_int", "omega_int"),
    "cli": ("run_campaign", "render_report"),
}
# methods traced on a class: (module, class, method)
ENTRY_METHODS = (("rings", "FiniteRing", "units"),)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.unit: Optional[str] = None
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def activate(self) -> None:
        """Trace calls from now on; this thread's stack roots other threads."""
        self._root_stack = self._stack()
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    def wrap(self, fn: Callable, name: str) -> Callable:
        before, after = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            sid = next(self._ids)
            counts = before(args) if before else {}
            stack.append(sid)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                if after and out is not None:
                    counts.update(after(args, out))
                self.spans.append((sid, name, start, end, parent, self.unit, counts))

        return traced

    def install(self) -> None:
        """Rebind every binding of each entry point across the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short, names in ENTRY_POINTS.items():
            owner = sys.modules[f"{PACKAGE}.{short}"]
            for fname in names:
                fn = getattr(owner, fname)
                wrapper = self.wrap(fn, f"{short}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for short, cls_name, meth in ENTRY_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(fn, f"{short}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] in by_id:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        clipped = [(max(c[START], lo), min(c[END], hi)) for c in children[s[ID]]]
        out[s[ID]] = (hi - lo) - union_length([c for c in clipped if c[1] > c[0]])
    return out


def outermost(spans, names) -> list[tuple]:
    """Spans named in ``names`` with no ancestor named in ``names``, so that
    nested and recursive calls are counted once."""
    names = set(names)
    by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = by_id.get(s[PARENT])
        while p is not None and p[NAME] not in names:
            p = by_id.get(p[PARENT])
        if p is None:
            out.append(s)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    def sel(*names):
        return outermost(spans, names)

    def secs(sel_spans):
        return sum(s[END] - s[START] for s in sel_spans)

    def total(sel_spans, key):
        return sum(s[COUNTS].get(key, 0) for s in sel_spans)

    m: dict[str, float] = {}
    builds = sel("rings.parse_ring_spec", "rings.make_zmod", "rings.make_product",
                 "rings.make_truncated_local", "rings.make_quotient")
    verify = sel("rings.verify_ring_axioms")
    m["rings.build_calls"] = len(builds)
    m["rings.build_s"] = secs(builds)
    m["rings.verify_s"] = secs(verify)
    m["rings.verify_unchecked"] = total(verify, "unchecked")
    m["rings.units_s"] = secs(sel("rings.units"))

    lattice = sel("ideals.all_ideals")
    closure = sel("ideals.closure_elements")
    m["ideals.lattice_calls"] = len(lattice)
    m["ideals.lattice_s"] = secs(lattice)
    m["ideals.lattice_ideals"] = sum(
        s[COUNTS].get("ideals", 0) for s in lattice if not s[COUNTS].get("hit"))
    m["ideals.lattice_hit_ratio"] = _ratio(total(lattice, "hit"), len(lattice))
    m["ideals.closure_calls"] = len(closure)
    m["ideals.closure_s"] = secs(closure)
    m["ideals.radical_s"] = secs(sel("ideals.ideal_radical", "ideals.is_radical_ideal"))

    om, strong = sel("absorbing.omega"), sel("absorbing.strong_omega")
    m["absorbing.omega_calls"] = len(om)
    m["absorbing.omega_s"] = secs(om)
    m["absorbing.degree_steps"] = len(sel("absorbing.is_n_absorbing"))
    m["absorbing.strong_calls"] = len(strong)
    m["absorbing.strong_s"] = secs(strong)
    m["absorbing.strong_steps"] = len(sel("absorbing.is_strongly_n_absorbing"))
    m["absorbing.capped"] = total(om, "capped") + total(strong, "capped")

    mul = sel("polys.poly_mul")
    m["polys.poly_mul_calls"] = len(mul)
    m["polys.poly_mul_s"] = secs(mul)

    dm = sel("content_checks.dm_exponent_table")
    search = sel("content_checks.gaussian_search", "content_checks.armendariz_search")
    cert = sel("content_checks.certify_pair_sweep")
    sweeps = dm + search + cert
    sweep_pairs = total(sweeps, "pairs")
    m["content_checks.dm_s"] = secs(dm)
    m["content_checks.dm_pairs"] = total(dm, "pairs")
    m["content_checks.search_s"] = secs(search)
    m["content_checks.search_pairs"] = total(search, "pairs")
    m["content_checks.certify_s"] = secs(cert)
    m["content_checks.certify_pairs"] = total(cert, "pairs")
    m["content_checks.certify_qualifying_ratio"] = _ratio(
        total(cert, "qualifying"), total(cert, "pairs"))
    m["content_checks.pairs_per_s"] = _ratio(sweep_pairs, secs(sweeps))
    m["content_checks.sampled_share"] = _ratio(
        sum(s[COUNTS]["pairs"] for s in sweeps if s[COUNTS].get("sampled")),
        sweep_pairs)
    poly_omega = sel("content_checks.verify_poly_omega")
    bezout = sel("content_checks.bezout_factor")
    m["content_checks.poly_omega_s"] = secs(poly_omega)
    m["content_checks.poly_omega_tuples"] = total(poly_omega, "tuples")
    m["content_checks.bezout_s"] = secs(bezout)
    m["content_checks.bezout_calls"] = len(bezout)

    conj = sel("integers.conjecture_check_int")
    m["integers.conjecture_s"] = secs(conj)
    m["integers.drawn"] = total(conj, "drawn")
    m["integers.accept_ratio"] = _ratio(total(conj, "checked"), total(conj, "drawn"))

    campaign = sel("cli.run_campaign")
    own = self_times(spans)
    m["cli.campaign_s"] = secs(campaign)
    m["cli.self_s"] = sum(own[s[ID]] for s in spans if s[NAME].startswith("cli."))
    m["cli.render_s"] = secs(sel("cli.render_report"))
    m["cli.records"] = total(campaign, "records")
    return m
