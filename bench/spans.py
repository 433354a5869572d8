"""Spans and counters around skelcollar's public functions, for the traced
benchmark run only.

Each wrapper replaces a name at the site the package looks it up from (for
example ``skelcollar.duality.verify_birational``, which ``square_check``
calls), so the package's own calls pass through it.  A site that no longer
resolves, because a refactor renamed or removed it, is recorded as missing:
the run goes on and reports it instead of crashing or reading zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time

# layer metric name -> import sites "module:attribute.path"
SPAN_SITES = {
    "cli.main": ["skelcollar.cli:main"],
    "cli.build_parser": ["skelcollar.cli:build_parser"],
    "duality.duality_report": ["skelcollar.cli:duality_report"],
    "duality.square_check": ["skelcollar.duality:square_check"],
    "skeleton.skeleton": ["skelcollar.duality:skeleton"],
    "birmaps.verify_birational": ["skelcollar.duality:verify_birational"],
    "deform.index_step_family": ["skelcollar.duality:index_step_family"],
    "deform.ext_class": ["skelcollar.deform:ext_class"],
    "deform.ext1_basis": ["skelcollar.deform:ext1_basis"],
    "bundles.splitting_type": ["skelcollar.deform:splitting_type",
                               "skelcollar.cli:splitting_type"],
    "bundles.h0_twist": ["skelcollar.bundles:h0_twist"],
    "bundles.collar_iso_certificate": ["skelcollar.bundles:collar_iso_certificate"],
    "exact.RatMatrix.kernel": ["skelcollar.exact:RatMatrix.kernel"],
    "exact.LaurentPoly.from_json_dict": ["skelcollar.exact:LaurentPoly.from_json_dict"],
}

# hot paths: counted, not timed, so the trace stays cheap
COUNT_SITES = {
    "exact.LaurentPoly.mul": ["skelcollar.exact:LaurentPoly.__mul__",
                              "skelcollar.exact:LaurentPoly.__rmul__"],
}


def _observe_verdict(tracer, args, result):
    tracer.add("birmaps.samples_checked", result.checked)
    tracer.add("birmaps.samples_skipped", result.skipped)


def _observe_certificate(tracer, args, result):
    tracer.add("bundles.cert_found", result is not None)


def _observe_kernel(tracer, args, result):
    matrix = args[0]
    tracer.add("exact.RatMatrix.kernel.cells", matrix.rows * matrix.cols)


OBSERVERS = {
    "birmaps.verify_birational": _observe_verdict,
    "bundles.collar_iso_certificate": _observe_certificate,
    "exact.RatMatrix.kernel": _observe_kernel,
}


class Tracer:
    """Keeps every span in memory: (request, span id, parent id, name,
    start, end).  Self time is a span's duration minus its traced
    children's."""

    def __init__(self) -> None:
        self.request = None
        self.spans: list[tuple] = []
        self.stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_SITES}
        self.counters = {name: 0 for name in COUNT_SITES}
        self.missing: list[str] = []  # sites that no longer resolve
        self.unwrapped: list[str] = []  # metric names none of whose sites resolved
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _span(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                stat = self.stats[name]
                stat["calls"] += 1
                stat["total_s"] += end - start
                stat["self_s"] += end - start - frame[1]
                self.spans.append((self.request, frame[0], parent, name, start, end))
            if observe is not None:
                try:
                    observe(self, args, result)
                except AttributeError:
                    if f"{name} result" not in self.missing:
                        self.missing.append(f"{name} result")
            return result
        return traced

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, site: str, make) -> bool:
        module_name, _, path = site.partition(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(site)
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return True

    def install(self) -> None:
        for name, sites in SPAN_SITES.items():
            make = functools.partial(self._span, name, observe=OBSERVERS.get(name))
            if not [site for site in sites if self._patch(site, make)]:
                self.unwrapped.append(name)
        for name, sites in COUNT_SITES.items():
            make = functools.partial(self._count, name)
            if not [site for site in sites if self._patch(site, make)]:
                self.unwrapped.append(name)
