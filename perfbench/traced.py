#!/usr/bin/env python3
"""Run one cpops CLI invocation with spans around calls between cpops modules.

    python3 perfbench/traced.py SUMMARY.json CACHE_DIR CLI-ARGS...

Wrappers go on the names one cpops module imports from another, so a call
inside a module is never split, on two hot methods, and on the enumeration
generators, which are timed per ``next()``. Each span is one entry in flat
arrays (kind, parent, start, end); the invocation id is the process, which
the benchmark starts fresh for every invocation. The spans stay in memory
until the CLI returns. Then the wrappers come off, a ``char`` result is
stored in and read back from a content-addressed cache in CACHE_DIR, and the
spans are reduced to calls, total and self time per kind and written, with
the counters, to SUMMARY.json. The exit status is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    """Spans in flat arrays: kind id, parent index (-1 at the root) and
    start and end in nanoseconds."""

    def __init__(self):
        self.names = []
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self.patched = []

    def _kind_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn):
        k = self._kind_id(name)
        kind, parent, start, end, stack = (
            self.kind, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(kind)
            kind.append(k)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def generator(self, name: str, fn):
        """One span per next() of the generators ``fn`` returns; the items
        they yield are counted under ``<layer>.items``."""
        step = self.span(name, next)
        counts = self.counts
        items = name.rsplit(".", 1)[0] + ".items"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[items] += 1
                yield item
        return traced

    def count(self, name: str, fn, amount=lambda result: 1):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += amount(result)
            return result
        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def reduce(self) -> dict:
        """Calls, total and self seconds per kind. Self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.names)
        calls, total, own = [0] * n, [0] * n, [0] * n
        kind = self.kind
        for k, p, s, e in zip(kind, self.parent, self.start, self.end):
            d = e - s
            calls[k] += 1
            total[k] += d
            own[k] += d
            if p >= 0:
                own[kind[p]] -= d
        return {name: {"calls": calls[k], "total_s": total[k] / 1e9,
                       "self_s": own[k] / 1e9}
                for k, name in enumerate(self.names)}


def install(tracer: Tracer, captured: list) -> None:
    from cpops import branching, characters, cli, oracle, pops

    generators = {
        "patterns.enumerate": [
            (m, f) for m in (pops, branching, cli)
            for f in ("enumerate_patterns", "enumerate_restricted_patterns")],
        "pops.enumerate": [
            (characters, "enumerate_pops"),
            (branching, "enumerate_pops"), (branching, "enumerate_restricted_pops"),
            (cli, "enumerate_pops"), (cli, "enumerate_restricted_pops")],
    }
    spans = {
        "patterns.differences": [(pops, "differences")],
        "pops.weight": [(characters, "pop_weight")],
        "pops.boxes": [(characters, "pop_boxes")],
        "pops.serialize": [(cli, "pop_to_json"), (cli, "pop_monomial"),
                           (cli, "monomial_to_json"), (pops.PbwMonomial, "text")],
        "characters.qpoly_mul": [(characters.QPolynomial, "__mul__"),
                                 (characters.QPolynomial, "__rmul__")],
        "characters.add_term": [(characters.GradedCharacter, "add_term")],
        "characters.serialize": [(cli, f"character_to_{fmt}")
                                 for fmt in ("json", "csv", "latex", "text")],
        "oracle.freudenthal": [(branching, "freudenthal_character")],
        "oracle.orbit": [(oracle, "signed_orbit")],
        "oracle.weyl_dim": [(branching, "weyl_dim"), (cli, "weyl_dim")],
        "branching.verify": [(cli, "verify_identities")],
    }
    for name, targets in generators.items():
        for owner, attr in targets:
            tracer.patch(owner, attr, tracer.generator(name, getattr(owner, attr)))
    for name, targets in spans.items():
        for owner, attr in targets:
            tracer.patch(owner, attr, tracer.span(name, getattr(owner, attr)))
    tracer.patch(pops, "root_vector",
                 tracer.count("rootsys.root_vector", pops.root_vector))
    tracer.patch(oracle, "dominant_weights_below",
                 tracer.count("oracle.dominant_weights", oracle.dominant_weights_below,
                              amount=len))

    def output_terms(ch):
        return len(ch.terms)

    for method in ("direct", "fermionic"):
        attr = f"character_{method}"
        for owner in (branching, cli):
            wrapper = tracer.count("characters.terms", tracer.span(
                f"characters.{method}", getattr(owner, attr)), amount=output_terms)
            if owner is cli:
                wrapper = capture(method, wrapper, captured)
            tracer.patch(owner, attr, wrapper)


def capture(method: str, fn, captured: list):
    """Keep the CLI's computed character for the cache probe."""
    @functools.wraps(fn)
    def capturing(weight):
        t0 = time.perf_counter()
        ch = fn(weight)
        captured.append((method, weight, ch, time.perf_counter() - t0))
        return ch
    return capturing


def probe_cache(captured: list, cache_dir: str) -> dict:
    """Store each computed character, look it up again and compare."""
    from cpops.cache import cache_lookup, cache_store
    probe = {"store_s": 0.0, "lookup_s": 0.0, "entry_bytes": 0,
             "compute_s": 0.0, "ok": True}
    for method, weight, ch, compute_s in captured:
        t0 = time.perf_counter()
        path = cache_store(cache_dir, weight.rank, weight.lam, method, ch)
        t1 = time.perf_counter()
        hit = cache_lookup(cache_dir, weight.rank, weight.lam, method)
        t2 = time.perf_counter()
        probe["store_s"] += t1 - t0
        probe["lookup_s"] += t2 - t1
        probe["entry_bytes"] += os.path.getsize(path)
        probe["compute_s"] += compute_s
        probe["ok"] = probe["ok"] and hit == ch
    return probe


def main() -> int:
    summary_path, cache_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    cli = importlib.import_module("cpops.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    captured = []
    install(tracer, captured)
    cli_main = tracer.span("cli.main", cli.main)
    returncode = cli_main(argv)
    sys.stdout.flush()
    main_end = time.perf_counter()

    tracer.unpatch()
    from cpops.characters import q_binomial
    qbinomial = q_binomial.cache_info()
    summary = {
        "import_s": import_s,
        "spans": len(tracer.kind),
        "kinds": tracer.reduce(),
        "counts": dict(tracer.counts),
        "qbinomial_calls": qbinomial.hits + qbinomial.misses,
        "cache": probe_cache(captured, cache_dir),
    }
    summary["tail_s"] = time.perf_counter() - main_end
    Path(summary_path).write_text(json.dumps(summary))
    return returncode


if __name__ == "__main__":
    sys.exit(main())
