"""Span tracer that wraps symcol's public functions from outside the package.

`Tracer.install` replaces each public function in its plan by a wrapper
that records a span (name, start, end, parent, info).  It rebinds the name
in every symcol module that holds the function, not only in the module that
defines it, because modules that did ``from .x import name`` call their own
binding.  Spans stay in memory; `metrics` reduces them to the per-layer
numbers at the end, self time included.  Only the benchmark's traced pass
installs it, in its own interpreter, so the timed passes run unwrapped code.

Layers are the modules of ``symcol``.  ``latin`` and ``errors`` are left out:
``latin`` is reached only by constructions 4.5 and 5.1 and takes negligible
time there, and ``errors`` does no work.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

LAYERS = ("graphs", "transforms", "families", "autos", "colorings",
          "constructive", "oracles", "cli")
TRANSFORM_TAGS = ("base", "line", "subdivision", "central", "middle", "endline")
ORACLE_KINDS = ("D", "Dp", "Dpp", "chi2", "chi2D", "chi2a", "chitd")
CONSTRUCTION_TAGS = {"dist_edge_coloring_central": "3.2", "dist_vertex_coloring_middle": "3.6"}
_ENUMERATORS = ("connected_graphs", "all_graphs", "all_trees", "regular_graphs")
_VERIFIERS = ("is_proper", "is_avd_total", "is_tdc", "is_distinguishing")
_ORACLES = ("exact_parameter", "lower_bound_certificate", "upper_bound_witness")
_TRANSFORMS = ("subdivision", "central", "middle", "endline", "line_graph")
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, info]; parents precede children.
        self.spans: list[list] = []
        self.preserves_calls = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._transform_of: dict[int, tuple[object, str]] = {}
        self._groups_seen: set = set()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if info is not None:
                    span[4] = info(args, kwargs, result)

        return wrapped

    def _patch(self, attr: str, original, replacement) -> None:
        """Rebind ``attr`` in every symcol module that holds ``original``."""
        for name, mod in list(sys.modules.items()):
            if (name == "symcol" or name.startswith("symcol.")) and \
                    getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, replacement)

    def _tag_transform(self, name: str):
        def info(args, kwargs, result):
            if result is not None:
                g = result[0] if isinstance(result, tuple) else result.graph
                self._transform_of[id(g)] = (g, name)
        return info

    def _group_info(self, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        known = self._transform_of.get(id(g))
        tag = known[1] if known is not None and known[0] is g else "base"
        repeat = g in self._groups_seen
        self._groups_seen.add(g)
        return (tag, 0 if result is None else result.order, repeat)

    @staticmethod
    def _oracle_info(args, kwargs, result):
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        return (kind, getattr(result, "nodes", 0))

    def install(self) -> None:
        from symcol import (autos, cli, colorings, constructive, families, graphs,
                            oracles, transforms)

        plan = [
            # (span name, home module, function, info recorded with the span)
            ("graphs.graph6", graphs, "parse_graph6", None),
            ("graphs.graph6", graphs, "encode_graph6", None),
            *[(f"transforms.{t}", transforms, t,
               self._tag_transform("line" if t == "line_graph" else t)) for t in _TRANSFORMS],
            ("transforms.middle_to_line_of_endline", transforms, "middle_to_line_of_endline", None),
            *[(f"families.{f}", families, f, None) for f in _ENUMERATORS],
            # Deduplication is the caller of find_isomorphism in every workload.
            ("autos.find_isomorphism", autos, "find_isomorphism",
             lambda args, kwargs, res: res is not None),
            ("autos.automorphisms", autos, "automorphisms", self._group_info),
            ("autos.check_aut_chain", autos, "check_aut_chain", None),
            *[(f"colorings.{v}", colorings, v, None) for v in _VERIFIERS],
            *[(f"constructive.{fn}", constructive, fn, None) for fn in CONSTRUCTION_TAGS],
            *[(f"oracles.{fn}", oracles, fn, self._oracle_info) for fn in _ORACLES],
            ("cli.main", cli, "main", None),
            ("cli.run_check", cli, "run_check", None),
        ]
        for name, home, attr, info in plan:
            original = getattr(home, attr)
            self._patch(attr, original, self._wrap(name, original, info))
        preserves = colorings.preserves

        @functools.wraps(preserves)
        def counted(*args, **kwargs):
            self.preserves_calls += 1
            return preserves(*args, **kwargs)

        self._patch("preserves", preserves, counted)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- reduction -----------------------------------------------------------

    def metrics(self, sweep_records: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        ``sweep_records`` is the number of records the traced sweeps
        reported, cached or not; the cache hit ratio is the share of them
        that ``run_check`` did not compute.  A ratio whose base is empty on
        the workload reads 0.
        """
        spans = self.spans
        count = len(spans)
        names = [s[0] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        parent = [s[3] for s in spans]
        child_time = [0.0] * count
        for i in range(count):
            if parent[i] >= 0:
                child_time[parent[i]] += dur[i]

        def flags(pred) -> tuple[list[bool], list[bool]]:
            """Per span: whether it matches, and whether an ancestor matches."""
            hit = [pred(nm) for nm in names]
            inside = [False] * count
            for i in range(count):
                p = parent[i]
                inside[i] = p >= 0 and (hit[p] or inside[p])
            return hit, inside

        def outer_time(pred, where=None) -> float:
            hit, inside = flags(pred)
            return sum(dur[i] for i in range(count)
                       if hit[i] and not inside[i] and (where is None or where(i)))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(dur[i] - child_time[i] for i in range(count)
                                         if names[i].startswith(layer + "."))

        g6 = [i for i in range(count) if names[i] == "graphs.graph6"]
        out["graphs.graph6_calls"] = len(g6)
        out["graphs.graph6_s"] = sum(dur[i] for i in g6)

        out["transforms.calls"] = sum(nm.startswith("transforms.") for nm in names)
        out["transforms.s"] = outer_time(lambda nm: nm.startswith("transforms."))

        out["families.enum_s"] = outer_time(
            lambda nm: nm.startswith("families.") and nm[9:] in _ENUMERATORS)
        iso = [i for i in range(count) if names[i] == "autos.find_isomorphism"]
        out["families.iso_calls"] = len(iso)
        out["families.iso_match_ratio"] = ratio(sum(bool(spans[i][4]) for i in iso), len(iso))

        aut = [i for i in range(count) if names[i] == "autos.automorphisms"]
        out["autos.aut_calls"] = len(aut)
        out["autos.aut_s"] = sum(dur[i] for i in aut)
        for tag in TRANSFORM_TAGS:
            out[f"autos.aut_s.{tag}"] = sum(dur[i] for i in aut if spans[i][4][0] == tag)
        out["autos.aut_elements"] = sum(spans[i][4][1] for i in aut)
        out["autos.aut_repeat_ratio"] = ratio(sum(spans[i][4][2] for i in aut), len(aut))
        out["autos.chain_s"] = outer_time(lambda nm: nm == "autos.check_aut_chain")

        is_verify = lambda nm: nm.startswith("colorings.")  # noqa: E731
        out["colorings.verify_calls"] = sum(map(is_verify, names))
        out["colorings.verify_s"] = outer_time(is_verify)
        out["colorings.preserves_calls"] = self.preserves_calls

        # The construction tag enclosing each span, if any.
        tag_of: list[str | None] = [None] * count
        for i in range(count):
            tag_of[i] = _construction_tag(names[i]) or (tag_of[parent[i]] if parent[i] >= 0 else None)
        is_oracle = lambda nm: nm.startswith("oracles.")  # noqa: E731
        for tag in CONSTRUCTION_TAGS.values():
            total = outer_time(lambda nm: _construction_tag(nm) == tag)
            out[f"constructive.s.{tag}"] = total
            out[f"constructive.verify_share.{tag}"] = ratio(
                outer_time(is_verify, lambda i: tag_of[i] == tag), total)
            out[f"constructive.oracle_share.{tag}"] = ratio(
                outer_time(is_oracle, lambda i: tag_of[i] == tag), total)

        ora = [i for i in range(count) if is_oracle(names[i])]
        exact = [i for i in ora if names[i] == "oracles.exact_parameter"]
        out["oracles.calls"] = len(ora)
        out["oracles.s"] = outer_time(is_oracle)
        out["oracles.nodes"] = sum(spans[i][4][1] for i in exact)
        for kind in ORACLE_KINDS:
            of_kind = [i for i in exact if spans[i][4][0] == kind]
            out[f"oracles.nodes_per_s.{kind}"] = ratio(
                sum(spans[i][4][1] for i in of_kind), sum(dur[i] for i in of_kind))
        _, in_oracle = flags(is_oracle)
        out["oracles.aut_s"] = sum(dur[i] for i in aut if in_oracle[i])

        checks = sorted(dur[i] for i in range(count) if names[i] == "cli.run_check")
        out["cli.run_check_calls"] = len(checks)
        out["cli.run_check_s"] = sum(checks)
        out["cli.record_p50_ms"] = 1e3 * statistics.median(checks) if checks else 0.0
        out["cli.record_tail_ms"] = 1e3 * _tail(checks) if checks else 0.0
        out["cli.cache_hit_ratio"] = ratio(sweep_records - len(checks), sweep_records)
        out["cli.sweep_overhead_s"] = outer_time(lambda nm: nm == "cli.main") - sum(checks)
        return out


def _construction_tag(name: str) -> str | None:
    return CONSTRUCTION_TAGS.get(name[13:]) if name.startswith("constructive.") else None


def _tail(sorted_values: list[float]) -> float:
    """The highest of `_TAIL_PERCENTILES` with at least ten samples beyond
    it (nearest rank), or the median for short lists: p99 for 1984 sweep
    records, p95 for 992."""
    n = len(sorted_values)
    p = next((p for p in _TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0)
    return sorted_values[max(0, math.ceil(p / 100 * n) - 1)]
