"""Per-layer counts and self times for one job, gathered from outside easyqg.

``install()`` replaces the public functions of each layer by wrappers:
in every loaded ``easyqg`` module, each attribute bound to a wrapped
function is rebound (so names imported with ``from ... import`` are
covered), and methods are replaced on their class.  Nothing under
``src/easyqg`` changes.

Each value is kept under its per-layer metric name, as ``BENCHMARK.json``
lists it; every name starts at 0 when its wrapper is made, so a job that
never reaches a layer still reports it.  The wrappers keep the cost in
proportion to how often a function runs: ``count`` only counts calls
(``FusionRing.decompose`` runs hundreds of thousands of times), ``timed``
also keeps the self time, and with a ``span`` name it also records a span
``(id, parent, name, start, end)``.  A self time is the call's duration
minus the time covered by the timed calls made inside it.  All spans of one
job share the process id as their trace id.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


class Recorder:
    def __init__(self):
        self.values: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.spans: list[tuple] = []
        # one frame per open timed call: [time covered by children, span id]
        self.stack: list[list] = [[0.0, None]]
        self.next_id = 0

    def _names(self, *names):
        for name in names:
            if name is not None:
                self.values[name] = 0

    def _distinct(self, distinct):
        if distinct is None:
            return None
        name, key = distinct
        seen = self.distinct[name] = set()
        return seen, key

    def count(self, fn, calls, distinct=None):
        """Count the calls, and with ``distinct=(name, key)`` the distinct keys of the arguments."""
        self._names(calls)
        values, seen = self.values, self._distinct(distinct)

        def wrapper(*args, **kwargs):
            values[calls] += 1
            if seen is not None:
                seen[0].add(seen[1](*args))
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, fn, self_s=None, calls=None, total_s=None, span=None, distinct=None,
              before=None, after=None):
        """Also time the call; ``before``/``after`` are ``(name, measure)`` of the arguments/result."""
        self._names(self_s, calls, total_s, before and before[0], after and after[0])
        rec, values, seen = self, self.values, self._distinct(distinct)

        def wrapper(*args, **kwargs):
            if calls is not None:
                values[calls] += 1
            if seen is not None:
                seen[0].add(seen[1](*args))
            if before is not None:
                values[before[0]] += before[1](*args)
            parent = rec.stack[-1]
            span_id = parent[1]
            if span is not None:
                span_id = rec.next_id
                rec.next_id += 1
            frame = [0.0, span_id]
            rec.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.stack.pop()
                parent[0] += end - start
                if self_s is not None:
                    values[self_s] += end - start - frame[0]
                if total_s is not None:
                    values[total_s] += end - start
                if span is not None:
                    rec.spans.append((span_id, parent[1], span, start, end))
            if after is not None:
                values[after[0]] += after[1](result)
            return result

        return wrapper

    def generator(self, fn, items, self_s):
        """Time each resumption of a generator and count the items it yields."""
        self._names(items, self_s)
        rec, values = self, self.values

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                parent = rec.stack[-1]
                frame = [0.0, parent[1]]
                rec.stack.append(frame)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    rec.stack.pop()
                    parent[0] += end - start
                    values[self_s] += end - start - frame[0]
                values[items] += 1
                yield item

        return wrapper

    def dump(self, import_s: float) -> str:
        metrics = dict(self.values, **{name: len(seen) for name, seen in self.distinct.items()})
        metrics["cli.import_s"] = import_s
        return json.dumps({"trace_id": os.getpid(), "metrics": metrics, "spans": self.spans})


def _replace(old, new) -> None:
    """Rebind every name in the loaded easyqg modules that refers to ``old``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "easyqg" or mod_name.startswith("easyqg."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install() -> Recorder:
    from easyqg import categories, cli, conditions, fusion, ktheory, partitions, tmaps

    rec = Recorder()
    functions = [
        (partitions.compose, rec.timed(partitions.compose, "partitions.compose_s",
                                       calls="partitions.compose_calls")),
        (partitions.tensor, rec.count(partitions.tensor, "partitions.tensor_calls")),
        (partitions.is_noncrossing, rec.count(partitions.is_noncrossing, "partitions.noncrossing_calls")),
        (categories.k_param, rec.timed(categories.k_param, "categories.k_param_s",
                                       calls="categories.k_param_calls", span="categories.k_param")),
        (categories.generate_category, rec.timed(
            categories.generate_category, "categories.closure_s", span="categories.closure",
            after=("categories.closure_members", lambda sample: len(sample.members)))),
        (tmaps.t_map, rec.timed(
            tmaps.t_map, "tmaps.t_map_s", calls="tmaps.t_map_calls",
            distinct=("tmaps.t_map_distinct", lambda p, n, *_: (p, n)),
            after=("tmaps.t_map_nnz", lambda m: len(m.entries)))),
        (tmaps.projective_projection, rec.timed(
            tmaps.projective_projection, "tmaps.projection_s", span="tmaps.projection")),
        (conditions.check_c1, rec.timed(conditions.check_c1, "conditions.check_c1_s",
                                        span="conditions.check_c1")),
        (conditions.check_c2, rec.timed(conditions.check_c2, "conditions.check_c2_s",
                                        span="conditions.check_c2")),
        (conditions.classify_cp, rec.timed(conditions.classify_cp, "conditions.classify_cp_s",
                                           span="conditions.classify_cp")),
        (conditions.cp2_witness, rec.timed(conditions.cp2_witness, "conditions.cp2_witness_s",
                                           span="conditions.cp2_witness")),
        (ktheory.k_groups, rec.timed(ktheory.k_groups, "ktheory.k_groups_self_s",
                                     total_s="ktheory.k_groups_s", span="ktheory.k_groups")),
        (ktheory.build_levels, rec.timed(
            ktheory.build_levels, "ktheory.build_levels_s", calls="ktheory.build_levels_calls",
            span="ktheory.build_levels",
            after=("ktheory.basis_labels", lambda mods: sum(len(m.basis) for m in mods)))),
        (ktheory.invariant_factors, rec.timed(
            ktheory.invariant_factors, "ktheory.invariant_factors_s",
            calls="ktheory.invariant_factors_calls", span="ktheory.invariant_factors",
            before=("ktheory.elim_nnz", lambda entries: sum(1 for v in entries.values() if v)))),
        (ktheory.smith_normal_form, rec.timed(
            ktheory.smith_normal_form, calls="ktheory.dense_snf_calls", span="ktheory.dense_snf",
            before=("ktheory.dense_snf_cells", lambda m: m.rows * m.cols))),
        (ktheory.check_diagram_commutes, rec.timed(
            ktheory.check_diagram_commutes, "ktheory.diagram_check_s", span="ktheory.diagram_check")),
        (cli.main, rec.timed(cli.main, "cli.main_s", span="cli.main")),
    ]
    for old, new in functions:
        _replace(old, new)

    sample_cls = categories.PartitionCategorySample
    sample_cls.iter_members = rec.generator(sample_cls.iter_members, "categories.members_yielded",
                                            "categories.iter_s")
    sample_cls.member_count = rec.timed(sample_cls.member_count, "categories.member_count_s",
                                        span="categories.member_count")
    matrix = tmaps.ExactMatrix
    matrix.__matmul__ = rec.timed(matrix.__matmul__, "tmaps.matmul_s")
    matrix.kron = rec.timed(matrix.kron, "tmaps.kron_s")
    tmaps.IntRowReducer.add = rec.timed(tmaps.IntRowReducer.add, "tmaps.rank_s", calls="tmaps.rank_vectors")
    ring = fusion.FusionRing
    ring.decompose = rec.count(ring.decompose, "fusion.decompose_calls",
                               distinct=("fusion.decompose_distinct", lambda r, a, b: (id(r), a, b)))
    ring.multiply = rec.timed(ring.multiply, "fusion.multiply_s", calls="fusion.multiply_calls")
    ring.vector_power = rec.timed(ring.vector_power, "fusion.vector_power_s",
                                  calls="fusion.vector_power_calls")
    ring.degree = rec.timed(ring.degree, "fusion.degree_s", calls="fusion.degree_calls")
    return rec
