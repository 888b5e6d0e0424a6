"""In-memory span tracing around calls into cproc's modules.

`Tracer.install()` swaps selected public functions, at the module attribute
where their callers look them up, for wrappers that record a span (name,
start, end, parent, run id) and counters; leaving the context restores the
originals. Nothing inside cproc is edited. Wasserstein pair solves are only
counted and timed in aggregate, since there are tens of thousands per build.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import oracle


class _ModuleProxy:
    """Stands in for a module inside one namespace, overriding some names."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [run, id, parent, name, start, end]
        self.run: int | None = None
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._written: dict[int, set[str]] = defaultdict(set)
        self._diagrams: dict[int, list] = defaultdict(list)
        self._knn_reads: dict[int, list] = defaultdict(list)

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.run, sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][5] = time.perf_counter()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.run][name] += value

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def counted(self, name: str, fn):
        """Counter plus total time, no span: for very frequent calls."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            c = self.counts[self.run]
            c[f"{name}_s"] += time.perf_counter() - t0
            c[name] += 1
            return out

        return timed

    # -- per-operation bookkeeping --------------------------------------
    def finish_run(self) -> None:
        """Fold what was stashed during the current operation into counts."""
        run, c = self.run, self.counts[self.run]
        c["cli.output_bytes"] += sum(os.path.getsize(p) for p in self._written.pop(run, ()))
        diagrams = self._diagrams.pop(run, [])
        if diagrams:
            cap = oracle.diagram_cap(diagrams)
            points = [p for d in diagrams for p in oracle.capped_points(d.dim0, d.dim1, cap)]
            zero, total = oracle.zero_persistence(points)
            c["topology.diagram_points"] += total
            c["topology.zero_pers_points"] += zero
        reads = self._knn_reads.pop(run, [])
        if reads:
            mask = np.zeros(reads[0][0], dtype=bool)
            for _shape, q, p in reads:
                mask[np.ix_(q, p)] = True
                mask[np.ix_(p, q)] = True
            c["similarity.pairs_read"] += (int(np.count_nonzero(mask)) - int(np.count_nonzero(mask.diagonal()))) / 2

    def _note_written(self, path) -> None:
        self._written[self.run].add(os.fspath(path))

    def _note_knn(self, values: np.ndarray, query_ids, pool_ids) -> None:
        """Only counts and a copy of the ids here, inside the caller's span;
        the read mask is built in finish_run, outside every span."""
        q = np.array(query_ids, dtype=np.int64)
        p = np.array(pool_ids, dtype=np.int64)
        self.count("similarity.knn_calls")
        self.count("similarity.knn_cells_sorted", q.size * p.size)
        self._knn_reads[self.run].append((values.shape, q, p))

    # -- installation ----------------------------------------------------
    @contextmanager
    def install(self):
        import cproc.cli as cli
        import cproc.conformal as conformal
        import cproc.rocbands as rocbands
        import cproc.similarity as similarity
        import cproc.synthetic as synthetic

        def graphs(t, args, out):
            t.count("graphdata.graphs", len(out))
            t.count("graphdata.nodes", sum(g.num_nodes for g in out))
            t.count("graphdata.edges", sum(len(g.edges) for g in out))

        def filtration(fn):
            def traced(g, kind):
                with self.span(f"topology.filtration.{kind.value}"):
                    return fn(g, kind)

            return traced

        def written(pos):
            return lambda t, args, out: t._note_written(args[pos])

        def dumped(t, args, out):
            t._note_written(args[1].name)

        def cache_read(t, args, out):
            t.count("similarity.cache_hits")
            t.count("similarity.cache_bytes", os.path.getsize(args[0]))

        def cache_write(t, args, out):
            t.count("similarity.cache_bytes", os.path.getsize(args[1]))

        def knn_after(t, args, out):
            t._note_knn(args[0], args[1], args[2])

        def knn(fn):
            return self.wrap("similarity.knn", fn, knn_after)

        def bands(fn):
            return self.wrap("rocbands.cp_roc_bands", fn, lambda t, args, out: t.count(
                "rocbands.intervals", out.lo_pos.size + out.lo_neg.size))

        hooks = [
            (cli, "parse_tu_dataset", self.wrap("graphdata.parse", cli.parse_tu_dataset, graphs)),
            (cli, "load_scores", self.wrap("graphdata.load_scores", cli.load_scores)),
            (cli, "split_dataset", self.wrap("graphdata.split", cli.split_dataset)),
            (cli, "compute_filtration", filtration(cli.compute_filtration)),
            (cli, "sublevel_persistence", self.wrap(
                "topology.persistence", cli.sublevel_persistence,
                lambda t, args, out: t._diagrams[t.run].append(out))),
            (cli, "build_similarity_matrix", self.wrap(
                "similarity.build", cli.build_similarity_matrix,
                lambda t, args, out: t.count("similarity.cache_misses"))),
            (cli, "load_matrix", self.wrap("similarity.cache_read", cli.load_matrix, cache_read)),
            (cli, "save_matrix", self.wrap("similarity.cache_write", cli.save_matrix, cache_write)),
            (similarity, "wasserstein_distance", self.counted("similarity.pairs_solved", similarity.wasserstein_distance)),
            (conformal, "knn_indices", knn(conformal.knn_indices)),
            (rocbands, "knn_indices", knn(rocbands.knn_indices)),
            (rocbands, "score_table", self.wrap(
                "conformal.score_table", rocbands.score_table,
                lambda t, args, out: t.count("conformal.calib_scores", len(out[0])))),
            (rocbands, "band_from_intervals", self.wrap("rocbands.band_assembly", rocbands.band_from_intervals)),
            (cli, "cp_roc_bands", bands(cli.cp_roc_bands)),
            (synthetic, "cp_roc_bands", bands(synthetic.cp_roc_bands)),
            (cli, "empirical_roc", self.wrap("rocbands.empirical_roc", cli.empirical_roc)),
            (cli, "default_lambda_grid", self.wrap("rocbands.lambda_grid", cli.default_lambda_grid)),
            (cli, "bootstrap_bands", self.wrap(
                "baseline.bootstrap", cli.bootstrap_bands,
                lambda t, args, out: t.count("baseline.resamples", out.B))),
            (synthetic, "generate", self.wrap("synthetic.generate", synthetic.generate)),
            (synthetic, "fit_logistic", self.wrap(
                "synthetic.fit", synthetic.fit_logistic,
                lambda t, args, out: t.count("synthetic.fit_iters", out.n_iter))),
            (synthetic, "covariate_distance_matrix", self.wrap(
                "synthetic.distance", synthetic.covariate_distance_matrix,
                lambda t, args, out: t.count("synthetic.distance_cells", out.n * out.n))),
            (cli, "write_band_csv", self.wrap("cli.output", cli.write_band_csv, written(0))),
            (cli, "write_split_manifest", self.wrap("cli.output", cli.write_split_manifest, written(1))),
            (cli, "export_matrix_csv", self.wrap("cli.output", cli.export_matrix_csv, written(1))),
            (cli, "band_svg", self.wrap("cli.output", cli.band_svg, written(1))),
            (cli, "json", _ModuleProxy(json, dump=self.wrap("cli.output", json.dump, dumped))),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in hooks]
        try:
            for mod, attr, replacement in hooks:
                setattr(mod, attr, replacement)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- reporting -------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        own = {s[1]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[5] - s[4]
        return own

    def dump(self, path) -> None:
        rows = [dict(zip(("run", "id", "parent", "name", "start", "end"), s)) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": {str(k): dict(v) for k, v in self.counts.items()}}, fh)
