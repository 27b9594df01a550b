"""Span recording at mtlstab's module boundaries, from outside the program.

`Tracer.install` replaces every public function of each traced module, in
every mtlstab namespace that binds it, with a wrapper that records a span
(name, start, end, parent span, job id).  Spans stay in memory and are
written once, at the end of the run.  References captured in data at import
time (the claim registry's `applies` predicates and induced-algebra
builders, classify's cross-check table) still call the unwrapped functions,
so their time counts as the caller's self time.

Spans opened inside pool workers are lost with the worker; the parent side
records the `pmap` call that started them.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter

# mtlstab module -> layer name used in span and metric names
LAYERS = {"claims": "claims", "_pool": "pool", "search": "search",
          "induced": "induced", "order": "order", "stabilizers": "stabilizers",
          "core": "core", "algfile": "algfile", "fixtures": "fixtures",
          "classify": "classify", "report": "report", "cli": "cli"}

# A precondition check called on every Subset construction; a span there
# would cost more than the work it measures.
UNTRACED = {"core.require_validated"}

ANTITONE = ("P3.4.2", "P4.3.2")
INTERSECTION = ("P3.4.1", "P4.3.1")
OPEN_SCANS = ("open1_scan", "open2_scan", "open2_premise", "open3_scan")

# Metrics of the worker pool, which starts processes only on verify-large-j2.
POOL_PREFIX = "pool."

JOB_SPAN = "bench.job"
SETUP_JOB = "setup"

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = None
        self.tables = 0               # labelled tables enumerate_all searched
        self.kept = 0                 # algebras enumerate_all returned
        self.scope_by_job: dict[str, int] = {}
        self.pool_calls: list[tuple[int, float]] = []  # (workers, wall)

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextmanager
    def job(self, job_id: str):
        """A root span around one job; every span inside shares its id."""
        self._job = job_id
        index = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._job = None

    def as_job(self, job_id: str, fn):
        def run():
            with self.job(job_id):
                return fn()
        return run

    def wrap(self, name: str, fn):
        if name == "claims.verify_claim":
            return self._wrap_verify_claim(fn)
        if name == "pool.pmap":
            return self._wrap_pmap(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "claims.verify_all":
                self.scope_by_job[self._job] = (self.scope_by_job.get(self._job, 0)
                                                + sum(o.scope for o in result))
            elif name == "search.enumerate_all":
                self.kept += len(result)
            return result

        return traced

    def _wrap_verify_claim(self, fn):
        @wraps(fn)
        def traced(A, claim_id):
            index = self._open(f"claims.verify_claim[{claim_id}]")
            try:
                return fn(A, claim_id)
            finally:
                self._close(index)

        return traced

    def _wrap_pmap(self, fn):
        """Only a pmap that starts workers is a pool span.  An inline pmap is
        a plain loop: its tasks count as the caller's time."""
        @wraps(fn)
        def traced(task, items, jobs=1):
            items = list(items)
            workers = min(jobs, len(items)) if jobs > 1 and len(items) > 1 else 0
            caller = self._parent_name()
            if workers:
                index = self._open("pool.pmap")
                start = perf_counter()
                try:
                    result = fn(task, items, jobs)
                finally:
                    self._close(index)
                self.pool_calls.append((workers, perf_counter() - start))
            else:
                result = fn(task, items, jobs)
            if caller == "search.enumerate_all":
                self.tables += sum(len(chunk) for chunk in result)
            return result

        return traced

    def install(self, mods) -> int:
        """Wrap the public functions of every traced module, in every mtlstab
        namespace that binds them.  Returns the number of functions wrapped."""
        wrapped = {}
        for module_name, layer in LAYERS.items():
            module = getattr(mods, module_name.lstrip("_"))
            for name, obj in vars(module).items():
                span = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)
                        or f"{module_name.lstrip('_')}.{name}" in UNTRACED):
                    continue
                wrapped[id(obj)] = self.wrap(span, obj)
        for namespace in vars(mods).values():
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(namespace, name, wrapped[id(obj)])
        return len(wrapped)

    def write(self, path: Path, context: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"context": context,
                       "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, out, separators=(",", ":"))

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def layer_metrics(self, passes: int, child_cpu_s: float,
                      busy_s: float) -> dict[str, float]:
        """Per-layer metrics, per measured pass; set-up spans are left out
        except where a metric says otherwise."""
        own = self.self_times()
        measured = [i for i, span in enumerate(self.spans)
                    if span[JOB] != SETUP_JOB]

        def total(select, inclusive=False) -> float:
            value = 0.0
            for i in measured:
                span = self.spans[i]
                if select(span[NAME]):
                    value += span[END] - span[START] if inclusive else own[i]
            return value / passes

        def calls(select) -> float:
            return sum(1 for i in measured if select(self.spans[i][NAME])) / passes

        def named(*names):
            return lambda name: name in names

        def layer(prefix):
            return lambda name: name.startswith(prefix + ".")

        def claim(ids):
            return named(*(f"claims.verify_claim[{c}]" for c in ids))

        claims_total = total(layer("claims"))
        antitone = total(claim(ANTITONE))
        intersection = total(claim(INTERSECTION))
        pool_capacity = sum(workers * wall for workers, wall in self.pool_calls)
        setup_search = sum((own[i] for i, span in enumerate(self.spans)
                            if span[JOB] == SETUP_JOB
                            and span[NAME].startswith("search.")), 0.0)
        metrics = {
            "claims.antitone_s": antitone,
            "claims.intersection_s": intersection,
            "claims.other_s": claims_total - antitone - intersection,
            "claims.verify_claim_calls": calls(lambda n: n.startswith("claims.verify_claim[")),
            "claims.scope_total": sum(scope for job, scope in self.scope_by_job.items()
                                      if job != SETUP_JOB) / passes,
            "claims.divergences_s": total(named("claims.documented_divergences"), True),
            "pool.pmap_s": total(named("pool.pmap"), True),
            "pool.child_cpu_s": child_cpu_s / passes,
            "pool.efficiency": child_cpu_s / pool_capacity if pool_capacity else 0.0,
            "search.canonical_form_s": total(named("search.canonical_form")),
            "search.canonical_form_calls": calls(named("search.canonical_form")),
            "search.enumerate_all.self_s": total(named("search.enumerate_all")),
            "search.enumerate_chains.self_s": total(named("search.enumerate_chains")),
            "search.dedup_kept_ratio": self.kept / self.tables if self.tables else 0.0,
            "search.open_scan.self_s": total(named(*(f"search.{s}" for s in OPEN_SCANS))),
            "search.gen_family.self_s": total(named("search.gen_family")),
            "search.setup_s": setup_search,
            "induced.check_mtl_iso_s": total(named("induced.check_mtl_iso")),
            "induced.check_mtl_iso_calls": calls(named("induced.check_mtl_iso")),
            "induced.mult_algebra_s": total(named("induced.left_mult_algebra",
                                                  "induced.right_mult_algebra")),
            "order.all_filters_s": total(named("order.all_filters")),
            "order.generated_filter_s": total(named("order.generated_filter")),
            "order.generated_filter_calls": calls(named("order.generated_filter")),
            "stabilizers.op_s": total(layer("stabilizers")),
            "stabilizers.op_calls": calls(layer("stabilizers")),
            "core.validate_s": total(named("core.validate")),
            "core.validate_calls": calls(named("core.validate")),
            "core.construct_s": total(named("core.construct")),
            "algfile.parse_s": total(named("algfile.parse_algebra_file",
                                           "algfile.parse_corpus")),
            "algfile.serialize_s": total(named("algfile.serialize_algebra",
                                               "algfile.serialize_corpus")),
            "fixtures.load_calls": calls(named("fixtures.load_fixture")),
            "classify.classify_s": total(named("classify.classify")),
            "classify.predicate_s": total(lambda n: n.startswith("classify.")
                                          and n != "classify.classify"),
            "report.emit_s": total(named("report.emit_report")),
        }
        for layer_name in sorted(set(LAYERS.values())):
            metrics[f"{layer_name}.self_s"] = total(layer(layer_name))
        metrics["bench.self_s"] = total(named(JOB_SPAN))
        program = sum(metrics[f"{name}.self_s"] for name in set(LAYERS.values()))
        metrics["trace.busy_s"] = busy_s / passes
        metrics["trace.attributed_share"] = program * passes / busy_s
        metrics["trace.spans"] = len(measured) / passes
        return metrics

