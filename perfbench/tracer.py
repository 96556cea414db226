"""Per-layer tracing of icctab from outside the package.

A :class:`Tracer` replaces public functions of ``icctab`` modules by
wrappers.  Because modules import each other's functions by name
(``from .anova import anova``), a wrapper is installed in every loaded
module, the benchmark's own included, that holds a reference to the
original function.

Two kinds of wrapper exist:

* span wrappers record ``(id, name, start, end, parent, run)`` for every
  call; a function's self time is its span duration minus the time covered
  by the spans of the wrapped functions it called;
* count wrappers only count calls.  They are used for functions called so
  often, or so deep in a kernel, that a span would distort the timing; their
  time stays with the calling span.

A name that does not exist (for instance after a refactor removed it) is
skipped and reported as 0 calls.  Spans stay in memory and are written out
by :meth:`Tracer.write_spans` when the run ends.
"""

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "icctab"

# module -> public functions timed with spans
SPANNED = {
    "cli": ("main",),
    "table": ("load_csv", "save_csv", "zscore", "mix_rows", "virtualize"),
    "anova": ("anova", "icc_report"),
    "special": ("f_quantile",),
    "impute": ("ari_impute", "crari_impute"),
    "ecvt": ("ecvt",),
    "fit": ("fit_predictors", "r2_icc_curve"),
    "synth": ("generate", "degrade_random"),
}

# module -> functions (or classes, counted per construction) only counted
COUNTED = {
    "table": ("DataTable",),
    "special": ("reg_inc_beta", "chi2_upper_tail"),
    "impute": ("adjust_fills",),
    "ecvt": ("disjoint_groups",),
}


class Tracer:
    """Installs wrappers, records spans and counts, and derives metrics."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None, run id)
        self.calls = Counter()
        self.errors = Counter()
        self.file_bytes = Counter()  # bytes of the ``path`` argument, per name
        self.group_pairs = 0  # ECVT resamples x group sizes
        self.run_id = 0
        self._stack = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, names in SPANNED.items():
            for name in names:
                self._patch(module, name, self._span_wrapper)
        for module, names in COUNTED.items():
            for name in names:
                self._patch(module, name, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, module: str, name: str, make_wrapper) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        original = getattr(mod, name, None)
        if original is None:
            return
        label = f"{module}.{name}"
        if isinstance(original, type):
            init = original.__init__
            self._patches.append((original, "__init__", init))
            original.__init__ = make_wrapper(label, init)
            return
        wrapper = make_wrapper(label, original)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    self._patches.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)

    def _count_wrapper(self, label, fn):
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[label] += 1
                raise

        return wrapper

    def _span_wrapper(self, label, fn):
        signature = inspect.signature(fn)
        has_path = "path" in signature.parameters
        is_ecvt = label == "ecvt.ecvt"
        stack, spans, calls, errors = self._stack, self.spans, self.calls, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            calls[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[label] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, label, start, end, parent, self.run_id))
            if has_path or is_ecvt:
                self._account(label, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _account(self, label, bound, result) -> None:
        """File bytes of ``path`` arguments and ECVT group pairs; a renamed
        argument or field makes the figure 0, never an error."""
        bound.apply_defaults()
        path = bound.arguments.get("path")
        if path is not None and os.path.exists(path):
            self.file_bytes[label] += os.path.getsize(path)
        if label == "ecvt.ecvt":
            resamples = bound.arguments.get("resamples", 0)
            self.group_pairs += resamples * len(getattr(result, "group_sizes", ()))

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Summed self time and summed inclusive time per span name."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        own = defaultdict(float)
        total = defaultdict(float)
        for span_id, label, start, end, _, _ in self.spans:
            own[label] += end - start - covered[span_id]
            total[label] += end - start
        return own, total

    def calls_within(self, label: str, ancestor: str) -> int:
        """Number of ``label`` spans that have an ``ancestor`` span above them."""
        by_id = {span[0]: (span[1], span[4]) for span in self.spans}
        found = 0
        for span_id, (name, parent) in by_id.items():
            if name != label:
                continue
            while parent is not None:
                name, parent = by_id[parent]
                if name == ancestor:
                    found += 1
                    break
        return found

    def layer_metrics(self) -> dict:
        """The per-layer metrics, keyed ``<module>.<function>.<stat>``."""
        own, total = self.self_times()

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        crari_calls = self.calls["impute.crari_impute"]
        metrics = {
            "cli.main.s": own["cli.main"],
            "table.load_csv.s": own["table.load_csv"],
            "table.load_csv.mb_per_s": rate(
                self.file_bytes["table.load_csv"] / 1e6, total["table.load_csv"]),
            "table.save_csv.s": own["table.save_csv"],
            "table.save_csv.mb_per_s": rate(
                self.file_bytes["table.save_csv"] / 1e6, total["table.save_csv"]),
            "table.mix_rows.s": own["table.mix_rows"],
            "table.virtualize.s": own["table.virtualize"],
            "table.zscore.s": own["table.zscore"],
            "table.DataTable.calls": self.calls["table.DataTable"],
            "anova.anova.calls": self.calls["anova.anova"],
            "anova.anova.s": own["anova.anova"],
            "anova.icc_report.s": own["anova.icc_report"],
            "special.f_quantile.s": own["special.f_quantile"],
            "special.reg_inc_beta.calls": self.calls["special.reg_inc_beta"],
            "special.chi2_upper_tail.calls": self.calls["special.chi2_upper_tail"],
            "impute.crari_impute.s": own["impute.crari_impute"],
            "impute.crari_impute.calls": crari_calls,
            "impute.ari_impute.s": own["impute.ari_impute"],
            "impute.adjust_fills.calls": self.calls["impute.adjust_fills"],
            "impute.anova_per_crari": rate(
                self.calls_within("anova.anova", "impute.crari_impute"), crari_calls),
            "ecvt.ecvt.s": own["ecvt.ecvt"],
            "ecvt.ecvt.calls": self.calls["ecvt.ecvt"],
            "ecvt.disjoint_groups.calls": self.calls["ecvt.disjoint_groups"],
            "ecvt.resamples_per_s": rate(self.group_pairs, total["ecvt.ecvt"]),
            "fit.fit_predictors.s": own["fit.fit_predictors"],
            "fit.r2_icc_curve.s": own["fit.r2_icc_curve"],
            "synth.generate.s": own["synth.generate"],
            "synth.degrade_random.s": own["synth.degrade_random"],
            "synth.degrade_random.calls": self.calls["synth.degrade_random"],
        }
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent", "run"],
                "spans": self.spans,
                "calls": dict(self.calls),
                "errors": dict(self.errors),
            }, handle)
