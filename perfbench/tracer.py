"""Outside-in tracing of hsgt: spans around each module's public functions.

Wrappers are installed from the benchmark's own files.  ``from .x import y``
binds ``y`` separately in every importing module, so a function is replaced
under every name that refers to it in any ``hsgt`` module, which patches it
where it is used.  Calls that are too frequent for spans (compiled
expression closures, ``KFun.__call__``, guard and flow evaluations) only
bump counters.

Spans live in memory as (name, start, end, parent, run id) and are written
out when the run ends.  A span's self time is its duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter

# Spanned functions: (module, attribute, span name).
SPANNED = [
    ("hsgt.cli", "main", "cli"),
    ("hsgt.config", "build_config", "config.build"),
    ("hsgt.expr", "directional_bounds", "expr.directional_bounds"),
    ("hsgt.kfun", "invert", "kfun.invert"),
    ("hsgt.kfun", "classify_callable", "kfun.classify"),
    ("hsgt.gains", "small_gain_check", "gains.small_gain_check"),
    ("hsgt.gains", "build_omega_path", "gains.build_omega_path"),
    ("hsgt.lyapunov", "build_composite", "lyapunov.build_composite"),
    ("hsgt.equiv", "to_w_form", "equiv.to_w_form"),
    ("hsgt.equiv", "to_v_form", "equiv.to_v_form"),
    ("hsgt.hybrid", "write_trajectory_csv", "hybrid.write_csv"),
    ("hsgt.trajectories", "check_iss", "trajectories.check"),
    ("hsgt.trajectories", "check_pre_gs", "trajectories.check"),
    ("hsgt.trajectories", "check_ag", "trajectories.check"),
    ("hsgt.trajectories", "fit_empirical_gain", "trajectories.fit_empirical_gain"),
]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.runs: List[int] = []
        self.stack: List[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self.sim_depth = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(_now())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = _now()
        self.stack.pop()

    def spanned(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` records counts."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and self time."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.runs):
                fh.write("%s,%r,%r,%d,%d\n" % row)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every hsgt module attribute that is ``original``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hsgt" or name.startswith("hsgt.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Install every wrapper.  Call after importing hsgt, before configs are built."""
    import hsgt.expr as expr
    import hsgt.gains as gains
    import hsgt.hybrid as hybrid
    import hsgt.kfun as kfun
    import hsgt.sampling as sampling
    import hsgt.trajectories as trajectories
    counts = tracer.counts

    for mod_name, attr, span in SPANNED:
        original = getattr(sys.modules[mod_name], attr)
        _replace_everywhere(original, tracer.spanned(span, original))

    # expr: count the closures compile_expr returns and top-level evaluate calls.
    compile_expr = expr.compile_expr

    def traced_compile(e, var_order):
        return tracer.counted("expr.compiled_evals", compile_expr(e, var_order))
    _replace_everywhere(compile_expr, traced_compile)

    evaluate = expr.evaluate
    depth = [0]

    def traced_evaluate(e, env):
        if depth[0] == 0:
            counts["expr.evaluate.calls"] += 1
        depth[0] += 1
        try:
            return evaluate(e, env)
        finally:
            depth[0] -= 1
    _replace_everywhere(evaluate, traced_evaluate)

    # kfun: every KFun evaluation.
    kfun_call = kfun.KFun.__call__

    def traced_kfun_call(self, s):
        counts["kfun.calls"] += 1
        return kfun_call(self, s)
    kfun.KFun.__call__ = traced_kfun_call

    # gains: operator applications and the cycles each enumeration returns.
    _replace_everywhere(gains.gamma_max_apply,
                        tracer.counted("gains.gamma_max_apply.calls", gains.gamma_max_apply))

    def after_cycles(result, args, kwargs):
        counts["gains.cycles_examined"] += len(result)
    _replace_everywhere(gains.simple_gain_cycles,
                        tracer.spanned("gains.simple_gain_cycles", gains.simple_gain_cycles,
                                       after_cycles))

    # sampling: requested and returned points, and every guard evaluation.
    sample_set = sampling.sample_set

    def traced_sample_set(net, guard, spec):
        counts["sampling.points_requested"] += spec.n_samples
        result = sample_set(net, tracer.counted("sampling.guard_evals", guard), spec)
        counts["sampling.points"] += len(result)
        counts["sampling.shortfall"] += max(spec.n_samples - len(result), 0)
        return result
    _replace_everywhere(sample_set, tracer.spanned("sampling.sample_set", traced_sample_set))

    # lyapunov: samples tested and premise hits of the three verifiers.
    def after_verify(report, args, kwargs):
        counts["lyapunov.samples_tested"] += report.samples_tested
        counts["lyapunov.samples_checked"] += report.samples_checked
    for attr in ("verify_subsystem", "verify_composite_flow", "verify_composite_jump"):
        original = getattr(sys.modules["hsgt.lyapunov"], attr)
        _replace_everywhere(original, tracer.spanned(f"lyapunov.{attr}", original, after_verify))

    # hybrid: simulate with its jumps, recorded samples, guard and flow calls.
    simulate = hybrid.simulate

    def traced_simulate(net, *args, **kwargs):
        saved = net._flow_fns
        net._flow_fns = [tracer.counted("hybrid.flow_evals", f) for f in saved]
        tracer.sim_depth += 1
        try:
            sol = simulate(net, *args, **kwargs)
        finally:
            tracer.sim_depth -= 1
            net._flow_fns = saved
        counts["hybrid.jumps"] += sol.jumps_applied
        counts["hybrid.samples_recorded"] += sum(len(t) for t in sol.x.times)
        counts["hybrid.sim_time"] += max(iv[1] for iv in sol.domain.intervals)
        return sol
    _replace_everywhere(simulate, tracer.spanned("hybrid.simulate", traced_simulate))

    for attr in ("c_raw", "d_raw"):
        method = getattr(hybrid.NetworkSpec, attr)

        def guard(self, vals, sub=None, _method=method):
            if tracer.sim_depth:
                counts["hybrid.guard_evals"] += 1
            return _method(self, vals, sub)
        setattr(hybrid.NetworkSpec, attr, guard)

    # trajectories: results of the estimate batch and the zero-input table.
    def after_batch(batch, args, kwargs):
        counts["trajectories.results"] += len(batch.results)
    for attr, span in (("run_estimate_batch", "trajectories.run_estimate_batch"),
                       ("check_zero_input_prestability", "trajectories.zero_input")):
        original = getattr(trajectories, attr)
        _replace_everywhere(original, tracer.spanned(span, original, after_batch))
