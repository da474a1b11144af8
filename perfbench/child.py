"""One benchmark invocation in a fresh process.

Usage: ``python3 child.py RESULT_JSON TRACE SPANS_CSV -- CLI_ARGS...``

Imports ``kicked_ising``, optionally wraps its public functions where they
are looked up (so spans come from this file; nothing in the package
changes), calls ``kicked_ising.cli.main(CLI_ARGS)`` and writes its timings to
RESULT_JSON.  With TRACE = 1 every span (name, start, end, parent) is kept in
memory and written to SPANS_CSV after the call; with TRACE = 0 nothing is
wrapped.  ``python3 child.py RESULT_JSON probe`` only imports the package
and records the library versions.
"""

import json
import resource
import sys
import time

import kicked_ising.cli as cli  # the import is part of set-up

READY = time.monotonic()

import ctypes  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402

import numpy as np  # noqa: E402

SWEEP_SPAN = "harness.sweep_grid"

# (module, attribute looked up at call time, span name).  A function bound
# under several names is wrapped at each call site that the CLI reaches.
TARGETS = (
    ("kicked_ising.cli", "run_time_series", "harness.run_time_series"),
    ("kicked_ising.cli", "sweep_grid", "harness.sweep_grid"),
    ("kicked_ising.cli", "compare_numeric_analytic", "harness.compare_numeric_analytic"),
    ("kicked_ising.harness", "run_time_series", "harness.run_time_series"),
    ("kicked_ising.harness", "step", "statevec.step"),
    ("kicked_ising.harness", "report", "measures.report"),
    ("kicked_ising.statevec", "apply_field_kick", "statevec.field_kick"),
    ("kicked_ising.statevec", "apply_ising_kick", "statevec.ising_kick"),
    ("kicked_ising.statevec", "fwht_inplace", "statevec.fwht"),
    ("kicked_ising.measures", "one_tangle", "measures.one_tangle"),
    ("kicked_ising.measures", "rdm_pair", "measures.rdm_pair"),
    ("kicked_ising.measures", "concurrence", "measures.concurrence"),
    ("kicked_ising.measures", "n_tangle", "measures.n_tangle"),
    ("kicked_ising.measures", "eigh_small", "jacobi.eigh_small"),
    ("kicked_ising.analytic", "jw_q_vacuum", "analytic.jw_q_vacuum"),
)


class Tracer:
    """Spans as ``[name, parent index, start, end, raised]``, in start order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target that exists; a missing one simply reads zero."""
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(span_name, fn))

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, errors, percentiles;
        plus the sweep points that took each path."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        in_sweep = [False] * len(spans)
        for k, (name, parent, t0, t1, _) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += t1 - t0
                in_sweep[k] = in_sweep[parent] or spans[parent][0] == SWEEP_SPAN
        by_name = {}
        points = {"numeric": 0, "jw": 0}
        for k, (name, _, t0, t1, raised) in enumerate(spans):
            entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                              "errors": 0, "durations": []})
            entry["calls"] += 1
            entry["s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child_s[k]
            entry["errors"] += raised
            entry["durations"].append(t1 - t0)
            if in_sweep[k] and name == "harness.run_time_series":
                points["numeric"] += 1
            elif in_sweep[k] and name == "analytic.jw_q_vacuum":
                points["jw"] += 1
        for entry in by_name.values():
            p50, p90, p99 = np.percentile(entry.pop("durations"), [50, 90, 99])
            entry.update(p50=float(p50), p90=float(p90), p99=float(p99))
        return {"by_name": by_name, "points": points}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,error\n")
            for name, parent, t0, t1, raised in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{int(raised)}\n")


def _own_peak_kb():
    """Peak RSS of this program image.  Unlike ``ru_maxrss``, it leaves out the
    pages of the benchmark process that this one was forked from before exec."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cpu_and_peak():
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)  # includes pool workers once joined
    cpu = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    return cpu, max(_own_peak_kb(), reaped.ru_maxrss)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _probe():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(args):
    result_path, mode = args[0], args[1]
    out = {"ready": READY, "blas_threads": _blas_threads()}
    if mode == "probe":
        out.update(_probe())
    else:
        spans_path, cli_args = args[2], args[args.index("--") + 1:]
        tracer = Tracer() if mode == "1" else None
        entry = cli.main
        if tracer is not None:
            tracer.install()
            entry = tracer.wrap("cli.main", cli.main)
        cpu0, _ = _cpu_and_peak()
        t0 = time.perf_counter()
        try:
            code = entry(cli_args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
        cpu1, peak_kb = _cpu_and_peak()
        out.update(returncode=code, wall_s=wall, cpu_s=cpu1 - cpu0, peak_rss_kb=peak_kb)
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
