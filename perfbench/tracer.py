"""Layer tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions and methods of every combgas
module, the names in ``REQUIRED`` and the numpy/scipy solvers in ``KERNELS``
(the pseudo-layer ``kernel``).  A function is wrapped at every name the
program looks it up under: its defining module or class, every combgas
module global bound to the same object, and the numpy/scipy module
attribute.  A required name that no longer exists is reported in
``absent`` instead of failing.

Each wrapped call inside a job records a span (name, start, end, parent
span, job id) in flat in-memory arrays; ``write`` saves them when the run
ends.  Calls, self time (span time minus the time of its child spans) and
the counters of ``PROBES`` are accumulated as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "graphs", "families", "resolvent", "spectral", "secular",
          "thermo", "comb_bec")
KERNELS = {  # span name -> (module, attribute)
    "kernel.eigh_tridiagonal": ("scipy.linalg", "eigh_tridiagonal"),
    "kernel.eigsh": ("scipy.sparse.linalg", "eigsh"),
    "kernel.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "kernel.quad": ("scipy.integrate", "quad"),
}
# Wrapped even when private; the per-layer metrics name them.  ROADMAP work
# is expected to delete some (smooth_term_cheb, chebyshev_apply,
# _chain_resolvent): those are reported absent.
REQUIRED = (
    "cli.main", "graphs.build_lattice_box", "families.CombFamily.spectrum",
    "resolvent.kernel_line", "spectral.top_eigenpair",
    "spectral.norm_sequence", "spectral.dense_spectrum",
    "secular.solve_secular", "secular.SecularSystem.pf_value",
    "secular.SecularSystem.det_value", "secular.SecularSystem.kernel_matrix",
    "thermo.green_lattice", "thermo.finite_volume_density",
    "comb_bec.smooth_term_cheb", "comb_bec.chebyshev_apply",
    "comb_bec.block_matrix_element", "comb_bec.two_point_finite",
    "comb_bec.two_point_limit", "comb_bec.q_limit", "comb_bec.lattice_coeffs",
    "comb_bec.q_entry", "comb_bec._chain_resolvent",
)


def _block_key(args, kwargs):
    diag = args[0] if args else kwargs["d"]
    off = args[1] if len(args) > 1 else kwargs["e"]
    return hash((bytes(memoryview(diag)), bytes(memoryview(off))))


def _probe_blocks(tr, args, kwargs, result):
    tr.count["fiber_blocks.solves"] += 1
    key = _block_key(args, kwargs)
    tr.job_blocks.add(key)
    tr.run_blocks.add(key)


def _probe_vertices(tr, args, kwargs, result):
    g = args[0]
    shape = getattr(g, "shape", None)
    tr.count["spectral.top_eigenpair.vertices"] += (
        shape[0] if shape is not None else g.vertex_count)


def _probe_nnz(tr, args, kwargs, result):
    tr.count["families.matrix.nnz"] += result.nnz


def _probe_cheb_degree(tr, args, kwargs, result):
    tr.count["comb_bec.cheb_degree"] += result[1]


def _probe_cheb_flops(tr, args, kwargs, result):
    mat, coeffs = args[0], args[1]
    tr.count["comb_bec.cheb_flops"] += len(coeffs) * 2 * mat.nnz


def _probe_lattice_points(tr, args, kwargs, result):
    d, n = args[0], args[1]
    tr.count["comb_bec.lattice_sum_points"] += (2 * n + 1) ** d


def _probe_kernel_entries(tr, args, kwargs, result):
    tr.count["secular.kernel_entries"] += len(args[0].support) ** 2


PROBES = {
    "kernel.eigh_tridiagonal": _probe_blocks,
    "spectral.top_eigenpair": _probe_vertices,
    "comb_bec.smooth_term_cheb": _probe_cheb_degree,
    "comb_bec.chebyshev_apply": _probe_cheb_flops,
    "comb_bec.lattice_coeffs": _probe_lattice_points,
    "comb_bec.q_entry": _probe_lattice_points,
    "secular.SecularSystem.kernel_matrix": _probe_kernel_entries,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = array("q")
        self.self_s = array("d")
        self.count = defaultdict(float)
        self.job_blocks = set()   # distinct fiber blocks of the current job
        self.run_blocks = set()   # ... and of the whole run
        self.absent = []
        self._stack = []
        self._job = -1
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self._job)
        self.span_end.append(0.0)
        frame = [idx, 0.0, time.perf_counter()]
        self.span_start.append(frame[2])
        self._stack.append(frame)
        return frame

    def _close(self, nid, frame):
        end = time.perf_counter()
        self._stack.pop()
        self.span_end[frame[0]] = end
        duration = end - frame[2]
        self.calls[nid] += 1
        self.self_s[nid] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def begin_job(self, job):
        self._job = job
        self.job_blocks = set()
        self._job_frame = self._open(self._name_id("job"))

    def end_job(self):
        self._close(self._ids["job"], self._job_frame)
        self.count["fiber_blocks.unique"] += len(self.job_blocks)
        self._job = -1

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        probe = PROBES.get(name)
        if name.startswith("families.") and name.endswith(".matrix"):
            probe = _probe_nnz

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job < 0:
                return fn(*args, **kwargs)
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, frame)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module("combgas." + layer)
                   for layer in LAYERS}
        targets = {}  # id(original) -> (span name, original)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in REQUIRED)):
                    targets[id(obj)] = (name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        kernel_owners = []
        for name, (modname, attr) in KERNELS.items():
            owner = importlib.import_module(modname)
            if attr not in vars(owner):
                self.absent.append(name)
                continue
            targets[id(getattr(owner, attr))] = (name, getattr(owner, attr))
            kernel_owners.append((owner, attr))
        wrapped = {key: self._wrap(name, obj)
                   for key, (name, obj) in targets.items()}
        for owner, attr in kernel_owners + [
                (mod, attr) for mod in modules.values() for attr in vars(mod)]:
            obj = vars(owner)[attr]
            if id(obj) in wrapped and obj is targets[id(obj)][1]:
                self._set(owner, attr, wrapped[id(obj)])
        self.absent += [name for name in REQUIRED if name not in self._ids]

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if attr.startswith("_") and name not in REQUIRED:
                continue
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (staticmethod, classmethod)):
                self._set(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def write(self, path):
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.span_name),
            parent=np.array(self.span_parent), job=np.array(self.span_job),
            start=np.array(self.span_start), end=np.array(self.span_end))

    def _stat(self, predicate):
        calls = self_s = 0.0
        for nid, name in enumerate(self.names):
            if predicate(name):
                calls += self.calls[nid]
                self_s += self.self_s[nid]
        return calls, self_s

    def metrics(self):
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer in LAYERS + ("kernel",):
            _, self_s = self._stat(lambda n, p=layer + ".": n.startswith(p))
            put(layer + ".self_s", self_s, "s")
        put("resolvent.calls",
            self._stat(lambda n: n.startswith("resolvent."))[0], "count")
        per_function = (
            "kernel.eigh_tridiagonal", "kernel.eigsh", "kernel.eigvalsh",
            "kernel.quad", "families.CombFamily.spectrum",
            "comb_bec.smooth_term_cheb", "comb_bec.block_matrix_element",
            "comb_bec.q_limit", "spectral.top_eigenpair",
            "secular.solve_secular")
        for fname in per_function:
            calls, self_s = self._stat(lambda n, f=fname: n == f)
            put(fname + ".calls", calls, "count")
            put(fname + ".self_s", self_s, "s")
        for fname in ("comb_bec.two_point_finite", "comb_bec.two_point_limit",
                      "spectral.norm_sequence", "spectral.dense_spectrum"):
            put(fname + ".self_s", self._stat(lambda n, f=fname: n == f)[1],
                "s")
        for fname in ("graphs.build_lattice_box", "thermo.green_lattice",
                      "thermo.finite_volume_density"):
            put(fname + ".calls", self._stat(lambda n, f=fname: n == f)[0],
                "count")
        calls, self_s = self._stat(
            lambda n: n.startswith("families.") and n.endswith(".matrix"))
        put("families.matrix.calls", calls, "count")
        put("families.matrix.self_s", self_s, "s")
        put("secular.evals", self._stat(
            lambda n: n in ("secular.SecularSystem.pf_value",
                            "secular.SecularSystem.det_value"))[0], "count")
        for key in ("fiber_blocks.unique", "fiber_blocks.solves",
                    "spectral.top_eigenpair.vertices", "families.matrix.nnz",
                    "comb_bec.cheb_degree", "comb_bec.cheb_flops",
                    "comb_bec.lattice_sum_points", "secular.kernel_entries"):
            put(key, self.count[key], "count")
        solves = self.count["fiber_blocks.solves"]
        # distinct blocks of each job per solve; 1 when nothing was solved
        put("fiber_blocks.reuse",
            self.count["fiber_blocks.unique"] / solves if solves else 1.0,
            "ratio")
        put("fiber_blocks.unique_run", len(self.run_blocks), "count")
        put("trace.spans", len(self.span_start), "count")
        put("trace.absent", len(self.absent), "count")
        return out
