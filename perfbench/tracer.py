"""Per-layer spans around the public functions of each latspin module.

The package binds names with `from .x import f`, so one function can sit in
several module namespaces (`cov_diff` lives in `fields`, `dynamics` and
`cli`). A span therefore replaces every binding of the function in every
`latspin` module; `MatrixGroup` methods and the container `__post_init__`
hooks are replaced on their class. Self time is a span's duration minus the
durations of the spans it encloses. Bytes are computed from the `nbytes` of
the array arguments and the array result, not measured.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (metric name "<module>.<function>", attributes of that module, count bytes);
# "Class.attr" patches a class.
SPANS = (
    ("lie.bracket_arr", ("MatrixGroup.bracket_arr",), True),
    ("lie.ad_star_arr", ("MatrixGroup.ad_star_arr",), True),
    ("lie.exp_arr", ("MatrixGroup.exp_arr",), True),
    ("lie.log_arr", ("MatrixGroup.log_arr",), True),
    ("lie.hat", ("MatrixGroup.hat",), True),
    ("lie.to_coeffs", ("MatrixGroup.to_coeffs",), True),
    ("lattice.cdiff_array", ("cdiff_array",), True),
    ("lattice.div_dual", ("div_dual",), False),
    ("lattice.right_log_derivative", ("right_log_derivative",), False),
    ("lattice.snapshot", ("snapshot",), False),
    ("lattice.field_wrap", (
        "AlgebraField.__post_init__", "DualField.__post_init__",
        "ConnectionForm.__post_init__", "DualVectorField.__post_init__",
    ), True),
    ("fields.cov_diff", ("cov_diff",), False),
    ("fields.cov_div", ("cov_div",), False),
    ("fields.gauge_act", ("gauge_act",), False),
    ("fields.curvature", ("curvature",), False),
    ("fields.reconstruct_step", ("reconstruct_step",), False),
    ("lagrangian.get_spec", ("get_spec",), False),
    ("lagrangian.delta_l_delta_nu", ("delta_l_delta_nu",), False),
    ("lagrangian.delta_l_delta_gamma", ("delta_l_delta_gamma",), False),
    ("lagrangian.reduced_l", ("reduced_l",), False),
    ("lagrangian.instantaneous_L", ("instantaneous_L",), False),
    ("lagrangian.fd_gradient_oracle", ("fd_gradient_oracle",), False),
    ("dynamics.simulate", ("simulate",), False),
    ("dynamics.aep_rhs", ("aep_rhs",), False),
    ("dynamics.energy", ("energy",), False),
    ("dynamics.covariant_residual", ("covariant_residual",), False),
    ("dynamics.compatibility_monitor", ("compatibility_monitor",), False),
    ("dynamics.variational_residual", ("variational_residual",), False),
    ("dynamics.profiles", (
        "fourier_algebra_field", "fourier_connection",
        "pure_gauge_connection", "group_field_from_profile",
    ), False),
    ("cli.parse_config", ("parse_config",), False),
    ("cli.trajectory_rows", ("trajectory_rows",), False),
    ("cli.write_series", ("write_series",), False),
    ("cli.ladder_measurements", ("ladder_measurements",), False),
    ("cli.verify_suite", ("verify_suite",), False),
    ("cli.run_simulate", ("run_simulate",), False),
)


def metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name, _, count_bytes in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if count_bytes:
            out.append((f"{name}.bytes", "B_computed"))
    return out


def _array_bytes(objs):
    total = 0
    for obj in objs:
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        else:  # a lattice container: count its coefficient array
            arr = getattr(obj, "values", getattr(obj, "comps", None))
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
    return total


class Tracer:
    """Installs spans, accumulates calls / self time / bytes, and removes them."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name, _, _ in SPANS}
        self._stack = []
        self._undo = []

    def _span(self, name, fn, count_bytes):
        stats, stack, clock = self.stats[name], self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats[0] += 1
                stats[1] += took - frame[0]
            if count_bytes:
                stats[2] += _array_bytes(args) + _array_bytes(kwargs.values()) \
                    + _array_bytes((out,))
            return out

        return span

    def install(self):
        """Wrap every span target in every module namespace that binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "latspin" or k.startswith("latspin.")]
        for name, attrs, count_bytes in SPANS:
            home = sys.modules["latspin." + name.split(".")[0]]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = cls.__dict__[meth]
                    targets = [(cls, meth)]
                else:
                    fn = getattr(home, attr)
                    targets = [(m, key) for m in modules
                               for key, val in vars(m).items() if val is fn]
                wrapped = self._span(name, fn, count_bytes)
                for owner, key in targets:
                    setattr(owner, key, wrapped)
                    self._undo.append((owner, key, fn))

    def uninstall(self):
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    def report(self):
        out = {}
        for name, _, count_bytes in SPANS:
            calls, self_s, nbytes = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if count_bytes:
                out[f"{name}.bytes"] = nbytes
        return out
