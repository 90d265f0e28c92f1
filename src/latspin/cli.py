"""Configuration-driven entry point: simulate, verify, convergence.

Exit codes: 0 success, 1 failed verification/convergence checks, 2 bad
configuration, 3 divergence during time stepping.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import dynamics, lagrangian
from .fields import ReducedState, cov_diff, cov_div, gauge_act
from .lattice import (
    MIN_SITES_PER_AXIS,
    AlgebraField,
    ConnectionForm,
    DualVectorField,
    Grid,
    NonFiniteError,
    d_alg,
    div_dual,
    l2_pair,
    snapshot,
)
from .lie import group_by_name, so3

__all__ = ["ConfigError", "main", "run_simulate", "run_verify", "run_convergence"]

SERIES_HEADER = "t,l_value,energy,advection_residual,curvature_max,covariant_residual,exact_advect_gap"
ORDER_THRESHOLD = 1.7
ZERO_LADDER_FLOOR = 1e-12


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key."""

    def __init__(self, key, message):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


# -- config parsing -----------------------------------------------------------


REQUIRED = object()


class Rule(NamedTuple):
    """One config key: its kind, the range [lo, hi] of each number, and its default.

    kind is "int" or "float" (a finite JSON number, whole for "int"), "int per
    axis" or "float per axis" (a list of grid.dim of them), "levels" (a list
    of at least 3 distinct ints), "path" (a non-empty string), or a tuple of
    the names allowed.
    """

    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    default: object = REQUIRED


_PROFILE_RULES = {"modes": Rule("int", 1), "amplitude": Rule("float"), "seed": Rule("int", 0)}

# Every key a command reads. The rows of grid.* reject whatever Grid would,
# and a subnormal grid.spacing or time.dt would overflow 1/h or 1/dt.
SCHEMA = {
    "grid.dim": Rule("int", 1, 2),
    "grid.sizes": Rule("int per axis", MIN_SITES_PER_AXIS),
    "grid.spacing": Rule("float per axis", sys.float_info.min),
    "group": Rule(("SO3",)),
    "lagrangian": Rule(tuple(lagrangian.available_specs())),
    "init.nu.profile": Rule(("zero", "fourier")),
    **{f"init.nu.{sub}": rule for sub, rule in _PROFILE_RULES.items()},
    "gamma0.profile": Rule(("zero", "fourier", "pure_gauge")),
    **{f"gamma0.{sub}": rule for sub, rule in _PROFILE_RULES.items()},
    "time.dt": Rule("float", sys.float_info.min),
    "time.steps": Rule("int", 0, sys.maxsize),
    "output.cadence": Rule("int", 1, default=1),
    "ladder.sizes": Rule("levels", MIN_SITES_PER_AXIS),
    "output_dir": Rule("path", default=None),
}


def read(cfg, key):
    """The value at a SCHEMA key of cfg, checked against its row.

    A missing key gives the row's default; without one, the ConfigError names
    the first key on the path that is missing, or the parent that is not an
    object.
    """
    rule, path, node = SCHEMA[key], key.split("."), cfg
    for depth, part in enumerate(path):
        if not isinstance(node, dict):
            raise ConfigError(".".join(path[:depth]), "must be an object")
        if part not in node:
            if rule.default is REQUIRED:
                raise ConfigError(".".join(path[:depth + 1]), "missing")
            return rule.default
        node = node[part]
    kind = rule.kind
    if isinstance(kind, tuple):
        if node not in kind:
            raise ConfigError(key, f"must be one of {list(kind)}, got {node!r}")
        return node
    if kind == "path":
        if not isinstance(node, str) or not node:
            raise ConfigError(key, "must be a non-empty string")
        return node
    if kind in ("int", "float"):
        return _number(key, node, kind, rule)
    if kind == "levels":
        levels = [_number(key, n, "int", rule) for n in node] if isinstance(node, list) else []
        if len(levels) < 3 or len(set(levels)) < len(levels):
            raise ConfigError(key, "needs at least 3 distinct levels")
        return levels
    dim = read(cfg, "grid.dim")
    if not isinstance(node, list) or len(node) != dim:
        raise ConfigError(key, f"must list {dim} entries")
    return tuple(_number(key, x, kind.split()[0], rule) for x in node)


def _number(key, value, kind, rule):
    """A finite JSON number in [rule.lo, rule.hi], as an int for kind "int"."""
    try:
        ok = (not isinstance(value, bool) and math.isfinite(value)
              and (kind == "float" or value == int(value)))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(key, f"must be a finite {kind}, got {value!r}")
    value = int(value) if kind == "int" else float(value)
    if not rule.lo <= value <= rule.hi:
        raise ConfigError(key, f"must lie in [{rule.lo!r}, {rule.hi!r}], got {value!r}")
    return value


def _profile_cfg(cfg, key):
    """The profile name under key and, unless it is zero, its modes, amplitude and seed."""
    out = {"profile": read(cfg, f"{key}.profile")}
    if out["profile"] != "zero":
        out.update({sub: read(cfg, f"{key}.{sub}") for sub in _PROFILE_RULES})
    return out


def parse_config(cfg: dict) -> dynamics.SimConfig:
    """Validate a config document and expand profiles into concrete fields."""
    grid = Grid(read(cfg, "grid.sizes"), read(cfg, "grid.spacing"))
    group = group_by_name(read(cfg, "group"))
    spec = lagrangian.get_spec(read(cfg, "lagrangian"))
    nu_cfg = _profile_cfg(cfg, "init.nu")
    gamma_cfg = _profile_cfg(cfg, "gamma0")
    dt, steps = read(cfg, "time.dt"), read(cfg, "time.steps")
    cadence = read(cfg, "output.cadence")

    # An overflow here ends in a non-finite field or bound that is rejected
    # below, so the exit-2 line is the only report of it.
    with np.errstate(over="ignore", invalid="ignore"):
        nu0 = _profile_field(grid, group, "init.nu", nu_cfg, _make_nu)
        gamma0 = _profile_field(grid, group, "gamma0", gamma_cfg, _make_gamma)
        try:
            return dynamics.SimConfig(grid, group, spec, nu0, gamma0, dt, steps, cadence)
        except ValueError as exc:
            raise ConfigError("time.dt", str(exc)) from None


def _profile_field(grid, group, key, cfg, make):
    """make(grid, group, cfg) if its values and max norm are finite.

    Otherwise the ConfigError names the key at fault: the amplitude when the
    same profile is finite at unit amplitude, else the grid spacing, whose
    coordinates then overflow; grid.sizes when the field cannot be allocated.
    """
    def finite(profile_cfg):
        try:
            field = make(grid, group, profile_cfg)
        except NonFiniteError:
            return None
        return field if math.isfinite(field.max_norm()) else None

    try:
        field = finite(cfg)
        if field is not None:
            return field
        unit_ok = finite(dict(cfg, amplitude=1.0)) is not None
    except dynamics.ModesError as exc:
        raise ConfigError(f"{key}.modes", str(exc)) from None
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None
    except MemoryError:
        raise ConfigError("grid.sizes", "too many sites to allocate the fields") from None
    if unit_ok:
        raise ConfigError(f"{key}.amplitude", "the profile overflows (non-finite "
                          "values or norm)")
    raise ConfigError("grid.spacing", f"the {key} profile overflows at unit "
                      "amplitude: the axis coordinates N*h are too large")


def _make_nu(grid, group, cfg):
    if cfg["profile"] == "zero":
        return AlgebraField.zeros(grid, group)
    return dynamics.fourier_algebra_field(
        grid, group, cfg["modes"], cfg["amplitude"], cfg["seed"]
    )


def _make_gamma(grid, group, cfg):
    if cfg["profile"] == "zero":
        return ConnectionForm.zeros(grid, group)
    if cfg["profile"] == "fourier":
        return dynamics.fourier_connection(
            grid, group, cfg["modes"], cfg["amplitude"], cfg["seed"]
        )
    return dynamics.pure_gauge_connection(
        grid, group, cfg["modes"], cfg["amplitude"], cfg["seed"]
    )


# -- simulate -----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def trajectory_rows(spec, traj, steps):
    """Monitor rows at the given steps; traj holds steps n-1..n+1 of each step n."""
    rows = []
    for n in steps:
        s = traj.states[n]
        rows.append({
            "t": s.t,
            "l_value": lagrangian.reduced_l(spec, s.t, s),
            "energy": dynamics.energy(spec, s.t, s),
            **dynamics.monitor_row(spec, traj, n),
        })
    return rows


def write_series(path, rows):
    cols = SERIES_HEADER.split(",")
    with open(path, "w") as fh:
        fh.write(SERIES_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _write_json(fh, obj, chunk=1024):
    """Write json.dumps(obj) for string-keyed obj without building it whole.

    A numpy array is written as its tolist(). One json.dumps of a 64x64
    snapshot's list form is fast but holds that list, the document and its
    number strings at once, which raises peak memory (json.dump holds less
    but streams through the pure-Python encoder). Here the C encoder writes
    each long list or array in chunks of `chunk` entries, and an array's
    chunks are taken straight from it, so at most one chunk of a snapshot is
    held as Python floats; the bytes are those of json.dumps.
    """
    if isinstance(obj, dict):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, value, chunk)
        fh.write("}")
    elif isinstance(obj, (list, np.ndarray)) and len(obj) > chunk:
        fh.write("[")
        for i in range(0, len(obj), chunk):
            part = json.dumps(obj[i:i + chunk], default=np.ndarray.tolist)
            fh.write((", " if i else "") + part[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(obj, default=np.ndarray.tolist))


def _write_state(outdir, traj, n):
    """state_<n>.json: the time and snapshots of nu and gamma at step n."""
    state = traj.states[n]
    snap = {"t": state.t, "nu": snapshot(state.nu), "gamma": snapshot(state.gamma)}
    with open(os.path.join(outdir, f"state_{n}.json"), "w") as fh:
        _write_json(fh, snap)


def _make_dir(path):
    """Create the directory path if needed; None, or why it cannot be one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        return f"cannot create directory {path!r}: {exc.strerror}"
    return None


def _write_failed(outdir, exc):
    """Print why an output file under outdir could not be written; exit code 2."""
    print(f"error: output directory: cannot write {exc.filename or outdir!r}: "
          f"{exc.strerror or exc}", file=sys.stderr)
    return 2


def _read_config(path):
    """The JSON object in the file at path, or None once the reason is printed."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return None
    if not isinstance(raw, dict):
        print("error: cannot read config: the document is not a JSON object", file=sys.stderr)
        return None
    return raw


def run_simulate(config_path, outdir) -> int:
    raw = _read_config(config_path)
    if raw is None:
        return 2
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problem = _make_dir(outdir)
    if problem:
        print(f"error: output directory: {problem}", file=sys.stderr)
        return 2

    rows = []

    def visit(traj, n):
        if n % cfg.cadence == 0 or n == cfg.steps:
            rows.extend(trajectory_rows(cfg.spec, traj, [n]))
            _write_state(outdir, traj, n)

    report, exit_code = {"config": raw, "status": "ok"}, 0
    try:
        try:
            dynamics.simulate(cfg, visit)
        except dynamics.DivergenceError as exc:
            # the rows and snapshots of the steps before the failure stay
            report.update(status="diverged", failed_step=exc.step,
                          failed_cause=exc.cause, failed_field=exc.field)
            print(f"error: {exc}", file=sys.stderr)
            exit_code = 3
        except MemoryError:
            # the fields fit, but the arrays of a step do not
            print(f"error: {ConfigError('grid.sizes', 'too many sites to run a step')}",
                  file=sys.stderr)
            return 2
        report["rows"] = rows
        write_series(os.path.join(outdir, "series.csv"), rows)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    except OSError as exc:
        return _write_failed(outdir, exc)
    return exit_code


# -- verify -------------------------------------------------------------------


def _report(name, bound, tol, lines):
    ok = bound <= tol
    lines.append((name, ok, bound, tol))
    return ok


def verify_suite(seed=0, sizes=(32, 16)):
    """Property suite over both grid dimensions; returns (all_ok, lines).

    Each line is (name, passed, measured_bound, tolerance). The gauge
    invariance of the instantaneous Lagrangian is checked at the pinned exact
    tolerance; on the lattice the affine action composes only to second order
    in h, so that line reports the measured (order h^2) defect.
    """
    group = so3()
    rng = np.random.default_rng(seed)
    lines = []
    spec = lagrangian.spin_glass_spec()

    # Lie kernel identities.
    jac = adinv = dual = roundtrip = 0.0
    for _ in range(100):
        x, y, z = rng.normal(size=(3, 3))
        bxy = group.bracket_arr(x, y)
        jac = max(jac, float(np.max(np.abs(
            group.bracket_arr(x, group.bracket_arr(y, z))
            + group.bracket_arr(y, group.bracket_arr(z, x))
            + group.bracket_arr(z, group.bracket_arr(x, y))
        ))))
        adinv = max(adinv, abs(float(bxy @ z + y @ group.bracket_arr(x, z))))
        dual = max(dual, abs(float(group.ad_star_arr(x, z) @ y - z @ bxy)))
        xi = rng.normal(size=3)
        scale = rng.uniform(0.1, 0.9) * np.pi / max(np.linalg.norm(xi), 1e-12)
        xi = xi * scale
        back = group.log_arr(group.exp_arr(xi))
        roundtrip = max(roundtrip, float(np.max(np.abs(back - xi))))
    _report("lie.jacobi", jac, 1e-12, lines)
    _report("lie.ad_invariance", adinv, 1e-12, lines)
    _report("lie.ad_star_duality", dual, 1e-12, lines)
    _report("lie.exp_log_roundtrip", roundtrip, 1e-12, lines)

    for dim, base in ((1, sizes[0]), (2, sizes[1])):
        grid = Grid((base,) * dim, (1.0 / base,) * dim)
        modes = max(1, min(2, base // 4))
        tag = f"{dim}d"

        sbp = cov_adj = 0.0
        for k in range(50):
            gam = dynamics.fourier_connection(grid, group, modes, 0.8, seed + 100 + k)
            w = DualVectorField(grid, group, dynamics.fourier_connection(
                grid, group, modes, 0.7, seed + 200 + k).comps)
            zeta = dynamics.fourier_algebra_field(grid, group, modes, 0.9, seed + 300 + k)
            a = l2_pair(div_dual(w), zeta)
            b = l2_pair(w, d_alg(zeta))
            sbp = max(sbp, abs(a + b) / max(abs(a), abs(b), 1.0))
            a = l2_pair(cov_div(gam, w), zeta)
            b = l2_pair(w, cov_diff(gam, zeta))
            cov_adj = max(cov_adj, abs(a + b) / max(abs(a), abs(b), 1.0))
        _report(f"lattice.sbp.{tag}", sbp, 1e-12, lines)
        _report(f"fields.cov_adjointness.{tag}", cov_adj, 1e-12, lines)

        gauge_dev = red_gap = 0.0
        for k in range(20):
            chi = dynamics.group_field_from_profile(grid, group, modes, 0.5, seed + 400 + k)
            lam = dynamics.group_field_from_profile(grid, group, modes, 0.5, seed + 500 + k)
            nu_p = dynamics.fourier_algebra_field(grid, group, modes, 0.6, seed + 600 + k)
            gam = dynamics.fourier_connection(grid, group, modes, 0.6, seed + 700 + k)
            base_val = lagrangian.instantaneous_L(spec, 0.0, chi, nu_p, gam)
            moved = lagrangian.instantaneous_L(
                spec, 0.0, chi.compose(lam), nu_p, gauge_act(lam, gam)
            )
            gauge_dev = max(
                gauge_dev, abs(moved - base_val) / max(abs(base_val), abs(moved), 1e-300)
            )
            red_gap = max(
                red_gap, lagrangian.reduction_identity_gap(spec, 0.0, chi, nu_p, gam)
            )
        _report(f"lagrangian.gauge_invariance.{tag}", gauge_dev, 1e-10, lines)
        _report(f"lagrangian.reduction_identity.{tag}", red_gap, 1e-10, lines)

        fd_nu = fd_gamma = 0.0
        nu = dynamics.fourier_algebra_field(grid, group, modes, 0.6, seed + 800)
        gam = dynamics.fourier_connection(grid, group, modes, 0.6, seed + 900)
        state = ReducedState(nu, gam, 0.0)
        analytic_nu = lagrangian.delta_l_delta_nu(spec, 0.0, state)
        oracle_nu = lagrangian.fd_gradient_oracle(
            lambda f: lagrangian.reduced_l(spec, 0.0, ReducedState(f, gam, 0.0)),
            nu, 1e-5,
        )
        scale = max(float(np.max(np.abs(oracle_nu.values))), 1e-30)
        fd_nu = float(np.max(np.abs(analytic_nu.values - oracle_nu.values))) / scale
        analytic_gam = lagrangian.delta_l_delta_gamma(spec, 0.0, state)
        oracle_gam = lagrangian.fd_gradient_oracle(
            lambda f: lagrangian.reduced_l(spec, 0.0, ReducedState(nu, f, 0.0)),
            gam, 1e-5,
        )
        scale = max(float(np.max(np.abs(oracle_gam.comps))), 1e-30)
        fd_gamma = float(np.max(np.abs(analytic_gam.comps - oracle_gam.comps))) / scale
        _report(f"lagrangian.fd_match_nu.{tag}", fd_nu, 1e-6, lines)
        _report(f"lagrangian.fd_match_gamma.{tag}", fd_gamma, 1e-6, lines)

        # Background-form independence of the covariant residual.
        cfg = dynamics.SimConfig(
            grid, group, spec,
            dynamics.fourier_algebra_field(grid, group, modes, 0.4, seed + 1000),
            dynamics.fourier_connection(grid, group, modes, 0.3, seed + 1100),
            dt=0.2 / base, steps=6, cadence=1,
        )
        abar = dynamics.fourier_connection(grid, group, modes, 0.9, seed + 1200)
        gap = 0.0

        def visit(traj, n):
            nonlocal gap
            if 0 < n < traj.steps:
                r0 = dynamics.covariant_residual(spec, traj, n)
                ra = dynamics.covariant_residual(spec, traj, n, abar)
                s = traj.states[n]
                w = lagrangian.delta_l_delta_gamma(spec, s.t, s)
                scale = max(r0.max_norm(), abar.max_norm() * w.max_norm(), 1.0)
                gap = max(gap, float(np.max(np.abs(ra.values - r0.values))) / scale)

        dynamics.simulate(cfg, visit)
        _report(f"dynamics.abar_independence.{tag}", gap, 1e-12, lines)

    all_ok = all(ok for _, ok, _, _ in lines)
    return all_ok, lines


def run_verify(seed=0, sizes=(32, 16)) -> int:
    if seed < 0:
        print(f"error: --seed must be non-negative, got {seed}", file=sys.stderr)
        return 2
    if min(sizes) < MIN_SITES_PER_AXIS:
        print(f"error: --sizes must be at least {MIN_SITES_PER_AXIS} sites per axis, "
              f"got {' '.join(map(str, sizes))}", file=sys.stderr)
        return 2
    try:
        all_ok, lines = verify_suite(seed=seed, sizes=sizes)
    except MemoryError:
        print(f"error: --sizes {' '.join(map(str, sizes))}: too many sites to allocate "
              "the fields", file=sys.stderr)
        return 2
    for name, ok, bound, tol in lines:
        print(f"{'PASS' if ok else 'FAIL'} {name:42s} measured={bound:.3e} tol={tol:.1e}")
    return 0 if all_ok else 1


# -- convergence ----------------------------------------------------------------


def fit_order(hs, residuals):
    """Least-squares slope of log residual against log h; inf for a zero ladder."""
    res = np.asarray(residuals, float)
    if np.all(res <= ZERO_LADDER_FLOOR):
        return float("inf")
    res = np.maximum(res, 1e-300)
    slope, _ = np.polyfit(np.log(np.asarray(hs, float)), np.log(res), 1)
    return float(slope)


ORDER_KEYS = (
    "variational_residual",
    "covariant_residual",
    "advection_residual",
    "curvature_max",
    "exact_advect_gap",
)


def ladder_measurements(raw_cfg, sizes, probes=40, probe_eps=1e-5, probe_seed=0):
    """Run the refinement ladder; dt scales with h, T and initial data fixed.

    Returns one measurement dict per level with the interior maxima of every
    monitored residual. Each level streams: its visitor keeps the running
    maxima, so a level holds three steps at a time. A level that diverges
    raises its DivergenceError with `sites` set to the level's site count.
    """
    base = parse_config(raw_cfg)
    dim = base.grid.dim
    lengths = base.grid.lengths
    t_final = base.dt * base.steps
    base_n = raw_cfg["grid"]["sizes"][0]
    out = []
    for n_sites in sizes:
        level_cfg = json.loads(json.dumps(raw_cfg))
        level_cfg["grid"]["sizes"] = [int(n_sites)] * dim
        level_cfg["grid"]["spacing"] = [lengths[i] / n_sites for i in range(dim)]
        dt = base.dt * base_n / n_sites
        steps = max(2, round(t_final / dt))
        level_cfg["time"] = {"dt": dt, "steps": steps}
        try:
            cfg = parse_config(level_cfg)
        except ConfigError as exc:
            # the base config parsed, so the level size is at fault
            raise ConfigError("ladder.sizes", f"level {n_sites}: {exc}") from None
        worst = dict.fromkeys(ORDER_KEYS, 0.0)

        def visit(traj, k):
            found = {"variational_residual": dynamics.variational_residual(
                cfg.spec, traj, probes=probes, eps=probe_eps, seed=probe_seed)}
            if 0 < k < traj.steps:
                found.update(dynamics.monitor_row(cfg.spec, traj, k))
            for key, value in found.items():
                worst[key] = max(worst[key], value)

        try:
            dynamics.simulate(cfg, visit)
        except dynamics.DivergenceError as exc:
            exc.sites = int(n_sites)
            raise
        except MemoryError:
            raise ConfigError("ladder.sizes",
                              f"level {n_sites}: too many sites to run a step") from None
        out.append({
            "sites": int(n_sites),
            "h": lengths[0] / n_sites,
            "dt": dt,
            "steps": steps,
            **worst,
        })
    return out


def convergence_orders(measurements):
    hs = [m["h"] for m in measurements]
    return {key: fit_order(hs, [m[key] for m in measurements]) for key in ORDER_KEYS}


def run_convergence(config_path) -> int:
    raw = _read_config(config_path)
    if raw is None:
        return 2
    try:
        sizes = read(raw, "ladder.sizes")
        out_dir = read(raw, "output_dir") or os.path.dirname(config_path) or "."
        problem = _make_dir(out_dir)
        if problem:
            raise ConfigError("output_dir", problem)
        measurements = ladder_measurements(raw, sizes)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except dynamics.DivergenceError as exc:
        print(f"error: ladder level {exc.sites} diverged: {exc}", file=sys.stderr)
        return 3
    orders = convergence_orders(measurements)
    payload = {"measurements": measurements, "orders": orders,
               "threshold": ORDER_THRESHOLD}
    try:
        with open(os.path.join(out_dir, "orders.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
    except OSError as exc:
        return _write_failed(out_dir, exc)
    ok = True
    for key, order in orders.items():
        passed = order >= ORDER_THRESHOLD
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} order[{key}] = {order:.3f}")
    return 0 if ok else 1


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latspin",
        description="Lattice simulator for reduced spin-system field dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p_sim.add_argument("config")
    p_sim.add_argument("outdir")

    p_ver = sub.add_parser("verify", help="run the property verification suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--sizes", type=int, nargs=2, default=(32, 16),
                       metavar=("N1D", "N2D"))

    p_conv = sub.add_parser("convergence", help="run a refinement ladder")
    p_conv.add_argument("config")

    args = parser.parse_args(argv)
    if args.command == "simulate":
        return run_simulate(args.config, args.outdir)
    if args.command == "verify":
        return run_verify(seed=args.seed, sizes=tuple(args.sizes))
    return run_convergence(args.config)


if __name__ == "__main__":
    sys.exit(main())
