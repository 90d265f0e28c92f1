"""Configuration-driven entry point: simulate, verify, convergence.

Exit codes: 0 success, 1 failed verification/convergence checks, 2 bad
configuration, 3 divergence during time stepping. A command that fails
raises a CommandError, and `main` alone prints its one `error:` line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    DualField,
    DualVectorField,
    Grid,
    NonFiniteError,
    d_alg,
    div_dual,
    l2_pair,
    max_row_norm,
    snapshot,
)
from .lie import so3

__all__ = ["CommandError", "ConfigError", "main", "run_simulate", "run_verify", "run_convergence"]

SERIES_HEADER = "t,l_value,energy,advection_residual,curvature_max,covariant_residual,exact_advect_gap"
ORDER_THRESHOLD = 1.7
ZERO_LADDER_FLOOR = 1e-12
VERIFY_SIZES = (32, 16)  # default verify --sizes: 1-D sites, 2-D sites per axis


class CommandError(Exception):
    """A command failed: `main` prints `error: <message>` and exits with code."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


class ConfigError(CommandError, ValueError):
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
_ROWS = {tuple(key.split(".")) for key in SCHEMA}
_BRANCHES = {row[:depth] for row in _ROWS for depth in range(1, len(row))}


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


def _check_known(node, path=()):
    """Raise the ConfigError of the first key under node, at any depth, that is
    neither a SCHEMA row nor a prefix of one; a misspelled key is never ignored."""
    for part, value in node.items():
        key = path + (part,)
        if key in _ROWS:
            continue
        if key not in _BRANCHES:
            raise ConfigError(".".join(key), "unknown key")
        if isinstance(value, dict):
            _check_known(value, key)


def _profile_cfg(cfg, key):
    """The profile name under key and, unless it is zero, its modes, amplitude and seed."""
    out = {"profile": read(cfg, f"{key}.profile")}
    if out["profile"] != "zero":
        out.update({sub: read(cfg, f"{key}.{sub}") for sub in _PROFILE_RULES})
    return out


def parse_config(cfg: dict) -> dynamics.SimConfig:
    """Validate a config document and expand profiles into concrete fields."""
    _check_known(cfg)
    sizes, spacing = read(cfg, "grid.sizes"), read(cfg, "grid.spacing")
    read(cfg, "group")  # the row admits "SO3" alone
    group = so3()
    spec = lagrangian.get_spec(read(cfg, "lagrangian"))
    nu_cfg = _profile_cfg(cfg, "init.nu")
    gamma_cfg = _profile_cfg(cfg, "gamma0")
    dt, steps = read(cfg, "time.dt"), read(cfg, "time.steps")
    cadence = read(cfg, "output.cadence")

    # An overflow here ends in a non-finite field or bound that is rejected
    # below, so the exit-2 line is the only report of it.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            grid = Grid(sizes, spacing)
            nu0 = _profile_field(grid, group, "init.nu", nu_cfg, _make_nu)
            gamma0 = _profile_field(grid, group, "gamma0", gamma_cfg, _make_gamma)
        except MemoryError:
            raise ConfigError("grid.sizes", "too many sites to allocate the fields") from None
        try:
            return dynamics.SimConfig(grid, group, spec, nu0, gamma0, dt, steps, cadence)
        except ValueError as exc:
            raise ConfigError("time.dt", str(exc)) from None


def _profile_field(grid, group, key, cfg, make):
    """make(grid, group, cfg) if its values and max norm are finite.

    Otherwise the ConfigError names the key at fault: the amplitude when the
    same profile is finite at unit amplitude, else the grid spacing, whose
    coordinates or difference quotients (of order 1/h) then overflow.
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
    if unit_ok:
        raise ConfigError(f"{key}.amplitude", "the profile overflows (non-finite "
                          "values or norm)")
    # the largest phase numerator 2 pi k x has k = modes and x = (N - 1) h
    coords_ok = all(math.isfinite(n * h)
                    and math.isfinite(2.0 * math.pi * cfg["modes"] * (h * (n - 1)))
                    for n, h in zip(grid.sizes, grid.spacing))
    cause = ("the max norm of Lambda^-1 D Lambda, of order 1/h, is not finite" if coords_ok
             else "the axis coordinates N*h are too large")
    raise ConfigError("grid.spacing", f"the {key} profile overflows at unit amplitude: {cause}")


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


def trajectory_rows(spec, traj, states):
    """Monitor rows of {step n: traj.state(n)}; traj holds steps n-1..n+1 of each n."""
    return [{"t": s.t, "l_value": lagrangian.reduced_l(spec, s),
             "energy": dynamics.energy(spec, s), **dynamics.monitor_row(spec, traj, n)}
            for n, s in states.items()]


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


def _write_state(outdir, n, state):
    """state_<n>.json: the time and snapshots of nu and gamma of step n."""
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


@contextlib.contextmanager
def _writing(outdir):
    """Raise an OSError of writing under outdir as the command's exit-2 error."""
    try:
        yield
    except OSError as exc:
        raise CommandError(f"output directory: cannot write {exc.filename or outdir!r}: "
                           f"{exc.strerror or exc}") from None


def _read_config(path):
    """The JSON object in the file at path."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CommandError(f"cannot read config: {exc}") from None
    if not isinstance(raw, dict):
        raise CommandError("cannot read config: the document is not a JSON object")
    return raw


def run_simulate(config_path, outdir) -> int:
    raw = _read_config(config_path)
    cfg = parse_config(raw)
    problem = _make_dir(outdir)
    if problem:
        raise CommandError(f"output directory: {problem}")

    rows = []

    def visit(traj, n):
        if n % cfg.cadence == 0 or n == cfg.steps:
            state = traj.state(n)
            rows.extend(trajectory_rows(cfg.spec, traj, {n: state}))
            _write_state(outdir, n, state)

    report, diverged = {"config": raw, "status": "ok"}, None
    with _writing(outdir):
        try:
            dynamics.simulate(cfg, visit)
        except dynamics.DivergenceError as exc:
            # the rows and snapshots of the steps before the failure stay
            report.update(status="diverged", failed_step=exc.step,
                          failed_cause=exc.cause, failed_field=exc.field)
            diverged = exc
        except MemoryError:
            # the fields fit, but the arrays of a step do not
            raise ConfigError("grid.sizes", "too many sites to run a step") from None
        report["rows"] = rows
        write_series(os.path.join(outdir, "series.csv"), rows)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    if diverged:
        raise CommandError(str(diverged), code=3)
    return 0


# -- verify -------------------------------------------------------------------


def _lie_draws(group, seed):
    """Jacobi, ad-invariance, ad*-duality and exp/log round-trip defects of 100 draws."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x, y, z = rng.normal(size=(3, 3))
        bxy = group.bracket_arr(x, y)
        jacobi = np.max(np.abs(group.bracket_arr(x, group.bracket_arr(y, z))
                               + group.bracket_arr(y, group.bracket_arr(z, x))
                               + group.bracket_arr(z, group.bracket_arr(x, y))))
        ad_inv = abs(bxy @ z + y @ group.bracket_arr(x, z))
        dual = abs(group.ad_star_arr(x, z) @ y - z @ bxy)
        xi = rng.normal(size=3)
        xi = xi * (rng.uniform(0.1, 0.9) * np.pi / max(np.linalg.norm(xi), 1e-12))
        yield jacobi, ad_inv, dual, np.max(np.abs(group.log_arr(group.exp_arr(xi)) - xi))


def _adjoint_pairs(spec, group, grid, modes, seed):
    """Summation-by-parts defects of div_dual and d_alg, and of cov_div and cov_diff."""
    for k in range(50):
        gam = dynamics.fourier_connection(grid, group, modes, 0.8, seed + 100 + k).comps
        w = DualVectorField(grid, group, dynamics.fourier_connection(
            grid, group, modes, 0.7, seed + 200 + k).comps)
        zeta = dynamics.fourier_algebra_field(grid, group, modes, 0.9, seed + 300 + k)
        rhos = div_dual(w.comps, grid.spacing), cov_div(grid, group, gam, w.comps)
        forms = d_alg(zeta.values, grid.spacing), cov_diff(grid, group, gam, zeta.values)
        pairs = ((l2_pair(DualField(grid, group, r), zeta),
                  l2_pair(w, ConnectionForm(grid, group, f))) for r, f in zip(rhos, forms))
        yield tuple(abs(a + b) / max(abs(a), abs(b), 1.0) for a, b in pairs)


def _gauge_moves(spec, group, grid, modes, seed):
    """The relative change of L under a gauge move, and the reduction identity gap."""
    for k in range(20):
        chi = dynamics.group_field_from_profile(grid, group, modes, 0.5, seed + 400 + k)
        lam = dynamics.group_field_from_profile(grid, group, modes, 0.5, seed + 500 + k)
        nu_p = dynamics.fourier_algebra_field(grid, group, modes, 0.6, seed + 600 + k)
        gam = dynamics.fourier_connection(grid, group, modes, 0.6, seed + 700 + k)
        base = lagrangian.instantaneous_L(spec, chi, nu_p, gam)
        moved = lagrangian.instantaneous_L(spec, chi.compose(lam), nu_p, gauge_act(lam, gam))
        yield (abs(moved - base) / max(abs(base), abs(moved), 1e-300),
               lagrangian.reduction_identity_gap(spec, chi, nu_p, gam))


def _fd_gradients(spec, group, grid, modes, seed):
    """The gaps of the analytic gradients of l in nu and gamma from the fd oracle."""
    nu = dynamics.fourier_algebra_field(grid, group, modes, 0.6, seed + 800)
    gam = dynamics.fourier_connection(grid, group, modes, 0.6, seed + 900)
    state = ReducedState(nu, gam)
    analytic_nu = lagrangian.delta_l_delta_nu(spec, state).values
    oracle_nu = lagrangian.fd_gradient_oracle(
        lambda f: lagrangian.reduced_l(spec, ReducedState(f, gam)), nu, 1e-5).values
    analytic_gam = lagrangian.delta_l_delta_gamma(spec, state).comps
    oracle_gam = lagrangian.fd_gradient_oracle(
        lambda f: lagrangian.reduced_l(spec, ReducedState(nu, f)), gam, 1e-5).comps
    yield tuple(float(np.max(np.abs(a - o))) / max(float(np.max(np.abs(o))), 1e-30)
                for a, o in ((analytic_nu, oracle_nu), (analytic_gam, oracle_gam)))


def _abar_gaps(spec, group, grid, modes, seed):
    """The relative change of the covariant residual against a background form abar."""
    nu0 = dynamics.fourier_algebra_field(grid, group, modes, 0.4, seed + 1000)
    gamma0 = dynamics.fourier_connection(grid, group, modes, 0.3, seed + 1100)
    cfg = dynamics.SimConfig(grid, group, spec, nu0, gamma0, 0.2 / grid.sizes[0], 6, 1)
    abar = dynamics.fourier_connection(grid, group, modes, 0.9, seed + 1200)
    gaps = []

    def visit(traj, n):
        if 0 < n < traj.steps:
            r0 = dynamics.covariant_residual(spec, traj, n)
            ra = dynamics.covariant_residual(spec, traj, n, abar.comps)
            w = lagrangian.delta_l_delta_gamma(spec, traj.state(n))
            scale = max(max_row_norm(r0), abar.max_norm() * w.max_norm(), 1.0)
            gaps.append((np.max(np.abs(ra - r0)) / scale,))

    dynamics.simulate(cfg, visit)
    return gaps


def verify_table(seed=0, sizes=VERIFY_SIZES):
    """The checks of `verify` in print order, as (measure, {name: tolerance}).

    Called without arguments, a measure yields one tuple per draw, with one
    measurement for each of its lines. The field checks run on a 1-D grid of
    sizes[0] sites, then on a 2-D grid of sizes[1] sites per axis.
    """
    group, spec = so3(), lagrangian.spin_glass_spec()
    lie = ("jacobi", "ad_invariance", "ad_star_duality", "exp_log_roundtrip")
    table = [(functools.partial(_lie_draws, group, seed), {f"lie.{name}": 1e-12 for name in lie})]
    for dim, n in ((1, sizes[0]), (2, sizes[1])):
        draws = (spec, group, Grid((n,) * dim, (1.0 / n,) * dim), max(1, min(2, n // 4)), seed)
        for measure, rows in (
            (_adjoint_pairs, {"lattice.sbp": 1e-12, "fields.cov_adjointness": 1e-12}),
            (_gauge_moves, {"lagrangian.gauge_invariance": 1e-10,
                            "lagrangian.reduction_identity": 1e-10}),
            (_fd_gradients, {"lagrangian.fd_match_nu": 1e-6, "lagrangian.fd_match_gamma": 1e-6}),
            (_abar_gaps, {"dynamics.abar_independence": 1e-12}),
        ):
            table.append((functools.partial(measure, *draws),
                          {f"{name}.{dim}d": tol for name, tol in rows.items()}))
    return table


def verify_suite(seed=0, sizes=VERIFY_SIZES):
    """Run verify_table; returns (all_ok, lines), a (name, passed, bound, tol) per line.

    A line's bound is the largest of its measurements, NaN if one is NaN. The
    gauge invariance of L is held to the pinned exact tolerance; on the lattice
    the affine action composes only to second order in h, so that line reports
    the measured (order h^2) defect.
    """
    lines = []
    for measure, rows in verify_table(seed, sizes):
        bounds = np.zeros(len(rows))
        for values in measure():
            bounds = np.maximum(bounds, values)
        lines += [(name, bound <= tol, bound, tol)
                  for (name, tol), bound in zip(rows.items(), bounds.tolist())]
    return all(ok for _, ok, _, _ in lines), lines


def run_verify(seed=0, sizes=VERIFY_SIZES) -> int:
    if seed < 0:
        raise CommandError(f"--seed must be non-negative, got {seed}")
    if min(sizes) < MIN_SITES_PER_AXIS:
        raise CommandError(f"--sizes must be at least {MIN_SITES_PER_AXIS} sites per axis, "
                           f"got {' '.join(map(str, sizes))}")
    try:
        all_ok, lines = verify_suite(seed=seed, sizes=sizes)
    except MemoryError:
        raise CommandError(f"--sizes {' '.join(map(str, sizes))}: too many sites to "
                           "allocate the fields") from None
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

    A level of n sites per axis runs steps * n / N0 steps (N0 = grid.sizes[0]);
    a base grid whose axis sizes differ, a count that is not whole or is
    below 2, and a level whose config fails to parse are refused before any
    level runs: every level is parsed first, and the levels held until they
    run are initial fields only.
    Returns one measurement dict per level with the interior maxima of every
    monitored residual. Each level streams: its visitor keeps the running
    maxima, so a level holds three steps at a time. A level that diverges
    raises a CommandError with exit code 3 that names its site count.
    """
    base = parse_config(raw_cfg)
    dim = base.grid.dim
    lengths = base.grid.lengths
    base_n = base.grid.sizes[0]
    if len(set(base.grid.sizes)) > 1:
        raise ConfigError("grid.sizes", "every ladder level has n sites per axis, so the "
                          f"axis sizes must be equal, got {list(base.grid.sizes)}")
    level_steps = []
    for n_sites in sizes:
        steps, rest = divmod(base.steps * n_sites, base_n)
        if rest:
            raise ConfigError("ladder.sizes", f"level {n_sites}: {base.steps} steps * "
                              f"{n_sites} / {base_n} sites is not a whole step count")
        if steps < 2:
            raise ConfigError("time.steps", f"level {n_sites} would run {steps} steps; "
                              "each level needs at least 2")
        level_steps.append(steps)
    configs = []
    for n_sites, steps in zip(sizes, level_steps):
        level_cfg = json.loads(json.dumps(raw_cfg))
        level_cfg["grid"]["sizes"] = [int(n_sites)] * dim
        level_cfg["grid"]["spacing"] = [lengths[i] / n_sites for i in range(dim)]
        level_cfg["time"] = {"dt": base.dt * base_n / n_sites, "steps": steps}
        try:
            configs.append(parse_config(level_cfg))
        except ConfigError as exc:
            # the base config parsed, so the level size is at fault
            raise ConfigError("ladder.sizes", f"level {n_sites}: {exc}") from None
    out = []
    for n_sites, cfg in zip(sizes, configs):
        worst = dict.fromkeys(ORDER_KEYS, 0.0)

        def visit(traj, k):
            found = {"variational_residual": dynamics.variational_residual(
                cfg.spec, traj, probes=probes, eps=probe_eps, seed=probe_seed)}
            if 0 < k < traj.steps:
                found.update(dynamics.monitor_row(cfg.spec, traj, k))
            for key, value in found.items():
                worst[key] = float(np.maximum(worst[key], value))  # keeps a NaN

        try:
            dynamics.simulate(cfg, visit)
        except dynamics.DivergenceError as exc:
            raise CommandError(f"ladder level {n_sites} diverged: {exc}", code=3) from None
        except MemoryError:
            raise ConfigError("ladder.sizes",
                              f"level {n_sites}: too many sites to run a step") from None
        out.append({
            "sites": int(n_sites),
            "h": lengths[0] / n_sites,
            "dt": cfg.dt,
            "steps": cfg.steps,
            **worst,
        })
    return out


def convergence_orders(measurements):
    hs = [m["h"] for m in measurements]
    return {key: fit_order(hs, [m[key] for m in measurements]) for key in ORDER_KEYS}


def run_convergence(config_path) -> int:
    raw = _read_config(config_path)
    sizes = read(raw, "ladder.sizes")
    out_dir = read(raw, "output_dir") or os.path.dirname(config_path) or "."
    problem = _make_dir(out_dir)
    if problem:
        raise ConfigError("output_dir", problem)
    measurements = ladder_measurements(raw, sizes)
    orders = convergence_orders(measurements)
    payload = {"measurements": measurements, "orders": orders,
               "threshold": ORDER_THRESHOLD}
    with _writing(out_dir), open(os.path.join(out_dir, "orders.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    ok = True
    for key, order in orders.items():
        passed = order >= ORDER_THRESHOLD
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} order[{key}] = {order:.3f}")
    return 0 if ok else 1


# -- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser, and its subparsers, raise a usage error as a CommandError."""

    def error(self, message):
        raise CommandError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="latspin",
        description="Lattice simulator for reduced spin-system field dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p_sim.add_argument("config")
    p_sim.add_argument("outdir")

    p_ver = sub.add_parser("verify", help="run the property verification suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--sizes", type=int, nargs=2, default=VERIFY_SIZES,
                       metavar=("N1D", "N2D"))

    p_conv = sub.add_parser("convergence", help="run a refinement ladder")
    p_conv.add_argument("config")

    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return run_simulate(args.config, args.outdir)
        if args.command == "verify":
            return run_verify(seed=args.seed, sizes=tuple(args.sizes))
        return run_convergence(args.config)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
