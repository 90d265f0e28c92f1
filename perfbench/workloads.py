"""Seeded workload definitions and the per-run output checks.

Each workload is one `latspin` CLI command on a generated config. The
benchmark seed replaces `init.nu.seed` (seed) and `gamma0.seed` (seed + 1),
or is passed as `verify --seed`; without a seed each workload uses the seeds
of the acceptance suite and the ROADMAP baseline run.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

# 1-D reference run of the acceptance suite (criterion 9's byte-identity run).
CHAIN1D = {
    "grid": {"dim": 1, "sizes": [32], "spacing": [1.0 / 32]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 2, "amplitude": 0.5, "seed": 1}},
    "gamma0": {"profile": "zero"},
    "time": {"dt": 0.001, "steps": 1000},
    "output": {"cadence": 100},
}

# 2-D 64x64 baseline run of the ROADMAP: pure-gauge gamma0, dt 0.002, five snapshots.
FIELD2D = {
    "grid": {"dim": 2, "sizes": [64, 64], "spacing": [1.0 / 64, 1.0 / 64]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 2, "amplitude": 0.5, "seed": 1}},
    "gamma0": {"profile": "pure_gauge", "modes": 2, "amplitude": 0.3, "seed": 2},
    "time": {"dt": 0.002, "steps": 200},
    "output": {"cadence": 50},
}

# LADDER_2D of the acceptance suite, refined over three levels.
LADDER2D = {
    "grid": {"dim": 2, "sizes": [16, 16], "spacing": [1.0 / 16, 1.0 / 16]},
    "group": "SO3",
    "lagrangian": "spin_glass",
    "init": {"nu": {"profile": "fourier", "modes": 1, "amplitude": 0.1, "seed": 22}},
    "gamma0": {"profile": "pure_gauge", "modes": 1, "amplitude": 0.1, "seed": 21},
    "time": {"dt": 0.15 / 16, "steps": 32},
    "ladder": {"sizes": [16, 32, 64]},
}

ENERGY_DRIFT_TOL = 1e-6  # acceptance criterion 7
VERIFY_EXPECTED_FAILS = frozenset(
    {"lagrangian.gauge_invariance.1d", "lagrangian.gauge_invariance.2d"}
)
# Sites x steps of the two background-form simulate calls in `verify` at its
# default sizes (32 sites and 16x16 sites, 6 steps each).
VERIFY_SITE_STEPS = 32 * 6 + 16 * 16 * 6
LADDER_PROBES = 40  # variational-residual probes per level in `latspin convergence`


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # simulate | convergence | verify
    config: dict | None

    def config_for(self, seed: int | None) -> dict | None:
        """The generated config; the seed is all the program sees of the workload."""
        if self.config is None:
            return None
        cfg = copy.deepcopy(self.config)
        if seed is not None:
            cfg["init"]["nu"]["seed"] = seed
            if "seed" in cfg["gamma0"]:
                cfg["gamma0"]["seed"] = seed + 1
        return cfg

    def argv(self, seed: int | None, config_path: str, outdir: str) -> list:
        if self.command == "simulate":
            return ["simulate", config_path, outdir]
        if self.command == "convergence":
            return ["convergence", config_path]
        return ["verify", "--seed", str(0 if seed is None else seed)]

    def site_steps(self) -> int:
        """Sum over the simulated trajectories of sites x steps."""
        if self.command == "verify":
            return VERIFY_SITE_STEPS
        grid = self.config["grid"]
        if self.command == "simulate":
            return math.prod(grid["sizes"]) * self.config["time"]["steps"]
        return sum(n ** grid["dim"] * steps for n, steps in self._ladder_levels())

    def expected_calls(self) -> dict:
        """Exact span call counts of one traced run; a missed binding breaks them."""
        if self.command == "simulate":
            steps = self.config["time"]["steps"]
            return {"dynamics.simulate.calls": 1, "dynamics.aep_rhs.calls": 4 * steps,
                    "fields.reconstruct_step.calls": 2 * steps}
        if self.command == "convergence":
            steps = [s for _, s in self._ladder_levels()]
            # one monitor per interior step; two perturbed action pairs per probe
            return {"dynamics.compatibility_monitor.calls": sum(s - 1 for s in steps),
                    "lagrangian.instantaneous_L.calls": len(steps) * LADDER_PROBES * 4}
        return {"dynamics.simulate.calls": 2}

    def _ladder_levels(self):
        """(sites per axis, steps) per level, as `latspin convergence` derives them."""
        base, steps = self.config["grid"]["sizes"][0], self.config["time"]["steps"]
        return [(n, max(2, round(steps * n / base))) for n in self.config["ladder"]["sizes"]]

    def check(self, exit_code: int, stdout: str, outdir: str) -> tuple:
        """(ok, detail, sha256 of the byte-compared output) for one run."""
        if self.command == "simulate":
            return _check_simulate(exit_code, outdir)
        if self.command == "convergence":
            return _check_convergence(exit_code, outdir)
        return _check_verify(exit_code, stdout)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_simulate(exit_code, outdir):
    if exit_code != 0:
        return False, f"exit {exit_code}, want 0", None
    path = os.path.join(outdir, "series.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    e0, e1 = float(rows[0]["energy"]), float(rows[-1]["energy"])
    drift = abs(e1 - e0) / max(abs(e0), 1e-300)
    ok = drift <= ENERGY_DRIFT_TOL
    return ok, f"energy drift {drift:.3e} (tol {ENERGY_DRIFT_TOL:.0e})", _sha256(path)


def _check_convergence(exit_code, outdir):
    path = os.path.join(outdir, "orders.json")
    with open(path) as fh:
        payload = json.load(fh)
    threshold = payload["threshold"]
    low = {k: v for k, v in payload["orders"].items() if not v >= threshold}
    ok = exit_code == 0 and not low
    detail = f"exit {exit_code}, orders below {threshold}: " + (
        ", ".join(f"{k}={v:.3f}" for k, v in sorted(low.items())) or "none")
    return ok, detail, _sha256(path)


def _check_verify(exit_code, stdout):
    fails, passes = set(), 0
    for line in stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word == "FAIL":
            fails.add(rest.split()[0])
        elif word == "PASS":
            passes += 1
    ok = exit_code == 1 and passes > 0 and fails == VERIFY_EXPECTED_FAILS
    detail = f"exit {exit_code}, {passes} PASS, FAIL {sorted(fails)}"
    return ok, detail, hashlib.sha256(stdout.encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain1d", "simulate", CHAIN1D),
        Workload("field2d", "simulate", FIELD2D),
        Workload("ladder2d", "convergence", LADDER2D),
        Workload("verify", "verify", None),
    )
}
