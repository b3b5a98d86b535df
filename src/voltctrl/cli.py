"""Command-line front end: run scenarios, emit CSV trajectories and reports.

Configuration is a plain-text key = value format (documented in the README);
command-line flags override config values. Exit codes are a stable contract:
0 success and converged, 1 ran but not converged (or validation failed),
2 usage or config error (an unreadable case, config, output path, judged
before the run, or report file among them), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import BUNDLED_CASES, load_case
from .controller import ROWS, Gains, Limits
from .errors import ConfigError, PlantDivergenceError, VoltCtrlError
from .netcase import NetworkCase, parse_case, scale_loads
from .oracle import solve_at
from .powerflow import nominal_injections, solve_power_flow
from .sensitivity import partition_buses, voltage_sensitivity
from .simulate import (
    DailyResult,
    FaultResult,
    PlantMode,
    SimulationResult,
    run_daily,
    run_fault,
    run_static,
)

SCENARIO_KINDS = ("static", "fault", "daily")

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True)
class RunConfig:
    """Fully defaulted run description; unknown config keys are rejected."""

    case_path: str | None = None
    scenario: str = "static"
    plant: PlantMode = PlantMode.NONLINEAR
    v_lo: float = 0.95
    v_hi: float = 1.05
    q_lo: float = -0.2
    q_hi: float = 0.2
    k_q: float = 1.0
    k_lam: float = 1.0
    k_mu: float = 1.0
    load_scale: float = 1.0
    trip: tuple[int, int, float | None] = (4, 5, None)
    profile: tuple[float, ...] | None = None
    out_dir: str = "out"
    tol: float = 1e-6
    horizon: float = 2e5
    hour_seconds: float = 3600.0
    reset_multipliers: bool = False

    def gains(self) -> Gains:
        return Gains(k_q=self.k_q, k_lam=self.k_lam, k_mu=self.k_mu)

    def limits_for(self, case: NetworkCase) -> Limits:
        part = partition_buses(case)
        return Limits.box(
            part.n_load,
            part.n_controlled,
            v_lo=self.v_lo,
            v_hi=self.v_hi,
            q_lo=self.q_lo,
            q_hi=self.q_hi,
        )


def parse_trip(spec: str, where: str = "trip") -> tuple[int, int, float | None]:
    """Parse 'a:b' or 'a:b@t' into (from_bus, to_bus, time or None)."""
    body, sep, at = spec.partition("@")
    t_trip: float | None = None
    if sep:
        t_trip = _parse_float(at, where)
        if t_trip <= 0:
            raise ConfigError(f"{where}: trip time must be positive")
    a, sep, b = body.partition(":")
    if not sep:
        raise ConfigError(f"{where}: expected a:b or a:b@t, got {spec!r}")
    try:
        return int(a), int(b), t_trip
    except ValueError:
        raise ConfigError(f"{where}: bad branch endpoints in {spec!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{where}: value must be finite")
    return value


def _parse_setting(key: str, value: str, where: str) -> tuple[str, object]:
    """Parse one config key's raw value into its ``RunConfig`` field and value."""
    if key == "case":
        return "case_path", value
    if key == "scenario":
        if value not in SCENARIO_KINDS:
            raise ConfigError(f"{where}: scenario must be one of {', '.join(SCENARIO_KINDS)}")
        return "scenario", value
    if key == "plant":
        try:
            return "plant", PlantMode(value)
        except ValueError:
            raise ConfigError(f"{where}: plant must be 'nonlinear' or 'linear'") from None
    if key in ("v_lo", "v_hi", "q_lo", "q_hi"):
        return key, _parse_float(value, where)
    if key == "load_scale":
        scale = _parse_float(value, where)
        if scale < 0:
            raise ConfigError(f"{where}: load_scale must be nonnegative")
        return "load_scale", scale
    if key == "trip":
        return "trip", parse_trip(value, where)
    if key == "profile":
        factors = tuple(_parse_float(p.strip(), where) for p in value.split(","))
        if len(factors) != 24:
            raise ConfigError(
                f"{where}: profile needs 24 comma-separated factors, got {len(factors)}"
            )
        if min(factors) < 0:
            raise ConfigError(f"{where}: profile factors must be nonnegative")
        return "profile", factors
    if key == "out":
        return "out_dir", value
    if key in ("k_q", "k_lam", "k_mu", "tol", "horizon", "hour_seconds"):
        number = _parse_float(value, where)
        if number <= 0:
            raise ConfigError(f"{where}: {key} must be positive")
        return key, number
    if key == "reset_multipliers":
        return key, _parse_bool(value, where)
    raise ConfigError(f"{where}: unknown key {key!r}")


# the config keys each subcommand reads; run reads every key
_CASE_KEYS = ("case", "load_scale")
_COMMAND_KEYS = {
    "powerflow": _CASE_KEYS,
    "sensitivity": _CASE_KEYS,
    "validate": _CASE_KEYS
    + ("v_lo", "v_hi", "q_lo", "q_hi", "k_q", "k_lam", "k_mu", "tol", "horizon"),
}


def parse_config(text: str, command: str = "run") -> RunConfig:
    """Parse the plain key = value config format for one subcommand.

    Unknown keys are errors, and so are keys that ``command`` does not read.
    """
    reads = _COMMAND_KEYS.get(command)
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        field, parsed = _parse_setting(key, value.strip(), f"line {lineno}")
        if reads is not None and key not in reads:
            raise ConfigError(f"line {lineno}: {command} does not read {key!r}")
        fields[field] = parsed
    cfg = replace(RunConfig(), **fields)
    if cfg.v_lo >= cfg.v_hi:
        raise ConfigError("v_lo must be below v_hi")
    if cfg.q_lo >= cfg.q_hi:
        raise ConfigError("q_lo must be below q_hi")
    return cfg


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file named on the command line or in a config.

    A missing, unreadable or undecodable file is a :class:`ConfigError`.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def load_network(cfg: RunConfig) -> NetworkCase:
    """Resolve the configured case: bundled name or file path, then scale."""
    if cfg.case_path is None:
        raise ConfigError("no case given; use --case or case = <path> in the config")
    if cfg.case_path in BUNDLED_CASES:
        case = load_case(cfg.case_path)
    else:
        case = parse_case(_read_text(cfg.case_path, "case file"), name=Path(cfg.case_path).stem)
    if cfg.load_scale != 1.0:
        case = scale_loads(case, cfg.load_scale)
    return case


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def emit_report(
    result: SimulationResult, case: NetworkCase, limits: Limits, out_dir
) -> list[Path]:
    """Write trajectory.csv, voltages_before_after.txt, and summary.txt.

    The "before" voltages are the uncontrolled flow's: of ``case`` as
    configured for a static run, and intact for a fault run, whose "after"
    row is the tripped network's; of the last hour for a daily run, whose
    flow the run solved. A daily run's out-of-band hours are counted
    against ``limits``, the band the run used.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc}") from None
    part = partition_buses(case)
    pq_ids = [case.buses[i].id for i in part.pq]
    ctl_ids = [case.buses[i].id for i in part.controlled]

    header = (
        ["t"]
        + [f"q_{b}" for b in ctl_ids]
        + [f"v_{b}" for b in pq_ids]
        + ["lam_norm", "mu_norm", "cost"]
    )
    traj = result.trajectory
    # one packed row per sample: q, then the multipliers of each family in ``ROWS``
    packed, c = traj.y, part.n_controlled
    families = limits.families(packed[:, c:])
    lam_hi, lam_lo, mu_hi, mu_lo = (np.max(f, axis=1, initial=0.0) for f in families)
    norms = np.maximum(lam_hi, lam_lo), np.maximum(mu_hi, mu_lo)
    table = np.column_stack((traj.t, packed[:, :c], traj.v, *norms, traj.cost))
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in table]

    if isinstance(result, DailyResult):
        # the last hour's uncontrolled flow, which the run solved, at the regulated setpoints
        before = result.final_v.copy()
        before[part.pq] = result.uncontrolled_v[-1]
    else:
        bare = solve_power_flow(case, nominal_injections(case))
        if not bare.converged:
            raise VoltCtrlError("uncontrolled power flow failed while writing the report")
        before = bare.v
    ids = [b.id for b in case.buses]
    rows = [
        "bus    " + " ".join(f"{b:>7d}" for b in ids),
        "before " + " ".join(f"{v:7.4f}" for v in before),
        "after  " + " ".join(f"{v:7.4f}" for v in result.final_v),
    ]

    # each multiplier of the final packed row against its constraint and bus
    buses = (pq_ids, pq_ids, ctl_ids, ctl_ids)
    binding = [f"{name} @ bus {bus}" for name, ids, family in zip(ROWS, buses, families)
               for bus, x in zip(ids, family[-1]) if x > 1e-6]
    viol, st = result.violations, result.stats
    summary = [
        f"converged: {'yes' if result.converged else 'no'}",
        f"final residual: {result.final_residual:.6e}",
        f"final cost: {traj.cost[-1]:.6f}",
        "binding constraints: " + (", ".join(binding) if binding else "none"),
        f"max violation v below: {viol.max_v_below:.6e}",
        f"max violation v above: {viol.max_v_above:.6e}",
        f"max violation q below: {viol.max_q_below:.6e}",
        f"max violation q above: {viol.max_q_above:.6e}",
        f"min multiplier: {viol.min_multiplier:.6e}",
        f"solver: {st.accepted} accepted steps, {st.attempts - st.accepted} rejected attempts "
        f"(error test {st.error_test}, crossing {st.crossing}, entering {st.entering}, "
        f"plant divergence {st.plant_divergence}), "
        f"{st.plant_calls} plant calls, {st.phi_products} phi-products "
        f"({st.landing_products} to land events)",
    ]
    if isinstance(result, FaultResult):
        summary += [
            f"pre-trip cost: {result.pre_cost:.6f}",
            f"post-trip cost: {result.post_cost:.6f}",
            f"cost ratio: {result.cost_ratio:.4f}",
        ]
    if isinstance(result, DailyResult):
        lo, hi = limits.v_lo, limits.v_hi
        unc = result.uncontrolled_v
        out_unc = int(
            np.sum((unc < lo - 1e-9).any(axis=1) | (unc > hi + 1e-9).any(axis=1))
        )
        ctl = result.hourly_final_v
        out_ctl = int(
            np.sum((ctl < lo - 1e-3).any(axis=1) | (ctl > hi + 1e-3).any(axis=1))
        )
        summary += [
            f"hours out of band uncontrolled: {out_unc}",
            f"hours out of band controlled: {out_ctl}",
        ]
    files = {"trajectory.csv": lines, "voltages_before_after.txt": rows, "summary.txt": summary}
    for name, text in files.items():
        try:
            (out / name).write_text("\n".join(text) + "\n", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report file {out / name}: {exc}") from None
    return [out / name for name in files]


def _cmd_run(cfg: RunConfig) -> int:
    # the output path is judged before the run, making nothing: emit_report makes the directory
    out = Path(cfg.out_dir)
    near = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not (os.path.isdir(near) and os.access(near, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot use output directory {out}: {near} is not a writable directory")
    case = load_network(cfg)
    limits = cfg.limits_for(case)
    gains = cfg.gains()
    if cfg.scenario == "static":
        result: SimulationResult = run_static(
            case,
            limits,
            gains,
            tol=cfg.tol,
            plant_mode=cfg.plant,
            horizon=cfg.horizon,
        )
    elif cfg.scenario == "fault":
        a, b, t_trip = cfg.trip
        result = run_fault(
            case,
            limits,
            gains,
            trip=(a, b),
            t_trip=t_trip,
            tol=cfg.tol,
            plant_mode=cfg.plant,
            horizon=cfg.horizon,
        )
    else:
        result = run_daily(
            case,
            limits,
            gains,
            profile=cfg.profile,
            tol=cfg.tol,
            plant_mode=cfg.plant,
            hour_seconds=cfg.hour_seconds,
            reset_multipliers=cfg.reset_multipliers,
        )
    paths = emit_report(result, case, limits, cfg.out_dir)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    print(
        f"converged: {'yes' if result.converged else 'no'}  "
        f"residual: {result.final_residual:.3e}  cost: {result.trajectory.cost[-1]:.6f}"
    )
    if isinstance(result, FaultResult):
        print(
            f"pre-trip cost {result.pre_cost:.6f}  post-trip cost {result.post_cost:.6f}"
            f"  ratio {result.cost_ratio:.4f}"
        )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_powerflow(cfg: RunConfig) -> int:
    case = load_network(cfg)
    sol = solve_power_flow(case, nominal_injections(case))
    print(f"converged: {'yes' if sol.converged else 'no'}  iterations: {sol.iterations}")
    print(f"max mismatch: {sol.max_mismatch:.3e}")
    print("bus  magnitude  angle_deg")
    for i, bus in enumerate(case.buses):
        print(f"{bus.id:>3d}  {sol.v[i]:9.4f}  {np.degrees(sol.delta[i]):9.4f}")
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def _cmd_sensitivity(cfg: RunConfig) -> int:
    case = load_network(cfg)
    part = partition_buses(case)
    if part.n_load == 0:
        raise ConfigError(f"case {case.name} has no load bus")
    sens = voltage_sensitivity(case.topology.y, part)
    x = sens.x
    sym = float(np.max(np.abs(x - x.T)))
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (x + x.T))))
    pq_ids = [case.buses[i].id for i in part.pq]
    print(f"load buses: {len(pq_ids)}  controlled: {part.n_controlled}")
    print(f"symmetry error: {sym:.3e}")
    print(f"min eigenvalue: {eigmin:.6e}")
    print("bus  dv/dq_self")
    for pos, b in enumerate(pq_ids):
        print(f"{b:>3d}  {x[pos, pos]:10.6f}")
    return EXIT_OK


def _cmd_validate(cfg: RunConfig) -> int:
    case = load_network(cfg)
    limits = cfg.limits_for(case)
    try:
        qp, _, _ = solve_at(case, limits)
    except PlantDivergenceError as exc:
        raise PlantDivergenceError(f"{exc} at the base point") from exc
    res = run_static(
        case, limits, cfg.gains(), tol=cfg.tol, plant_mode=PlantMode.LINEAR,
        horizon=cfg.horizon,
    )
    q, v = res.final_q, res.trajectory.v[-1]
    dq = float(np.max(np.abs(q - qp.q_star)))
    slack = -limits.violation(v, q)
    # the last packed row's multipliers, in the order of the slacks
    comp = float(np.max(np.abs(res.trajectory.y[-1, len(q) :] * slack)))
    checks = [
        ("controller converged", 1.0 if res.converged else 0.0, 0.5, "above"),
        ("|q_sim - q_oracle| inf norm", dq, 1e-4, "below"),
        ("max complementarity product", comp, 1e-4, "below"),
        ("oracle kkt residual", qp.kkt_residual, 1e-8, "below"),
    ]
    print(f"{'check':<32} {'value':>12} {'threshold':>12}  status")
    all_ok = True
    for name, value, threshold, sense in checks:
        ok = value > threshold if sense == "above" else value < threshold
        all_ok = all_ok and ok
        print(f"{name:<32} {value:>12.3e} {threshold:>12.3e}  {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltctrl",
        description="Distributed feedback voltage control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--case", help="bundled case name or case file path")
    common.add_argument("--scale", help="uniform load scale factor")
    run_p = sub.add_parser("run", parents=[common], help="run a closed-loop scenario")
    run_p.add_argument("--out", help="output directory for reports")
    run_p.add_argument("--plant", help="plant model for the loop: nonlinear or linear")
    run_p.add_argument("--trip", help="branch trip spec a:b or a:b@t")
    run_p.add_argument("--scenario", help="scenario family: static, fault or daily")
    sub.add_parser("powerflow", parents=[common], help="solve and print a power flow")
    sub.add_parser("sensitivity", parents=[common], help="print sensitivity matrix info")
    sub.add_parser("validate", parents=[common], help="compare dynamics to the QP oracle")
    return parser


_FLAG_KEYS = {
    "case": "case",
    "out": "out",
    "plant": "plant",
    "scale": "load_scale",
    "trip": "trip",
    "scenario": "scenario",
}


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Override config values with flags, each parsed as its config key."""
    updates: dict[str, object] = {}
    for flag, key in _FLAG_KEYS.items():
        raw = getattr(args, flag, None)
        if raw is not None:
            field, value = _parse_setting(key, raw, f"--{flag}")
            updates[field] = value
    return replace(cfg, **updates)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig()
        if args.config is not None:
            cfg = parse_config(_read_text(args.config, "config file"), args.command)
        cfg = _merge_flags(cfg, args)
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "powerflow":
            return _cmd_powerflow(cfg)
        if args.command == "sensitivity":
            return _cmd_sensitivity(cfg)
        return _cmd_validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VoltCtrlError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
