"""Experiment harness: config parsing, subcommands and CSV/manifest output.

Config files are line-based ``key = value`` with ``#`` comments; command-line
flags override file values.  Outputs are plain CSV plus a text manifest that
records every value affecting the run (including derived quadrature
factors), so reruns with the same config are byte-identical.  ``initial_data``
specs are parsed in one place, :func:`_parse_initial`, for validation and for
every subcommand.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis, initial, kernel, profile, scheme
from .flux import FluxKind
from .grid import GridFunction, make_grid, mass, norm, project_initial
from .scheme import CorrectorMode, PhysicalParams, SchemeConfig, SolverAbort

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "main"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    nu: float = 1e-2
    c: float = 2e-2
    theta: float = 1.0
    dx: float = 0.1
    x_left: float = -160.0
    x_right: float = 160.0
    flux: str = "eo"
    corrector_mode: str = "corrected"
    tail_tol: float = kernel.DEFAULT_TAIL_TOL
    safety: float = 0.9
    dt_max: float = scheme.DEFAULT_DT_MAX
    t_end: float = 1e4
    snapshot_times: tuple[float, ...] = (1e2, 1e3, 1e4)
    initial_data: str = "sines"
    seed: int = 0
    output_dir: str = "out"

    def items(self) -> list[tuple[str, str]]:
        """Canonical (key, rendered value) pairs, in field order."""
        out = []
        for f in fields(self):
            out.append((f.name, _render(getattr(self, f.name))))
        return out


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(format(v, ".17g") for v in value)
    return str(value)


def _parse_float(key, raw, lo=None, hi=None, lo_open=False, hi_open=False):
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} = {raw!r}: expected a number") from None
    if math.isnan(val):
        raise ConfigError(f"{key} = {raw!r}: NaN is not allowed")
    if lo is not None and (val < lo or (lo_open and val == lo)):
        raise ConfigError(
            f"{key} = {raw!r}: must be {'>' if lo_open else '>='} {lo}"
        )
    if hi is not None and (val > hi or (hi_open and val == hi)):
        raise ConfigError(
            f"{key} = {raw!r}: must be {'<' if hi_open else '<='} {hi}"
        )
    return val


def _parse_snapshot_times(raw) -> tuple[float, ...]:
    if isinstance(raw, tuple):
        return raw
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    try:
        times = tuple(sorted(float(p) for p in parts))
    except ValueError:
        raise ConfigError(
            f"snapshot_times = {raw!r}: expected comma-separated numbers"
        ) from None
    return times


def _parse_initial(spec: str):
    """Parse an ``initial_data`` spec into ``(canonical rendering, datum)``.

    The datum is a function of x for ``sines``, ``gaussian`` and ``boxpair``
    and the path string for ``file:PATH``, whose values are bound to one grid.
    """
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "sines":
        if rest:
            raise ConfigError("initial_data = sines takes no arguments")
        return "sines", initial.sine_bumps()
    if head == "gaussian":
        args = [a.strip() for a in rest.split(",")]
        if len(args) != 2:
            raise ConfigError(
                f"initial_data = {spec!r}: expected gaussian:MASS,WIDTH"
            )
        m, w = (_parse_float("initial_data(gaussian)", a) for a in args)
        if not w > 0.0:
            raise ConfigError(f"initial_data = {spec!r}: width must be > 0")
        return f"gaussian:{_render(m)},{_render(w)}", initial.gaussian(m, w)
    if head == "boxpair":
        args = [a.strip() for a in rest.split(",")]
        if len(args) != 6:
            raise ConfigError(
                f"initial_data = {spec!r}: expected boxpair:H1,A1,B1,H2,A2,B2"
            )
        vals = [_parse_float("initial_data(boxpair)", a) for a in args]
        datum = initial.box_pair(*vals)  # raises on bad intervals
        return "boxpair:" + ",".join(_render(v) for v in vals), datum
    if head == "file":
        if not rest:
            raise ConfigError("initial_data = file: needs a path, file:PATH")
        return f"file:{rest}", rest
    raise ConfigError(
        f"initial_data = {spec!r}: expected sines, gaussian:M,W, "
        "boxpair:H1,A1,B1,H2,A2,B2 or file:PATH"
    )


_KNOWN_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def parse_config(text: str = "", overrides: dict | None = None) -> ExperimentConfig:
    """Parse a ``key = value`` document, apply overrides, validate everything.

    Unknown keys, malformed values and out-of-range values raise
    :class:`ConfigError` naming the offending key and the accepted range.
    """
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown key {key!r} (line {lineno}); known keys: "
                + ", ".join(_KNOWN_KEYS)
            )
        raw[key] = value.strip()
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}; known keys: " + ", ".join(_KNOWN_KEYS))
        raw[key] = value

    cfg = ExperimentConfig()
    out: dict[str, object] = {}
    if "nu" in raw:
        out["nu"] = _parse_float("nu", raw["nu"], lo=0.0)
    if "c" in raw:
        out["c"] = _parse_float("c", raw["c"], lo=0.0)
    if "theta" in raw:
        out["theta"] = _parse_float("theta", raw["theta"], lo=0.0, lo_open=True)
    if "dx" in raw:
        out["dx"] = _parse_float("dx", raw["dx"], lo=0.0, lo_open=True)
    if "x_left" in raw:
        out["x_left"] = _parse_float("x_left", raw["x_left"])
    if "x_right" in raw:
        out["x_right"] = _parse_float("x_right", raw["x_right"])
    if "flux" in raw:
        val = str(raw["flux"]).strip().lower()
        if val not in ("eo", "mlf"):
            raise ConfigError(f"flux = {raw['flux']!r}: must be 'eo' or 'mlf'")
        out["flux"] = val
    if "corrector_mode" in raw:
        val = str(raw["corrector_mode"]).strip().lower()
        if val not in ("corrected", "naive"):
            raise ConfigError(
                f"corrector_mode = {raw['corrector_mode']!r}: must be "
                "'corrected' or 'naive'"
            )
        out["corrector_mode"] = val
    if "tail_tol" in raw:
        out["tail_tol"] = _parse_float(
            "tail_tol", raw["tail_tol"], lo=0.0, hi=1.0, lo_open=True, hi_open=True
        )
    if "safety" in raw:
        out["safety"] = _parse_float(
            "safety", raw["safety"], lo=0.0, hi=1.0, lo_open=True
        )
    if "dt_max" in raw:
        out["dt_max"] = _parse_float("dt_max", raw["dt_max"], lo=0.0, lo_open=True)
    if "t_end" in raw:
        out["t_end"] = _parse_float("t_end", raw["t_end"], lo=0.0)
    if "snapshot_times" in raw:
        out["snapshot_times"] = _parse_snapshot_times(raw["snapshot_times"])
    if "initial_data" in raw:
        out["initial_data"] = _parse_initial(str(raw["initial_data"]))[0]
    if "seed" in raw:
        try:
            out["seed"] = int(str(raw["seed"]), 0)
        except ValueError:
            raise ConfigError(f"seed = {raw['seed']!r}: expected an integer") from None
    if "output_dir" in raw:
        out["output_dir"] = str(raw["output_dir"])

    cfg = replace(cfg, **out)

    if not cfg.nu + cfg.c > 0.0:
        raise ConfigError(f"nu + c must be positive, got nu = {cfg.nu}, c = {cfg.c}")
    if not cfg.x_left < cfg.x_right:
        raise ConfigError(
            f"x_left = {cfg.x_left} must be smaller than x_right = {cfg.x_right}"
        )
    span = cfg.x_right - cfg.x_left
    if round(span / cfg.dx) < 2:
        raise ConfigError(f"dx = {cfg.dx}: fewer than 2 cells span the domain")
    for t in cfg.snapshot_times:
        if t <= 0.0 or t > cfg.t_end:
            raise ConfigError(
                f"snapshot_times entry {t!r} outside (0, t_end = {cfg.t_end}]"
            )
    return cfg


# ---------------------------------------------------------------------------
# experiment setup


def _build_initial(config: ExperimentConfig, grid) -> GridFunction:
    _, datum = _parse_initial(config.initial_data)
    if isinstance(datum, str):
        return initial.from_file(datum, grid)
    return project_initial(datum, grid)


def _build_setup(config: ExperimentConfig, flux: str | None = None,
                 corrector: str | None = None):
    grid = make_grid(config.x_left, config.x_right, config.dx)
    n_terms = kernel.choose_n(config.dx, config.theta, config.tail_tol)
    quad = kernel.build(config.dx, config.theta, n_terms)
    params = PhysicalParams(nu=config.nu, c=config.c, theta=config.theta)
    scheme_config = SchemeConfig(
        flux=FluxKind((flux or config.flux)),
        quadrature=quad,
        corrector_mode=CorrectorMode((corrector or config.corrector_mode)),
        grid=grid,
    )
    return grid, quad, params, scheme_config


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _config_hash(config: ExperimentConfig) -> str:
    # output_dir is where results land, not what they are; keep it out of
    # the content identity so runs agree byte-for-byte across destinations.
    text = "\n".join(
        f"{k} = {v}" for k, v in config.items() if k != "output_dir"
    )
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _write_manifest(path: str, config: ExperimentConfig, extra: dict) -> None:
    entries = {k: v for k, v in config.items() if k != "output_dir"}
    entries["config_hash"] = _config_hash(config)
    for k, v in extra.items():
        entries[k] = _render(v) if not isinstance(v, str) else v
    with open(path, "w", encoding="utf-8") as fh:
        for k in sorted(entries):
            fh.write(f"{k} = {entries[k]}\n")


def _snapshot_rows(record: scheme.RunRecord):
    for t, u in record.snapshots:
        centers = u.grid.cell_centers
        for x, v in zip(centers, u.values):
            yield (t, x, v)


def _run_extras(record: scheme.RunRecord) -> dict:
    keep = (
        "n_terms",
        "moment0",
        "moment1",
        "moment2",
        "stability_sum",
        "dt_policy",
        "aborted",
        "boundary_warning",
    )
    return {k: record.manifest[k] for k in keep if k in record.manifest}


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(config: ExperimentConfig) -> int:
    grid, quad, params, scheme_config = _build_setup(config)
    u0 = _build_initial(config, grid)
    os.makedirs(config.output_dir, exist_ok=True)
    record = scheme.run(
        u0,
        params,
        scheme_config,
        t_end=config.t_end,
        snapshot_times=config.snapshot_times,
        safety=config.safety,
        dt_max=config.dt_max,
    )
    _write_csv(
        os.path.join(config.output_dir, "snapshots.csv"),
        ["t", "x", "u"],
        _snapshot_rows(record),
    )
    _write_csv(
        os.path.join(config.output_dir, "norms.csv"),
        ["t", "l1", "l2", "linf", "mass"],
        ((r.t, r.l1, r.l2, r.linf, r.mass_after) for r in record.step_reports),
    )
    _write_manifest(
        os.path.join(config.output_dir, "manifest.txt"), config, _run_extras(record)
    )
    if record.aborted:
        print("run aborted: non-finite state; last good snapshot kept", file=sys.stderr)
        return 1
    return 0


_RATE_VARIANTS = (
    ("eo_corrected", "eo", "corrected"),
    ("mlf_corrected", "mlf", "corrected"),
    ("eo_naive", "eo", "naive"),
)


def _rates_time_grid(t_end: float) -> list[float]:
    if not t_end > 0.0:
        raise ConfigError(f"t_end must be positive for rates, got {t_end}")
    t_lo = t_end / 100.0
    n_pts = int(round(20.0 * math.log10(t_end / t_lo))) + 1
    return [float(t) for t in np.geomspace(t_lo, t_end, n_pts)]


def cmd_rates(config: ExperimentConfig) -> int:
    grid, quad, params, _ = _build_setup(config)
    u0 = _build_initial(config, grid)
    times = _rates_time_grid(config.t_end)
    total_mass = mass(u0)
    wave = profile.AsymptoticProfile(
        mass=total_mass,
        viscosity=profile.effective_viscosity(config.nu, config.c, quad.moment2),
    )
    os.makedirs(config.output_dir, exist_ok=True)

    rows = []
    extras: dict = {"profile_mass": total_mass, "profile_viscosity": wave.viscosity}
    aborted = False
    for name, flux, corrector in _RATE_VARIANTS:
        _, _, _, scheme_config = _build_setup(config, flux=flux, corrector=corrector)
        record = scheme.run(
            u0,
            params,
            scheme_config,
            t_end=config.t_end,
            snapshot_times=times,
            safety=config.safety,
            dt_max=config.dt_max,
            report_every=100,
        )
        aborted = aborted or record.aborted
        extras[f"{name}_aborted"] = record.aborted
        # The wave is singular at t = 0, so only later snapshots are compared.
        later = replace(record, snapshots=[s for s in record.snapshots if s[0] > 0.0])
        for p, label in ((1.0, "1"), (2.0, "2"), (math.inf, "inf")):
            series = analysis.scaled_profile_error(later, wave, p)
            for t, value in zip(series.times, series.values):
                rows.append((t, name, label, value))
        extras.update({f"{name}_{k}": v for k, v in _run_extras(record).items()
                       if k == "n_terms"})
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(
        os.path.join(config.output_dir, "rates.csv"),
        ["t", "variant", "p", "scaled_error"],
        rows,
    )
    extras.update({"n_terms": quad.n_terms, "moment0": quad.moment0,
                   "moment1": quad.moment1, "moment2": quad.moment2})
    _write_manifest(os.path.join(config.output_dir, "manifest.txt"), config, extras)
    return 1 if aborted else 0


# Physical parameters of the small-coefficient wave-shape comparison.
_NWAVE_NU = 1e-4
_NWAVE_C = 2e-4
_NWAVE_T_END = 100.0


def cmd_nwave(config: ExperimentConfig) -> int:
    config = replace(
        config, nu=_NWAVE_NU, c=_NWAVE_C, t_end=_NWAVE_T_END, snapshot_times=()
    )
    grid, quad, params, _ = _build_setup(config)
    u0 = _build_initial(config, grid)
    os.makedirs(config.output_dir, exist_ok=True)
    extras: dict = {"n_terms": quad.n_terms, "moment0": quad.moment0,
                    "moment1": quad.moment1, "moment2": quad.moment2}
    diag_rows = []
    aborted = False
    for name, flux in (("eo", "eo"), ("mlf", "mlf")):
        _, _, _, scheme_config = _build_setup(config, flux=flux)
        record = scheme.run(
            u0,
            params,
            scheme_config,
            t_end=config.t_end,
            safety=config.safety,
            dt_max=config.dt_max,
            report_every=10,
        )
        aborted = aborted or record.aborted
        t_final, u_final = record.snapshots[-1]
        _write_csv(
            os.path.join(config.output_dir, f"snapshots_{name}.csv"),
            ["t", "x", "u"],
            ((t_final, x, v) for x, v in zip(grid.cell_centers, u_final.values)),
        )
        d = analysis.n_wave_diagnostic(u_final)
        diag_rows.append(
            (name, d.min, d.max, d.positive_mass, d.negative_mass, mass(u_final))
        )
        extras[f"{name}_aborted"] = record.aborted
    _write_csv(
        os.path.join(config.output_dir, "nwave_diagnostics.csv"),
        ["variant", "min", "max", "positive_mass", "negative_mass", "mass"],
        diag_rows,
    )
    _write_manifest(os.path.join(config.output_dir, "manifest.txt"), config, extras)
    return 1 if aborted else 0


def cmd_selfconv(config: ExperimentConfig, dx_list: str, t_check: float) -> int:
    _, init = _parse_initial(config.initial_data)
    if isinstance(init, str):
        raise ConfigError(
            "selfconv needs a functional initial_data (file: data is bound to "
            "one grid)"
        )
    try:
        dxs = [float(p) for p in dx_list.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"--dx-list {dx_list!r}: expected comma-separated numbers")
    params = PhysicalParams(nu=config.nu, c=config.c, theta=config.theta)
    results = analysis.self_convergence(
        params,
        init,
        config.x_left,
        config.x_right,
        dxs,
        t_check,
        flux=FluxKind(config.flux),
        corrector_mode=CorrectorMode(config.corrector_mode),
        tail_tol=config.tail_tol,
        safety=config.safety,
        dt_max=config.dt_max,
    )
    os.makedirs(config.output_dir, exist_ok=True)
    rows = []
    prev = None
    for (dx_fine, dx_coarse), diff in results:
        ratio = "" if prev in (None, 0.0) else _fmt(diff / prev)
        rows.append((dx_fine, dx_coarse, diff, ratio))
        prev = diff
    _write_csv(
        os.path.join(config.output_dir, "selfconv.csv"),
        ["dx_fine", "dx_coarse", "l1_diff", "ratio"],
        rows,
    )
    _write_manifest(
        os.path.join(config.output_dir, "manifest.txt"),
        config,
        {"dx_list": dx_list, "t_check": t_check},
    )
    return 0


def cmd_profile(config: ExperimentConfig, continuum: bool) -> int:
    grid, quad, params, _ = _build_setup(config)
    u0 = _build_initial(config, grid)
    total_mass = mass(u0)
    a = profile.effective_viscosity(
        config.nu, config.c, None if continuum else quad.moment2
    )
    wave = profile.AsymptoticProfile(mass=total_mass, viscosity=a)
    times = config.snapshot_times or (config.t_end,)
    os.makedirs(config.output_dir, exist_ok=True)
    rows = []
    for t in times:
        sample = profile.sample_on_grid(wave, grid, t)
        rows.extend(
            (t, x, v) for x, v in zip(grid.cell_centers, sample.values)
        )
    _write_csv(os.path.join(config.output_dir, "profile.csv"), ["t", "x", "u"], rows)
    _write_manifest(
        os.path.join(config.output_dir, "manifest.txt"),
        config,
        {
            "profile_mass": total_mass,
            "profile_viscosity": a,
            "viscosity_mode": "continuum" if continuum else "discrete",
            "n_terms": quad.n_terms,
            "moment2": quad.moment2,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# property-check suites (seeded, replayable)


def _random_interior_state(rng, n=160, dx=0.25, margin=60, amp=0.4):
    grid = make_grid(0.0, n * dx, dx)
    vals = np.zeros(n)
    interior = n - 2 * margin
    vals[margin : margin + interior] = amp * (2.0 * rng.random(interior) - 1.0)
    return GridFunction(grid, vals)


def _random_params(rng) -> PhysicalParams:
    nu = float(rng.uniform(0.0, 0.05))
    c = float(rng.uniform(0.0, 0.05))
    if nu + c < 1e-3:
        nu = 0.01
    return PhysicalParams(nu=nu, c=c, theta=float(rng.uniform(0.5, 2.0)))


def _setup_for_case(rng, tail_tol=1e-6, extra_margin=4):
    # The memory term spreads support rightward roughly one kernel width per
    # step, so exact-conservation checks need extra_margin > steps taken.
    params = _random_params(rng)
    dx = 0.25
    n_terms = kernel.choose_n(dx, params.theta, tail_tol)
    margin = n_terms + extra_margin
    state = _random_interior_state(rng, margin=margin, n=2 * margin + 40)
    quad = kernel.build(dx, params.theta, n_terms)
    config = SchemeConfig(
        flux=FluxKind.ENGQUIST_OSHER,
        quadrature=quad,
        corrector_mode=CorrectorMode.CORRECTED,
        grid=state.grid,
    )
    return params, config, state


def _check_kernel_closed_forms(case) -> tuple[bool, str]:
    dx, theta, n = case["dx"], case["theta"], case["n"]
    quad = kernel.build(dx, theta, n)
    cf0 = kernel.closed_form_moment0(dx, theta, n)
    cf1 = kernel.closed_form_moment1(dx, theta, n)
    err0 = abs(quad.moment0 - cf0) / abs(cf0)
    err1 = abs(quad.moment1 - cf1) / max(abs(cf1), 1e-300)
    ok = err0 <= 1e-13 and err1 <= 1e-13
    return ok, f"rel errors {err0:.3e}, {err1:.3e}"


def _gen_kernel_closed_forms(rng, count):
    for _ in range(count):
        yield {
            "dx": float(rng.uniform(1e-3, 1.0)),
            "theta": float(rng.uniform(0.1, 5.0)),
            "n": int(rng.integers(1, 400)),
        }


def _check_mass_conservation(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, state0 = _setup_for_case(rng, tail_tol=1e-10, extra_margin=30)
    st = scheme.SolverState(0.0, state0)
    m0 = mass(st.u)
    worst = 0.0
    for _ in range(25):
        dt = scheme.stable_dt(st, params, config, safety=0.9)
        st, report = scheme.step_euler(st, params, config, dt)
        worst = max(worst, abs(report.mass_after - m0))
    ok = worst <= 1e-12 * max(1.0, abs(m0))
    return ok, f"max drift {worst:.3e}"


def _check_l1_contraction(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, u = _setup_for_case(rng)
    v = GridFunction(u.grid, u.values * float(rng.uniform(0.2, 0.9)))
    su, sv = scheme.SolverState(0.0, u), scheme.SolverState(0.0, v)
    dist = norm(GridFunction(u.grid, su.u.values - sv.u.values), 1)
    ok = True
    worst = 0.0
    for _ in range(25):
        dt = min(
            scheme.stable_dt(su, params, config, safety=0.9),
            scheme.stable_dt(sv, params, config, safety=0.9),
        )
        su, _ = scheme.step_euler(su, params, config, dt)
        sv, _ = scheme.step_euler(sv, params, config, dt)
        new = norm(GridFunction(u.grid, su.u.values - sv.u.values), 1)
        if new > dist + 1e-12:
            ok = False
        worst = max(worst, new - dist)
        dist = new
    return ok, f"max per-step growth {worst:.3e}"


def _check_lp_monotone(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, state0 = _setup_for_case(rng)
    st = scheme.SolverState(0.0, state0)
    prev = (norm(st.u, 1), norm(st.u, 2), norm(st.u, math.inf))
    ok = True
    for _ in range(25):
        dt = scheme.stable_dt(st, params, config, safety=0.9)
        st, report = scheme.step_euler(st, params, config, dt)
        cur = (report.l1, report.l2, report.linf)
        if any(c > p + 1e-12 for c, p in zip(cur, prev)):
            ok = False
        prev = cur
    return ok, "L1/L2/Linf nonincreasing" if ok else "norm increased"


def _check_order_preservation(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    params, config, u = _setup_for_case(rng)
    bump = np.zeros_like(u.values)
    k = u.grid.num_cells // 2
    bump[k - 20 : k + 20] = 0.2 * rng.random(40)
    v = GridFunction(u.grid, u.values + bump)
    su, sv = scheme.SolverState(0.0, u), scheme.SolverState(0.0, v)
    worst = 0.0
    for _ in range(25):
        dt = min(
            scheme.stable_dt(su, params, config, safety=0.9),
            scheme.stable_dt(sv, params, config, safety=0.9),
        )
        su, _ = scheme.step_euler(su, params, config, dt)
        sv, _ = scheme.step_euler(sv, params, config, dt)
        worst = max(worst, float((su.u.values - sv.u.values).max(initial=0.0)))
    ok = worst <= 1e-12
    return ok, f"max ordering violation {worst:.3e}"


def _gen_seeded(rng, count):
    for _ in range(count):
        yield {"case_seed": int(rng.integers(0, 2**63 - 1))}


def _check_gns(case) -> tuple[bool, str]:
    rng = np.random.default_rng(case["case_seed"])
    n = int(rng.integers(3, 201))
    dx = float(rng.uniform(0.01, 1.0))
    vals = 2.0 * rng.random(n) - 1.0
    if not np.any(vals):
        vals[0] = 0.5
    w = GridFunction(make_grid(0.0, n * dx, dx), vals)
    res = analysis.gns_inequality_check(w, case["p"])
    return res.holds, f"lhs {res.lhs:.3e} vs rhs {res.rhs:.3e}"


def _gen_gns(rng, count):
    for _ in range(count):
        yield {
            "case_seed": int(rng.integers(0, 2**63 - 1)),
            "p": float(rng.choice([2.0, 3.0, 4.0])),
        }


def _check_series(case) -> tuple[bool, str]:
    res = analysis.series_lemma_check(case["a"], case["phi"], case["n"])
    return res.holds, f"lhs {res.lhs:.3e} vs rhs {res.rhs:.3e}"


def _gen_series(rng, count):
    for _ in range(count):
        yield {
            "a": float(rng.uniform(0.01, 0.99)),
            "phi": float(rng.uniform(-math.pi, math.pi)),
            "n": int(rng.integers(1, 101)),
        }


def _check_profile_mass(case) -> tuple[bool, str]:
    from scipy.integrate import quad as _quad

    wave = profile.AsymptoticProfile(mass=case["mass"], viscosity=case["viscosity"])
    t = case["t"]
    width = math.sqrt(2.0 * wave.viscosity * t)
    lim = 40.0 * width + 30.0
    val, _ = _quad(
        lambda x: profile.eval(wave, t, x), -lim, lim, limit=400, epsabs=1e-10
    )
    err = abs(val - wave.mass)
    return err <= 1e-6, f"mass error {err:.3e}"


def _gen_profile_mass(rng, count):
    for _ in range(count):
        m = float(rng.uniform(-2.0, 2.0))
        if abs(m) < 0.05:
            m = 0.5
        yield {
            "mass": m,
            "viscosity": float(rng.uniform(0.01, 3.0)),
            "t": float(rng.uniform(0.5, 10.0)),
        }


def _check_profile_residual(case) -> tuple[bool, str]:
    wave = profile.AsymptoticProfile(mass=case["mass"], viscosity=case["viscosity"])
    t, x = case["t"], case["x"]
    # The ladder must lie in the O(h^2) regime: at h = 0.2 the residual of
    # some waves has not yet reached it.
    rs = [abs(analysis.pde_residual(wave, t, x, h)) for h in (0.05, 0.025, 0.0125)]
    if rs[1] < 1e-13 or rs[2] < 1e-13:
        return True, "residual at roundoff floor"
    orders = [math.log2(rs[0] / rs[1]), math.log2(rs[1] / rs[2])]
    ok = min(orders) >= 1.8
    return ok, f"observed orders {orders[0]:.2f}, {orders[1]:.2f}"


def _gen_profile_residual(rng, count):
    for _ in range(count):
        m = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        yield {
            "mass": m,
            "viscosity": float(rng.uniform(0.5, 2.0)),
            "t": float(rng.uniform(1.0, 4.0)),
            "x": float(rng.uniform(-2.0, 2.0)),
        }


_SUITES = {
    "kernel_closed_forms": (_gen_kernel_closed_forms, _check_kernel_closed_forms, 200),
    "mass_conservation": (_gen_seeded, _check_mass_conservation, 40),
    "l1_contraction": (_gen_seeded, _check_l1_contraction, 40),
    "lp_monotone": (_gen_seeded, _check_lp_monotone, 40),
    "order_preservation": (_gen_seeded, _check_order_preservation, 40),
    "gns_inequality": (_gen_gns, _check_gns, 300),
    "series_bound": (_gen_series, _check_series, 300),
    "profile_mass": (_gen_profile_mass, _check_profile_mass, 20),
    "profile_residual": (_gen_profile_residual, _check_profile_residual, 10),
}


def cmd_check(config: ExperimentConfig, replay: str | None, cases: int | None) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    if replay is not None:
        with open(replay, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        suite = payload["suite"]
        if suite not in _SUITES:
            raise ConfigError(f"replay file names unknown suite {suite!r}")
        ok, detail = _SUITES[suite][1](payload["case"])
        status = "pass" if ok else "FAIL"
        print(f"replay {suite}: {status} ({detail})")
        print(f"case: {json.dumps(payload['case'], sort_keys=True)}")
        return 0 if ok else 1

    rng = np.random.default_rng(config.seed)
    failures = []
    print(f"{'suite':<22} {'cases':>6} {'failures':>9}")
    for name, (gen, check, default_count) in _SUITES.items():
        count = cases if cases is not None else default_count
        n_fail = 0
        for case in gen(rng, count):
            ok, detail = check(case)
            if not ok:
                n_fail += 1
                failures.append({"suite": name, "case": case, "detail": detail})
        print(f"{name:<22} {count:>6} {n_fail:>9}")
    if failures:
        replay_path = os.path.join(config.output_dir, "replay.json")
        with open(replay_path, "w", encoding="utf-8") as fh:
            json.dump(failures[0], fh, indent=2, sort_keys=True)
        print(f"{len(failures)} failing case(s); first serialized to {replay_path}")
        return 1
    print("all suites passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_OVERRIDE_FLAGS = (
    ("--nu", "nu"),
    ("--c", "c"),
    ("--theta", "theta"),
    ("--dx", "dx"),
    ("--x-left", "x_left"),
    ("--x-right", "x_right"),
    ("--flux", "flux"),
    ("--corrector-mode", "corrector_mode"),
    ("--tail-tol", "tail_tol"),
    ("--safety", "safety"),
    ("--dt-max", "dt_max"),
    ("--t-end", "t_end"),
    ("--snapshot-times", "snapshot_times"),
    ("--initial-data", "initial_data"),
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--out", help="output directory (overrides output_dir)")
    sub.add_argument("--seed", type=int, help="seed for randomized suites")
    for flag, key in _OVERRIDE_FLAGS:
        sub.add_argument(flag, dest=f"cfg_{key}", metavar="V", help=f"override {key}")


def _config_from_args(args) -> ExperimentConfig:
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    overrides: dict[str, object] = {}
    for _, key in _OVERRIDE_FLAGS:
        val = getattr(args, f"cfg_{key}", None)
        if val is not None:
            overrides[key] = val
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return parse_config(text, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="augburgers",
        description=(
            "Finite-volume solver for a viscous Burgers equation with an "
            "exponential relaxation memory term, plus its large-time "
            "verification harness.  Config keys: " + ", ".join(_KNOWN_KEYS)
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one experiment, write snapshots/norms")
    p_rates = subs.add_parser(
        "rates", help="profile-error rate curves for three scheme variants"
    )
    p_nwave = subs.add_parser(
        "nwave", help="small-coefficient wave-shape comparison (EO vs MLF)"
    )
    p_selfconv = subs.add_parser(
        "selfconv", help="L1 self-convergence across nested meshes"
    )
    p_selfconv.add_argument("--dx-list", default="0.2,0.1,0.05")
    p_selfconv.add_argument("--t-check", type=float, default=1.0)
    p_profile = subs.add_parser("profile", help="sample the asymptotic profile")
    p_profile.add_argument(
        "--continuum",
        action="store_true",
        help="use the continuum effective viscosity nu + c",
    )
    p_check = subs.add_parser("check", help="run the randomized property suites")
    p_check.add_argument("--cases", type=int, help="cases per suite")
    p_check.add_argument("--replay", help="rerun exactly one serialized case")

    for sub in (p_run, p_rates, p_nwave, p_selfconv, p_profile, p_check):
        _add_common(sub)

    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "run":
            return cmd_run(config)
        if args.command == "rates":
            return cmd_rates(config)
        if args.command == "nwave":
            return cmd_nwave(config)
        if args.command == "selfconv":
            return cmd_selfconv(config, args.dx_list, args.t_check)
        if args.command == "profile":
            return cmd_profile(config, args.continuum)
        if args.command == "check":
            return cmd_check(config, args.replay, args.cases)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
