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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import analysis, initial, kernel, profile, scheme
from .grid import GridFunction, make_grid, mass, project_initial
from .scheme import CorrectorMode, FluxKind, PhysicalParams, SchemeConfig, SolverAbort

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "main"]


class ConfigError(ValueError):
    pass


# Cap on the cells of a grid, so that a tiny dx is a config error, not an
# allocation that fails or runs out of memory.
_MAX_CELLS = 10**6


def _parse_float(key, raw, lo=None, hi=None, lo_open=False, hi_open=False):
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} = {raw!r}: expected a number") from None
    if not math.isfinite(val):
        raise ConfigError(f"{key} = {raw!r}: must be a finite number")
    if lo is not None and (val < lo or (lo_open and val == lo)):
        raise ConfigError(
            f"{key} = {raw!r}: must be {'>' if lo_open else '>='} {lo}"
        )
    if hi is not None and (val > hi or (hi_open and val == hi)):
        raise ConfigError(
            f"{key} = {raw!r}: must be {'<' if hi_open else '<='} {hi}"
        )
    return val


# Parse rules: each takes (key, raw value) and returns the checked value or
# raises ConfigError naming the key.


def _number(lo=None, hi=None, lo_open=False, hi_open=False):
    return lambda key, raw: _parse_float(key, raw, lo, hi, lo_open, hi_open)


def _choice(*options):
    def parse(key, raw):
        val = str(raw).strip().lower()
        if val not in options:
            raise ConfigError(
                f"{key} = {raw!r}: must be " + " or ".join(map(repr, options))
            )
        return val

    return parse


def _parse_seed(key, raw) -> int:
    try:
        val = int(str(raw), 0)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r}: expected an integer") from None
    if val < 0:
        raise ConfigError(f"{key} = {raw!r}: must be >= 0")
    return val


def _parse_snapshot_times(key, raw) -> tuple[float, ...]:
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    return tuple(sorted(_parse_float(key, p) for p in parts))


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


def _key(default, parse):
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment; each field carries its parse rule."""

    nu: float = _key(1e-2, _number(lo=0.0))
    c: float = _key(2e-2, _number(lo=0.0))
    theta: float = _key(1.0, _number(lo=0.0, lo_open=True))
    dx: float = _key(0.1, _number(lo=0.0, lo_open=True))
    x_left: float = _key(-160.0, _number())
    x_right: float = _key(160.0, _number())
    flux: str = _key("eo", _choice("eo", "mlf"))
    corrector_mode: str = _key("corrected", _choice("corrected", "naive"))
    tail_tol: float = _key(
        kernel.DEFAULT_TAIL_TOL, _number(lo=0.0, hi=1.0, lo_open=True, hi_open=True)
    )
    safety: float = _key(0.9, _number(lo=0.0, hi=1.0, lo_open=True))
    dt_max: float = _key(scheme.DEFAULT_DT_MAX, _number(lo=0.0, lo_open=True))
    t_end: float = _key(1e4, _number(lo=0.0))
    snapshot_times: tuple[float, ...] = _key((1e2, 1e3, 1e4), _parse_snapshot_times)
    initial_data: str = _key("sines", lambda key, raw: _parse_initial(str(raw))[0])
    seed: int = _key(0, _parse_seed)
    output_dir: str = _key("out", lambda key, raw: str(raw))

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


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


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
        if key not in _FIELDS:
            raise ConfigError(
                f"unknown key {key!r} (line {lineno}); known keys: "
                + ", ".join(_FIELDS)
            )
        raw[key] = value.strip()
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}; known keys: " + ", ".join(_FIELDS))
        raw[key] = value

    cfg = ExperimentConfig(
        **{k: f.metadata["parse"](k, raw[k]) for k, f in _FIELDS.items() if k in raw}
    )

    if not cfg.nu + cfg.c > 0.0:
        raise ConfigError(f"nu + c must be positive, got nu = {cfg.nu}, c = {cfg.c}")
    if not cfg.x_left < cfg.x_right:
        raise ConfigError(
            f"x_left = {cfg.x_left} must be smaller than x_right = {cfg.x_right}"
        )
    span = cfg.x_right - cfg.x_left
    if not math.isfinite(span / cfg.dx):
        raise ConfigError(
            f"x_right - x_left = {span} over dx = {cfg.dx} is not a finite cell count"
        )
    if round(span / cfg.dx) < 2:
        raise ConfigError(f"dx = {cfg.dx}: fewer than 2 cells span the domain")
    _check_divides(cfg, "dx", cfg.dx)
    return cfg


def _check_divides(cfg: ExperimentConfig, key: str, dx: float) -> None:
    # The cap on the cell count, then the grid's own consistency rule: dx
    # must divide the domain span.
    cells = (cfg.x_right - cfg.x_left) / dx
    if not cells < _MAX_CELLS + 0.5:
        raise ConfigError(
            f"{key} = {dx}: {cells:.6g} cells span the domain, more than the "
            f"cap of {_MAX_CELLS}"
        )
    try:
        make_grid(cfg.x_left, cfg.x_right, dx)
    except ValueError as exc:
        raise ConfigError(f"{key} = {dx}: {exc}") from None


def _snapshot_times(config: ExperimentConfig) -> tuple[float, ...]:
    # Checked by the commands that read them (run, profile); rates and nwave
    # choose their own times, so a horizon shorter than the defaults is fine.
    for t in config.snapshot_times:
        if t <= 0.0 or t > config.t_end:
            raise ConfigError(
                f"snapshot_times entry {t!r} outside (0, t_end = {config.t_end}]"
            )
    return config.snapshot_times


# ---------------------------------------------------------------------------
# experiment setup


def _build_initial(config: ExperimentConfig, grid) -> GridFunction:
    _, datum = _parse_initial(config.initial_data)
    if isinstance(datum, str):
        return initial.from_file(datum, grid)
    return project_initial(datum, grid)


def _build_setup(config: ExperimentConfig):
    grid = make_grid(config.x_left, config.x_right, config.dx)
    n_terms = kernel.choose_n(config.dx, config.theta, config.tail_tol)
    quad = kernel.build(config.dx, config.theta, n_terms)
    params = PhysicalParams(nu=config.nu, c=config.c)
    scheme_config = SchemeConfig(
        flux=FluxKind(config.flux),
        quadrature=quad,
        corrector_mode=CorrectorMode(config.corrector_mode),
        grid=grid,
    )
    return grid, quad, params, scheme_config


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render(v) for v in row])


def _write_float_csv(path: str, header: list[str], blocks) -> None:
    """Write all-float rows as :func:`_write_csv` does, byte for byte.

    Each block is a 2-D array of rows and is formatted by one ``%``
    template: ``"%.17g"`` renders a float as ``format(x, ".17g")`` does, and
    the lines end in the CRLF terminator of ``csv.writer``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for block in blocks:
            rows, cols = block.shape
            line = ",".join(["%.17g"] * cols) + "\r\n"
            fh.write(line * rows % tuple(block.ravel().tolist()))


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


def _snapshot_block(t: float, u: GridFunction) -> np.ndarray:
    """Rows ``(t, x, u)`` of one snapshot, one per cell."""
    centers = u.grid.cell_centers
    return np.column_stack((np.full(centers.size, t), centers, u.values))


def _quadrature_entries(quad: kernel.KernelQuadrature) -> dict:
    """Manifest entries of the derived kernel quadrature."""
    return {
        "n_terms": quad.n_terms,
        "moment0": quad.moment0,
        "moment1": quad.moment1,
        "moment2": quad.moment2,
        "stability_sum": quad.stability_sum,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(config: ExperimentConfig) -> int:
    snapshot_times = _snapshot_times(config)
    grid, quad, params, scheme_config = _build_setup(config)
    u0 = _build_initial(config, grid)
    os.makedirs(config.output_dir, exist_ok=True)
    record = scheme.run(
        u0,
        params,
        scheme_config,
        t_end=config.t_end,
        snapshot_times=snapshot_times,
        safety=config.safety,
        dt_max=config.dt_max,
    )
    _write_float_csv(
        os.path.join(config.output_dir, "snapshots.csv"),
        ["t", "x", "u"],
        (_snapshot_block(t, u) for t, u in record.snapshots),
    )
    norm_rows = [(r.t, r.l1, r.l2, r.linf, r.mass_after) for r in record.step_reports]
    _write_float_csv(
        os.path.join(config.output_dir, "norms.csv"),
        ["t", "l1", "l2", "linf", "mass"],
        [np.array(norm_rows, dtype=np.float64).reshape(-1, 5)],
    )
    _write_manifest(
        os.path.join(config.output_dir, "manifest.txt"),
        config,
        {
            **_quadrature_entries(quad),
            "aborted": record.aborted,
            "boundary_warning": record.boundary_warning,
        },
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
    # rates compares on its own time grid, so snapshot_times stays out of the
    # manifest and its hash.
    config = replace(config, snapshot_times=())
    grid, quad, params, base = _build_setup(config)
    u0 = _build_initial(config, grid)
    times = _rates_time_grid(config.t_end)
    total_mass = mass(u0)
    wave = profile.AsymptoticProfile(
        mass=total_mass,
        viscosity=profile.effective_viscosity(config.nu, config.c, quad.moment2),
    )
    # One sample of the wave per time, shared by every variant and norm.
    samples = {t: profile.sample_on_grid(wave, grid, t) for t in times}
    os.makedirs(config.output_dir, exist_ok=True)

    rows = []
    extras: dict = {
        **_quadrature_entries(quad),
        "profile_mass": total_mass,
        "profile_viscosity": wave.viscosity,
    }
    aborted = False
    for name, flux, corrector in _RATE_VARIANTS:
        record = scheme.run(
            u0,
            params,
            replace(base, flux=FluxKind(flux), corrector_mode=CorrectorMode(corrector)),
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
            series = analysis.scaled_profile_error(later, wave, p, samples=samples)
            for t, value in zip(series.times, series.values):
                rows.append((t, name, label, value))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(
        os.path.join(config.output_dir, "rates.csv"),
        ["t", "variant", "p", "scaled_error"],
        rows,
    )
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
    grid, quad, params, base = _build_setup(config)
    u0 = _build_initial(config, grid)
    os.makedirs(config.output_dir, exist_ok=True)
    extras = _quadrature_entries(quad)
    diag_rows = []
    aborted = False
    for name, flux in (("eo", "eo"), ("mlf", "mlf")):
        record = scheme.run(
            u0,
            params,
            replace(base, flux=FluxKind(flux)),
            t_end=config.t_end,
            safety=config.safety,
            dt_max=config.dt_max,
            report_every=10,
        )
        aborted = aborted or record.aborted
        t_final, u_final = record.snapshots[-1]
        _write_float_csv(
            os.path.join(config.output_dir, f"snapshots_{name}.csv"),
            ["t", "x", "u"],
            [_snapshot_block(t_final, u_final)],
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


def cmd_selfconv(config: ExperimentConfig, dx_list: str, t_check: str) -> int:
    _, init = _parse_initial(config.initial_data)
    if isinstance(init, str):
        raise ConfigError(
            "selfconv needs a functional initial_data (file: data is bound to "
            "one grid)"
        )
    # Each mesh size obeys the rule of the dx key; the check time is positive.
    parse_dx = _FIELDS["dx"].metadata["parse"]
    dxs = [parse_dx("dx_list", p.strip()) for p in dx_list.split(",") if p.strip()]
    try:
        analysis.check_nested(dxs)
    except ValueError as exc:
        raise ConfigError(f"dx_list = {dx_list!r}: {exc}") from None
    for dx in dxs:
        _check_divides(config, "dx_list entry", dx)
    t_check = _number(lo=0.0, lo_open=True)("t_check", t_check)
    params = PhysicalParams(nu=config.nu, c=config.c)
    results = analysis.self_convergence(
        params,
        init,
        config.x_left,
        config.x_right,
        dxs,
        t_check,
        flux=FluxKind(config.flux),
        corrector_mode=CorrectorMode(config.corrector_mode),
        theta=config.theta,
        tail_tol=config.tail_tol,
        safety=config.safety,
        dt_max=config.dt_max,
    )
    os.makedirs(config.output_dir, exist_ok=True)
    rows = []
    prev = None
    for (dx_fine, dx_coarse), diff in results:
        ratio = "" if prev in (None, 0.0) else diff / prev
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
    times = _snapshot_times(config) or (config.t_end,)
    grid, quad, params, _ = _build_setup(config)
    u0 = _build_initial(config, grid)
    total_mass = mass(u0)
    a = profile.effective_viscosity(
        config.nu, config.c, None if continuum else quad.moment2
    )
    wave = profile.AsymptoticProfile(mass=total_mass, viscosity=a)
    os.makedirs(config.output_dir, exist_ok=True)
    _write_float_csv(
        os.path.join(config.output_dir, "profile.csv"),
        ["t", "x", "u"],
        [_snapshot_block(t, profile.sample_on_grid(wave, grid, t)) for t in times],
    )
    _write_manifest(
        os.path.join(config.output_dir, "manifest.txt"),
        config,
        {
            **_quadrature_entries(quad),
            "profile_mass": total_mass,
            "profile_viscosity": a,
            "viscosity_mode": "continuum" if continuum else "discrete",
        },
    )
    return 0


# ---------------------------------------------------------------------------
# property checks (the suites live in augburgers.checks)


def _load_replay(path: str, suites: dict) -> tuple[str, dict]:
    """Read a ``{"suite": ..., "case": {...}}`` file whose case has every key
    of the suite's ``ranges``, each inside its closed range and of the type
    of its bounds (an int may stand for a float)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        payload = {}
    suite, case = payload.get("suite"), payload.get("case")
    if not (isinstance(suite, str) and suite in suites and isinstance(case, dict)):
        raise ConfigError(
            f"replay file {path!r}: expected an object with a 'suite' among "
            + ", ".join(suites) + " and a 'case' object"
        )
    for key, (lo, hi) in suites[suite][3].items():
        val = case.get(key)
        if isinstance(val, bool) or not isinstance(val, (int, type(lo))):
            raise ConfigError(
                f"replay file {path!r}: case key {key!r} = {val!r} "
                f"is not of type {type(lo).__name__}"
            )
        if not lo <= val <= hi:
            raise ConfigError(
                f"replay file {path!r}: case key {key!r} = {val!r} lies outside "
                f"[{lo!r}, {hi!r}], the range its suite draws from"
            )
    return suite, case


def cmd_check(config: ExperimentConfig, replay: str | None, cases: int | None) -> int:
    # Imported here so that the other commands never compile the suites.
    from . import checks

    if cases is not None and cases < 1:
        raise ConfigError(f"--cases {cases}: must be >= 1")
    os.makedirs(config.output_dir, exist_ok=True)
    if replay is not None:
        suite, case = _load_replay(replay, checks.SUITES)
        ok, detail = checks.SUITES[suite][1](case)
        status = "pass" if ok else "FAIL"
        print(f"replay {suite}: {status} ({detail})")
        print(f"case: {json.dumps(case, sort_keys=True)}")
        return 0 if ok else 1

    rng = np.random.default_rng(config.seed)
    failures = []
    print(f"{'suite':<22} {'cases':>6} {'failures':>9}")
    for name, (_, _, default_count, _) in checks.SUITES.items():
        count = cases if cases is not None else default_count
        found = checks.run_suite(name, rng, count)
        failures += found
        print(f"{name:<22} {count:>6} {len(found):>9}")
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


def _flag(key: str) -> str:
    """The command-line flag that overrides config key ``key``."""
    return "--out" if key == "output_dir" else "--" + key.replace("_", "-")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    for key in _FIELDS:
        sub.add_argument(_flag(key), dest=f"cfg_{key}", metavar="V", help=f"override {key}")


def _config_from_args(args) -> ExperimentConfig:
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_config(text, {key: getattr(args, f"cfg_{key}") for key in _FIELDS})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="augburgers",
        description=(
            "Finite-volume solver for a viscous Burgers equation with an "
            "exponential relaxation memory term, plus its large-time "
            "verification harness.  Config keys: " + ", ".join(_FIELDS)
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
    p_selfconv.add_argument("--t-check", default="1")
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
