"""Command-line entry point.

Subcommands: fit, lo, alo, cv, bounds, audit, simulate {table1,table2,figure1},
selftest.  All randomness is controlled by the config seed (overridable with
--seed); --out writes results.csv, report.json and manifest.json.

Config files are flat INI text with sections [design], [model], [solver]
and [experiment]; the presets shipped with the package are examples of the
full schema, and any other section or key is a config error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import shlex
import sys
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BoundReport,
    _ridge_logistic_report,
    audit_assumptions,
    check_perturb_lemma,
    compute_Cb,
    pick_audit_indices,
)
from .datagen import SimConfig
from .experiments import _STUDIES, _fitted_replicate, _run_study, check_study
from .losses import LossSpec, _check_family, loss_derivative_bound, loss_eval
from .regularizers import RegSpec
from .reporting import write_results
from .risk import alo, kfold_cv, lo_exact, refits
from .solver import Dataset, ModelSpec, SolverError, SolverOpts, _pin_blas, fit

_PRESET_DIR = resources.files("loorisk") / "presets"
PRESETS = tuple(
    sorted(f.name[:-4] for f in _PRESET_DIR.iterdir() if f.name.endswith(".cfg"))
)


class ConfigError(Exception):
    kind = "config"


class UsageError(ConfigError):
    kind = "usage"  # a command-line flag whose value the library refuses


@contextmanager
def _refused(where, error=ConfigError, caught=ValueError):
    """Raise a caught exception from the block as error, prefixed with where."""
    try:
        yield
    except caught as exc:
        raise error(f"{where}: {exc}") from exc


def _list_of(cast):
    """A cast for a comma-separated list of cast values."""

    def parse(raw):
        return tuple(cast(tok.strip()) for tok in raw.split(",") if tok.strip())

    return parse


# (section, key) -> (object, field, cast).  The dataclasses own every default:
# a key missing from the file is not passed on.  [experiment] kind names the
# study a config was written for; it is read but selects nothing.
_KEYS = {
    ("design", "ns"): ("sim", "ns", _list_of(int)),
    ("design", "p"): ("sim", "p", int),
    ("design", "p_ratio"): ("sim", "p_ratio", float),
    ("design", "k"): ("sim", "k", int),
    ("design", "k_ratio"): ("sim", "k_ratio", float),
    ("design", "sigma"): ("sim", "sigma", str),
    ("design", "noise_var"): ("sim", "noise_var", float),
    ("design", "beta_dist"): ("sim", "beta_dist", str),
    ("design", "family"): ("sim", "family", str),
    ("design", "shape"): ("sim", "shape", float),
    ("experiment", "kind"): (None, "kind", str),
    ("experiment", "reps"): ("sim", "reps", int),
    ("experiment", "seed"): ("sim", "seed", int),
    ("experiment", "k_folds"): ("sim", "k_folds", _list_of(int)),
    ("experiment", "lambdas"): ("sim", "lambdas", _list_of(float)),
    ("model", "lambda"): ("model", "lam", float),
    ("model", "loss"): ("loss", "family", str),
    ("model", "huber_scale"): ("loss", "huber_scale", float),
    ("model", "smooth_scale"): ("loss", "smooth_scale", float),
    ("model", "shape"): ("loss", "shape", float),
    ("model", "reg"): ("reg", "family", str),
    ("model", "mix"): ("reg", "mix", float),
    ("model", "sharpness"): ("reg", "smooth_sharpness", float),
    ("solver", "tol"): ("opts", "tol", float),
    ("solver", "max_iter"): ("opts", "max_iter", int),
}
_SECTIONS = {section for section, _ in _KEYS}


def load_config_text(text, source="<config>"):
    """Parse a config into (SimConfig, ModelSpec, SolverOpts)."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    for section in ("design", "model"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
    for section, key in (("design", "ns"), ("model", "lambda")):
        if not parser.has_option(section, key):
            raise ConfigError(f"[{section}] is missing required key {key!r}")

    fields = {None: {}, "sim": {}, "model": {}, "opts": {}}
    fields["loss"] = {"family": "squared"}  # the only defaults the CLI adds
    fields["reg"] = {"family": "ridge"}
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            target, name, cast = _KEYS[section, key]
            raw = parser.get(section, key)
            with _refused(f"[{section}] {key} = {raw!r}"):
                fields[target][name] = cast(raw)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    with _refused("[design]/[experiment]"):
        sim = SimConfig(**fields["sim"])
    with _refused("[model]"):
        loss, reg = LossSpec(**fields["loss"]), RegSpec(**fields["reg"])
        model = ModelSpec(loss, reg, **fields["model"])
    with _refused(f"[model] loss cannot score family = {sim.family}"):
        _check_family(loss, sim.family)
    with _refused("[solver]"):
        opts = SolverOpts(**fields["opts"])
    return sim, model, opts


def load_config(path=None, preset=None):
    if (path is None) == (preset is None):
        raise ConfigError("exactly one of --config and --preset is required")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(PRESETS)}"
            )
        text = (_PRESET_DIR / f"{preset}.cfg").read_text()
        return load_config_text(text, source=f"preset:{preset}")
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config_text(text, source=str(path))


def _load(args):
    sim, model, opts = load_config(args.config, args.preset)
    if args.seed is not None:
        with _refused("--seed", UsageError):
            sim = replace(sim, seed=args.seed)
    if args.tol is not None:
        with _refused("--tol", UsageError):
            opts = replace(opts, tol=args.tol)
    return sim, model, opts


def _threads(args):
    threads, where = args.threads, "--threads"
    if threads is None:
        env, where = os.environ.get("LOORISK_THREADS"), "LOORISK_THREADS"
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        try:
            threads = int(env) if env else cpus
        except ValueError as exc:
            raise ConfigError(f"LOORISK_THREADS={env!r} is not an integer") from exc
    if threads < 1:
        raise UsageError(f"{where} = {threads}: worker processes must be >= 1")
    return threads


def _first_replicate(args):
    """Config plus replicate 0 of the first n, for the one-shot subcommands.

    Returns (sim, model, opts, data, cov, full) with a converged full fit.
    """
    sim, model, opts = _load(args)
    data, _, cov, full = _fitted_replicate(sim, model, sim.ns[0], 0, opts)
    return sim, model, opts, data, cov, full


def _emit(result, args, summary_lines, seed=None):
    for line in summary_lines:
        print(line)
    if args.out:
        config = getattr(args, "config", None) or getattr(args, "preset", None)
        info = {"command": shlex.join(args.argv), "config_path": config, "seed": seed}
        paths = write_results(result, args.out, info)
        print(f"wrote {', '.join(str(p) for p in paths)}")


def _cmd_fit(args):
    sim, *_, result = _first_replicate(args)
    _emit(
        result,
        args,
        [
            f"converged in {result.iterations} iterations, "
            f"objective {result.objective:.10g}, "
            f"residual {result.grad_inf_norm:.3e}"
        ],
        sim.seed,
    )
    return 0


def _cmd_risk(args):
    sim, model, opts, data, _, full = _first_replicate(args)
    if args.command == "lo":
        report = lo_exact(data, model, opts, full_fit=full)
    elif args.command == "alo":
        report = alo(data, model, full)
    else:
        with _refused("--k", UsageError):
            report = kfold_cv(data, model, args.k, sim.seed, opts, full_fit=full)
    _emit(report, args, [f"{report.method} estimate: {report.estimate:.10g}"], sim.seed)
    return 0


def _cmd_bounds(args):
    if args.n is not None and args.n < 1:
        raise UsageError(f"--n: n = {args.n} must be >= 1")
    with _refused("--rho, --delta or --lambda", UsageError):
        report = _ridge_logistic_report(args.rho, args.delta, args.lam, args.n)
    lines = [f"C_b = {report.C_b:.10g}", f"C_v = {report.C_v:.10g}"]
    if args.n is not None:
        lines.append(f"C_v / n = {report.bound_over_n:.10g} at n = {args.n}")
    _emit(report, args, lines)
    return 0


def _cmd_audit(args):
    sim, model, opts, data, cov, full = _first_replicate(args)
    with _refused("--sample-i", UsageError):
        indices = pick_audit_indices(data.n, args.sample_i)
    loo = dict(refits(data, model, indices, full, opts))
    with _refused("--t-grid", UsageError):
        audit = audit_assumptions(data, model, full, loo, t_grid_size=args.t_grid)
    n, p = data.n, data.p
    rho = cov.rho(p)
    bound_c0 = loss_derivative_bound(model.loss)
    c0 = bound_c0 if bound_c0 is not None else audit.c0_emp
    # a singular segment Hessian leaves a curvature floor of 0 up to rounding
    with _refused("audit", np.linalg.LinAlgError):
        perturb = check_perturb_lemma(data, model, full, loo, audit.nu_emp)
        C_b = compute_Cb(c0, c0, rho, n / p, audit.nu_emp)
    report = BoundReport(
        rho=rho,
        delta=n / p,
        c0=c0,
        c1=c0,
        nu=audit.nu_emp,
        C_b=C_b,
        audit=audit,
    )
    holds = sum(1 for row in perturb if row["holds"])
    _emit(
        report,
        args,
        [
            f"c0_emp = {audit.c0_emp:.6g}, nu_emp = {audit.nu_emp:.6g} "
            f"(t-grid {audit.t_grid_size}, {len(loo)} rows)",
            f"perturbation bound holds on {holds}/{len(perturb)} audited rows",
        ],
        sim.seed,
    )
    return 0 if holds == len(perturb) else 1


def _cmd_simulate(args):
    sim, model, opts = _load(args)
    with _refused(f"simulate {args.study}"):
        check_study(args.study, sim, model)
    result = _run_study(args.study, sim, model, opts, _threads(args))
    lines = []
    for row in result.rows:
        extra = (
            f", bound/n {row['bound_over_n']:.6g}"
            if row.get("bound_over_n") is not None
            else ""
        )
        se = f" ({row['mse_se']:.3g})" if row["mse_se"] is not None else ""
        lines.append(
            f"n={row['n']} p={row['p']} lambda={row['lam']:g} "
            f"{row['estimator']}: {row['mse']:.6g}{se}{extra}"
        )
    if result.slope_fit:
        sf = result.slope_fit
        lines.append(
            f"log-log slope {sf['slope']:.3f} (SE {sf['slope_se']:.3f}), "
            f"adj R^2 {sf['adj_r2']:.3f}"
        )
    _emit(result, args, lines, sim.seed)
    return 0


def _selftest_derivatives():
    rng = np.random.default_rng(20260809)
    specs = [
        LossSpec("squared"),
        LossSpec("logistic"),
        LossSpec("pseudo_huber", huber_scale=1.7),
        LossSpec("smoothed_abs", smooth_scale=4.0),
        LossSpec("poisson_softrect"),
        LossSpec("negative_binomial", shape=0.7),
    ]
    worst = 0.0
    for spec in specs:
        z = rng.uniform(-4, 4, 200)
        if spec.family == "logistic":
            y = rng.integers(0, 2, 200).astype(float)
        elif spec.family in ("poisson_softrect", "negative_binomial"):
            y = rng.poisson(1.5, 200).astype(float)
        else:
            y = rng.uniform(-4, 4, 200)
        h = 1e-6
        _, d1, _ = loss_eval(spec, y, z)
        vp, _, _ = loss_eval(spec, y, z + h)
        vm, _, _ = loss_eval(spec, y, z - h)
        fd = (vp - vm) / (2 * h)
        err = float(np.max(np.abs(fd - d1) / np.maximum(1.0, np.abs(d1))))
        worst = max(worst, err)
        if err > 1e-5:
            return False, f"derivative mismatch for {spec.family}: {err:.2e}"
    return True, f"derivative checks passed (worst rel err {worst:.2e})"


def _selftest_alo_identity():
    worst = 0.0
    model = ModelSpec(LossSpec("squared"), RegSpec("ridge"), lam=0.7)
    for seed, (n, p) in [(s, sh) for s in range(5) for sh in ((30, 10), (10, 30))]:
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((n, p)), rng.standard_normal(n))
        full = fit(data, model)
        lo = lo_exact(data, model, full_fit=full)
        approx = alo(data, model, full)
        worst = max(worst, float(np.max(np.abs(lo.per_sample - approx.per_sample))))
    if worst > 1e-8:
        return False, f"ridge ALO/LO identity violated: max diff {worst:.2e}"
    return True, f"ridge ALO = LO identity holds (max diff {worst:.2e})"


def _cmd_selftest(args):
    ok = True
    for passed, message in (_selftest_derivatives(), _selftest_alo_identity()):
        print(("PASS " if passed else "FAIL ") + message)
        ok = ok and passed
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loorisk",
        description="Leave-one-out risk estimation for penalized GLMs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--preset", help=f"one of: {', '.join(PRESETS)}")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--tol", type=float, help="override solver tolerance")

    for name, run in (("fit", _cmd_fit), ("lo", _cmd_risk), ("alo", _cmd_risk)):
        add_common(sub.add_parser(name), run)
    cv = sub.add_parser("cv")
    add_common(cv, _cmd_risk)
    cv.add_argument("--k", type=int, default=5, help="number of folds")

    bounds_p = sub.add_parser(
        "bounds",
        description="Bound constants for ridge-logistic regression: uses the "
        "logistic constants c0 = c1 = 2 and the curvature floor nu = lambda.",
    )
    bounds_p.set_defaults(run=_cmd_bounds)
    bounds_p.add_argument("--rho", type=float, required=True)
    bounds_p.add_argument("--delta", type=float, required=True)
    bounds_p.add_argument("--lambda", dest="lam", type=float, required=True)
    bounds_p.add_argument("--n", type=int, help="report C_v / n at this n")
    bounds_p.add_argument("--out", help="output directory")

    audit_p = sub.add_parser("audit")
    add_common(audit_p, _cmd_audit)
    audit_p.add_argument("--t-grid", type=int, default=11)
    audit_p.add_argument("--sample-i", type=int, default=25)

    sim_p = sub.add_parser("simulate")
    sim_p.add_argument("study", choices=tuple(_STUDIES))
    add_common(sim_p, _cmd_simulate)
    threads_help = "worker processes (default: LOORISK_THREADS, else the usable CPUs)"
    sim_p.add_argument("--threads", type=int, help=threads_help)

    sub.add_parser("selftest").set_defaults(run=_cmd_selftest)
    return parser


def _check_out(out):
    """Refuse an --out whose deepest existing level write_results cannot use."""
    path = Path(out).absolute()
    level = next(level for level in (path, *path.parents) if level.exists())
    if not (level.is_dir() and os.access(level, os.W_OK | os.X_OK)):
        raise OSError(f"{level} is not a directory this process can write")


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = argv
    _pin_blas({"numpy": 1, "scipy": 1})  # the same bytes on any core count
    try:
        if getattr(args, "out", None):
            with _refused(f"--out {args.out}", UsageError, OSError):
                _check_out(args.out)
        return args.run(args)
    except ConfigError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
