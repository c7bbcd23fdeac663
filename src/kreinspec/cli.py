"""Command-line front end.

Subcommands cover the transversal closed forms, the M-set decomposition,
certified secular roots, branch continuation, the randomized tensor-sum
prediction campaign, 2D strip eigenvalues, and pseudospectrum sweeps,
plus plot-ready CSV emitters.  Outputs are deterministic for a fixed
(config, seed), carry a sha256 of the resolved configuration in their
headers, and are written atomically (temp file + rename).

Exit codes: 0 success, 2 validation/usage failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .transversal import (Constant, SquareWell, Zero, branch_curves,
                          exceptional_set, longitudinal_spectrum,
                          secular_roots, secular_value, transversal_modes,
                          waveguide_m_sets)
from .tensorsum import run_campaign
from .waveguide2d import (GridSpec, XBoundary, assemble_waveguide, eigs_near,
                          imag_bound_fit, pseudospectrum_map, realness_report)

__all__ = ["RunConfig", "main"]

DEFAULT_TOLERANCES = {
    "gram": 1e-8,          # Gram-matrix eigenvalue cutoff for type calls
    "residual": 1e-8,      # relative eigenpair residual bound
    "set_endpoint": 1e-12,  # interval endpoint comparison tolerance
}

UNITS_NOTE = ("a and x, y are lengths in a common unit; spectral values "
              "(lambda, k^2, sigma_min windows) are in inverse length squared")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, validated parameters, output plumbing."""

    command: str
    parameters: dict
    output_dir: Path
    seed: int
    tolerances: dict

    def sha256(self) -> str:
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "tolerances": self.tolerances,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(cfg: RunConfig, description: str, columns: list,
              rows: list, extra_comments: list | None = None) -> str:
    lines = [
        f"# kreinspec {__version__}",
        f"# config-sha256: {cfg.sha256()}",
        f"# description: {description}",
        f"# units: {UNITS_NOTE}",
    ]
    lines.extend(f"# {c}" for c in (extra_comments or []))
    lines.append(",".join(columns))
    lines.extend(",".join(r) for r in rows)
    return "\n".join(lines) + "\n"


def _json_text(cfg: RunConfig, description: str, payload: dict) -> str:
    doc = dict(payload)
    doc["meta"] = {
        "tool": "kreinspec",
        "version": __version__,
        "config_sha256": cfg.sha256(),
        "description": description,
        "units": UNITS_NOTE,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Parameter validation helpers (the per-command schema)
# ---------------------------------------------------------------------------

def _positive(cfg: RunConfig, key: str) -> float:
    v = _finite(cfg, key)
    if not v > 0:
        raise ValidationError(f"--{key.replace('_', '-')} must be positive, "
                              f"got {v}")
    return v


def _finite(cfg: RunConfig, key: str, kind=float):
    return _number(cfg.parameters[key], key, kind)


def _number(value, key: str, kind=float):
    try:
        v = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"--{key.replace('_', '-')} must be a number") from None
    if not math.isfinite(v):
        raise ValidationError(f"--{key.replace('_', '-')} must be finite")
    return v


def _count(cfg: RunConfig, key: str, minimum: int = 1) -> int:
    v = _finite(cfg, key, int)
    if v < minimum:
        raise ValidationError(f"--{key.replace('_', '-')} must be at least "
                              f"{minimum}, got {v}")
    return v


def _rect(cfg: RunConfig) -> tuple:
    r = tuple(_finite(cfg, k) for k in ("re_min", "re_max", "im_min", "im_max"))
    if r[0] >= r[1] or r[2] > r[3]:
        raise ValidationError(f"degenerate rectangle {r}")
    return r


def _longitudinal(cfg: RunConfig):
    kind = cfg.parameters["v0"]
    if kind == "zero":
        return longitudinal_spectrum(Zero())
    if kind == "constant":
        return longitudinal_spectrum(Constant(_finite(cfg, "v0_value")))
    if kind == "square-well":
        return longitudinal_spectrum(
            SquareWell(_positive(cfg, "well_depth"), _positive(cfg, "well_width")))
    raise ValidationError(f"unknown longitudinal potential {kind!r}")


def _seed_regions(cfg: RunConfig) -> list:
    raw = cfg.parameters.get("seed_region") or [
        "0.7,1.3,-0.4,0.4", "1.7,2.3,-0.2,0.2"]
    regions = []
    for item in raw if isinstance(raw, list) else [raw]:
        parts = item.split(",") if isinstance(item, str) else item
        if not isinstance(parts, (list, tuple)) or len(parts) != 4:
            raise ValidationError(
                f"seed region needs re0,re1,im0,im1 - got {item!r}")
        regions.append(tuple(_number(p, "seed_region") for p in parts))
    return regions


def _alpha_function(cfg: RunConfig):
    alpha0 = _finite(cfg, "alpha0")
    beta0 = _finite(cfg, "beta0")
    height = _finite(cfg, "bump_height")
    if height == 0.0:
        return lambda x: beta0 + 1j * alpha0
    width = _positive(cfg, "bump_width")
    center = _finite(cfg, "bump_center")
    return lambda x: beta0 + 1j * (
        alpha0 + height * math.exp(-((x - center) / width) ** 2))


def _v_function(cfg: RunConfig):
    kind = cfg.parameters.get("v0", "zero")
    if kind == "zero":
        return lambda x, y: 0.0
    if kind == "constant":
        c = _finite(cfg, "v0_value")
        return lambda x, y: c
    raise ValidationError(f"2D runs support v0 zero|constant, got {kind!r}")


def _grid(cfg: RunConfig) -> GridSpec:
    return GridSpec(a=_positive(cfg, "a"), Lx=_positive(cfg, "lx"),
                    nx=_count(cfg, "nx", 8), ny=_count(cfg, "ny", 8),
                    x_boundary=XBoundary(cfg.parameters["x_boundary"]))


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _mode_table(a: float, alpha0: float, n_rows: int) -> list:
    exc = exceptional_set(a, alpha0)
    n_lattice = max(1, n_rows - 1)
    if exc:
        n_lattice = max(n_lattice, max(exc))
    cut = n_rows
    if exc and cut == max(exc):
        cut += 1  # never split the degenerate pair across the table edge
    return transversal_modes(a, alpha0, n_lattice)[:cut]


def cmd_transversal(cfg: RunConfig) -> list:
    a = _positive(cfg, "a")
    alpha0 = _finite(cfg, "alpha0")
    modes = _mode_table(a, alpha0, _count(cfg, "modes"))
    rows = [[str(m.mu_index), _fmt(m.lam), _fmt(m.indicator), m.type.value]
            for m in modes]
    path = cfg.output_dir / cfg.parameters["out"]
    _atomic_write(path, _csv_text(
        cfg, "transversal Robin eigenvalues, parity indicators and types "
             "in sorted order", ["n", "lambda", "indicator", "type"], rows))
    return [path]


def cmd_msets(cfg: RunConfig) -> list:
    n_modes = cfg.parameters.get("n_modes")
    dec = waveguide_m_sets(_positive(cfg, "a"), _finite(cfg, "alpha0"),
                           _longitudinal(cfg),
                           window_max=_finite(cfg, "window_max"),
                           n_modes=None if n_modes is None
                           else _count(cfg, "n_modes"))
    path = cfg.output_dir / cfg.parameters["out"]
    _atomic_write(path, _json_text(
        cfg, "typed decomposition of the waveguide spectral support",
        dec.to_json_obj()))
    return [path]


def cmd_secular(cfg: RunConfig) -> list:
    a = _positive(cfg, "a")
    alpha0 = _finite(cfg, "alpha0")
    beta0 = _finite(cfg, "beta0")
    tol = _positive(cfg, "tol")
    region = _rect(cfg)
    roots = secular_roots(a, alpha0, beta0, region, tol=tol)
    rows = [[_fmt(r.real), _fmt(r.imag),
             _fmt(abs(secular_value(r, a, alpha0, beta0)))] for r in roots]
    path = cfg.output_dir / cfg.parameters["out"]
    _atomic_write(path, _csv_text(
        cfg, "certified secular-equation roots in a rectangle",
        ["re_k", "im_k", "residual"], rows,
        extra_comments=[f"winding: {len(roots)}"]))
    return [path]


def cmd_branches(cfg: RunConfig) -> list:
    a = _positive(cfg, "a")
    alpha0 = _finite(cfg, "alpha0")
    b_lo = _finite(cfg, "beta0_min")
    b_hi = _finite(cfg, "beta0_max")
    n = _count(cfg, "samples", 2)
    samples = np.linspace(b_lo, b_hi, n)
    seeds = []
    for region in _seed_regions(cfg):
        seeds.extend(secular_roots(a, alpha0, b_lo, region,
                                   tol=_positive(cfg, "tol")))
    tables = branch_curves(a, alpha0, samples, seeds,
                           tol=_positive(cfg, "tol"))
    prefix = cfg.parameters["out_prefix"]
    paths = []
    for i, table in enumerate(tables, start=1):
        rows = [[_fmt(p.beta0), _fmt(p.k.real), _fmt(p.k.imag)] for p in table]
        path = cfg.output_dir / f"{prefix}{i}.csv"
        _atomic_write(path, _csv_text(
            cfg, f"secular root branch {i} tracked along the real coupling "
                 "offset", ["beta0", "re_k", "im_k"], rows))
        paths.append(path)
    return paths


def cmd_tensor_check(cfg: RunConfig) -> list:
    result = run_campaign(cfg.seed, _count(cfg, "instances"),
                          tol=cfg.tolerances["gram"],
                          dim_cap=_count(cfg, "dim_cap"))
    payload = {
        "schema": "kreinspec/tensor-check-v1",
        "seed": cfg.seed,
        "n_instances": len(result.instances),
        "total_violations": result.total_violations,
        "total_oracle_failures": result.total_failures,
        "total_unmatched": result.total_unmatched,
        "kind_counts": dict(sorted(result.kind_counts.items())),
        "ok": result.total_violations == 0,
        "instances": result.instances,
    }
    path = cfg.output_dir / cfg.parameters["out"]
    _atomic_write(path, _json_text(
        cfg, "randomized Kronecker-sum type-prediction campaign", payload))
    return [path]


def cmd_spectrum2d(cfg: RunConfig) -> list:
    op = assemble_waveguide(_grid(cfg), _alpha_function(cfg), _v_function(cfg))
    target = complex(_finite(cfg, "target_re"), _finite(cfg, "target_im"))
    pairs = eigs_near(op, target, _count(cfg, "count"),
                      tol=cfg.tolerances["residual"])
    rows = [[_fmt(lam.real), _fmt(lam.imag), _fmt(res)] for lam, res in pairs]
    path = cfg.output_dir / cfg.parameters["out"]
    _atomic_write(path, _csv_text(
        cfg, "strip-operator eigenvalues nearest the target",
        ["re_lambda", "im_lambda", "residual"], rows))
    paths = [path]

    lo, hi = cfg.parameters.get("window_lo"), cfg.parameters.get("window_hi")
    if lo is not None and hi is not None:
        window = (_finite(cfg, "window_lo"), _finite(cfg, "window_hi"))
        rep = realness_report(pairs, window, _finite(cfg, "imag_tol"))
        rpath = cfg.output_dir / cfg.parameters["report_out"]
        _atomic_write(rpath, _json_text(
            cfg, "realness screen of windowed eigenvalues",
            rep.to_json_obj()))
        paths.append(rpath)
    return paths


def cmd_pseudospectrum(cfg: RunConfig) -> list:
    op = assemble_waveguide(_grid(cfg), _alpha_function(cfg), _v_function(cfg))
    rect = _rect(cfg)
    pmap = pseudospectrum_map(op, rect, _count(cfg, "mx"), _count(cfg, "my"),
                              dense_cutoff=_count(cfg, "dense_cutoff", 0))
    rows = []
    for iy in range(pmap.lambdas.shape[0]):
        for ix in range(pmap.lambdas.shape[1]):
            lam = pmap.lambdas[iy, ix]
            rows.append([_fmt(lam.real), _fmt(lam.imag),
                         _fmt(pmap.sigmas[iy, ix]),
                         "1" if pmap.flagged[iy, ix] else "0"])
    path = cfg.output_dir / cfg.parameters["out"]
    _atomic_write(path, _csv_text(
        cfg, "smallest singular value of (H - lambda) over a rectangle",
        ["re_lambda", "im_lambda", "sigma_min", "flagged"], rows))
    paths = [path]

    lo, hi = cfg.parameters.get("fit_window_lo"), cfg.parameters.get("fit_window_hi")
    if lo is not None and hi is not None:
        fit = imag_bound_fit(
            pmap, (_finite(cfg, "fit_window_lo"), _finite(cfg, "fit_window_hi")),
            im_band=(_finite(cfg, "fit_band_lo"), _finite(cfg, "fit_band_hi")))
        fpath = cfg.output_dir / cfg.parameters["fit_out"]
        _atomic_write(fpath, _json_text(
            cfg, "log-log fit of |Im lambda| against sigma_min",
            fit.to_json_obj()))
        paths.append(fpath)
    return paths


def cmd_figures(cfg: RunConfig) -> list:
    which = cfg.parameters["which"]
    a = _positive(cfg, "a")
    if which == "fig1":
        lo, hi = _finite(cfg, "alpha0_min"), _finite(cfg, "alpha0_max")
        n = _count(cfg, "alpha0_samples", 2)
        modes_n = _count(cfg, "modes")
        rows = []
        for alpha0 in np.linspace(lo, hi, n):
            for m in _mode_table(a, float(alpha0), modes_n):
                rows.append([_fmt(alpha0), str(m.mu_index), _fmt(m.lam),
                             m.type.value])
        path = cfg.output_dir / "fig1.csv"
        _atomic_write(path, _csv_text(
            cfg, "transversal eigenvalue curves and types against the "
                 "imaginary coupling strength",
            ["alpha0", "n", "lambda", "type"], rows))
        return [path]
    if which == "fig2":
        lo, hi = _finite(cfg, "alpha0_min"), _finite(cfg, "alpha0_max")
        n = _count(cfg, "alpha0_samples", 2)
        long = longitudinal_spectrum(Zero())
        rows = []
        for alpha0 in np.linspace(lo, hi, n):
            dec = waveguide_m_sets(a, float(alpha0), long,
                                   window_max=_finite(cfg, "window_max"))
            for name, part in (("pp", dec.sigma_pp), ("mm", dec.sigma_mm),
                               ("00", dec.sigma_00)):
                for iv in part.intervals:
                    rows.append([_fmt(alpha0), name, _fmt(iv.lower),
                                 "inf" if math.isinf(iv.upper) else _fmt(iv.upper),
                                 "1" if iv.lower_closed else "0",
                                 "1" if iv.upper_closed else "0"])
        path = cfg.output_dir / "fig2.csv"
        _atomic_write(path, _csv_text(
            cfg, "typed spectral-support intervals against the imaginary "
                 "coupling strength",
            ["alpha0", "set", "lower", "upper", "lower_closed",
             "upper_closed"], rows))
        return [path]
    if which == "fig3":
        sub = RunConfig(command="branches",
                        parameters={**cfg.parameters,
                                    "out_prefix": "fig3_branch"},
                        output_dir=cfg.output_dir, seed=cfg.seed,
                        tolerances=cfg.tolerances)
        return cmd_branches(sub)
    raise ValidationError(f"unknown figure {which!r}")


HANDLERS = {
    "transversal": cmd_transversal,
    "msets": cmd_msets,
    "secular": cmd_secular,
    "branches": cmd_branches,
    "tensor-check": cmd_tensor_check,
    "spectrum2d": cmd_spectrum2d,
    "pseudospectrum": cmd_pseudospectrum,
    "figures": cmd_figures,
}


# ---------------------------------------------------------------------------
# Argument parsing and config resolution
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinspec",
        description="Spectral-type toolbox for J-self-adjoint models: "
                    "closed forms, certified roots, type predictions, and "
                    "pseudospectrum sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"kreinspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None,
                       help="JSON file whose entries override the flags")
        p.add_argument("--output-dir", type=str, default=".")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("transversal", help="closed-form transversal modes")
    common(p)
    p.add_argument("--a", type=float, default=math.pi / 2)
    p.add_argument("--alpha0", type=float, default=0.5)
    p.add_argument("--modes", type=int, default=10,
                   help="number of modes listed, lowest first")
    p.add_argument("--out", type=str, default="transversal.csv")

    p = sub.add_parser("msets", help="typed decomposition of the spectrum")
    common(p)
    p.add_argument("--a", type=float, default=math.pi / 2)
    p.add_argument("--alpha0", type=float, default=0.5)
    p.add_argument("--v0", choices=["zero", "constant", "square-well"],
                   default="zero")
    p.add_argument("--v0-value", type=float, default=0.0)
    p.add_argument("--well-depth", type=float, default=1.0)
    p.add_argument("--well-width", type=float, default=2.0)
    p.add_argument("--window-max", type=float, default=25.0)
    p.add_argument("--n-modes", type=int, default=None,
                   help="pin the transversal mode count instead of deriving "
                        "it from the window")
    p.add_argument("--out", type=str, default="msets.json")

    p = sub.add_parser("secular", help="certified roots of the secular function")
    common(p)
    p.add_argument("--a", type=float, default=math.pi / 2)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--beta0", type=float, default=-0.05)
    p.add_argument("--re-min", type=float, default=0.7)
    p.add_argument("--re-max", type=float, default=1.3)
    p.add_argument("--im-min", type=float, default=-0.4)
    p.add_argument("--im-max", type=float, default=0.4)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", type=str, default="secular_roots.csv")

    p = sub.add_parser("branches", help="track secular roots over beta0")
    common(p)
    p.add_argument("--a", type=float, default=math.pi / 2)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--beta0-min", type=float, default=-0.1)
    p.add_argument("--beta0-max", type=float, default=-0.001)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed-region", action="append", default=None,
                   help="re0,re1,im0,im1 rectangle solved for seed roots "
                        "at beta0-min (repeatable)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out-prefix", type=str, default="branch")

    p = sub.add_parser("tensor-check",
                       help="randomized Kronecker-sum prediction campaign")
    common(p)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--dim-cap", type=int, default=4096)
    p.add_argument("--out", type=str, default="campaign.json")

    def grid_flags(p):
        p.add_argument("--a", type=float, default=math.pi / 2)
        p.add_argument("--alpha0", type=float, default=0.5)
        p.add_argument("--beta0", type=float, default=0.0)
        p.add_argument("--lx", type=float, default=10.0)
        p.add_argument("--nx", type=int, default=64)
        p.add_argument("--ny", type=int, default=24)
        p.add_argument("--x-boundary", choices=["dirichlet", "periodic"],
                       default="dirichlet")
        p.add_argument("--v0", choices=["zero", "constant"], default="zero")
        p.add_argument("--v0-value", type=float, default=0.0)
        p.add_argument("--bump-height", type=float, default=0.0)
        p.add_argument("--bump-width", type=float, default=1.0)
        p.add_argument("--bump-center", type=float, default=0.0)

    p = sub.add_parser("spectrum2d", help="strip eigenvalues near a target")
    common(p)
    grid_flags(p)
    p.add_argument("--target-re", type=float, default=0.3)
    p.add_argument("--target-im", type=float, default=0.0)
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--window-lo", type=float, default=None)
    p.add_argument("--window-hi", type=float, default=None)
    p.add_argument("--imag-tol", type=float, default=1e-7)
    p.add_argument("--out", type=str, default="spectrum2d.csv")
    p.add_argument("--report-out", type=str, default="realness.json")

    p = sub.add_parser("pseudospectrum",
                       help="sigma_min sweep over a rectangle")
    common(p)
    grid_flags(p)
    p.add_argument("--re-min", type=float, default=0.3)
    p.add_argument("--re-max", type=float, default=0.9)
    p.add_argument("--im-min", type=float, default=0.02)
    p.add_argument("--im-max", type=float, default=0.15)
    p.add_argument("--mx", type=int, default=13)
    p.add_argument("--my", type=int, default=7)
    p.add_argument("--dense-cutoff", type=int, default=400)
    p.add_argument("--fit-window-lo", type=float, default=None)
    p.add_argument("--fit-window-hi", type=float, default=None)
    p.add_argument("--fit-band-lo", type=float, default=0.03)
    p.add_argument("--fit-band-hi", type=float, default=0.12)
    p.add_argument("--out", type=str, default="pseudospectrum.csv")
    p.add_argument("--fit-out", type=str, default="fit.json")

    p = sub.add_parser("figures", help="plot-ready CSV data sets")
    common(p)
    p.add_argument("--which", choices=["fig1", "fig2", "fig3"],
                   required=True)
    p.add_argument("--a", type=float, default=math.pi / 2)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--alpha0-min", type=float, default=0.05)
    p.add_argument("--alpha0-max", type=float, default=3.0)
    p.add_argument("--alpha0-samples", type=int, default=60)
    p.add_argument("--modes", type=int, default=6)
    p.add_argument("--window-max", type=float, default=25.0)
    p.add_argument("--beta0-min", type=float, default=-0.1)
    p.add_argument("--beta0-max", type=float, default=-0.001)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed-region", action="append", default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    skip = {"command", "config", "output_dir", "seed"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    output_dir = args.output_dir
    seed = args.seed
    tolerances = dict(DEFAULT_TOLERANCES)
    if args.config is not None:
        try:
            with open(args.config) as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("config must be a JSON object")
        given = doc.pop("tolerances", {})
        if not isinstance(given, dict) or not all(
                k in tolerances and type(v) in (int, float) and 0 < v < math.inf
                for k, v in given.items()):
            raise ValidationError(f"tolerances must be positive numbers named {sorted(tolerances)}")
        tolerances.update(given)
        output_dir = doc.pop("output_dir", output_dir)
        seed = _number(doc.pop("seed", seed), "seed", int)
        unknown = set(doc) - set(params)
        if unknown:
            raise ValidationError(
                f"config keys {sorted(unknown)} do not match any "
                f"{args.command} parameter")
        params.update(doc)
    return RunConfig(command=args.command, parameters=params,
                     output_dir=Path(output_dir), seed=seed,
                     tolerances=tolerances)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        for path in HANDLERS[cfg.command](cfg):
            print(path)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
