"""Command-line front end.

Subcommands cover the transversal closed forms, the M-set decomposition,
certified secular roots, branch continuation, the randomized tensor-sum
prediction campaign, 2D strip eigenvalues, and pseudospectrum sweeps,
plus plot-ready CSV emitters.  Outputs are deterministic for a fixed
(config, seed), carry a sha256 of the resolved configuration in their
headers, and are written all or none (every file staged as a temp file,
then all renamed).

Exit codes: 0 success, 2 validation/usage/write failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .transversal import (Constant, SquareWell, Zero, _min_lattice,
                          branch_curves, exceptional_set, longitudinal_spectrum,
                          secular_roots, secular_value, transversal_modes,
                          waveguide_m_sets)
from .tensorsum import run_campaign
from .waveguide2d import (GridSpec, XBoundary, assemble_waveguide, eigs_near,
                          imag_bound_fit, pseudospectrum_map, realness_report)

__all__ = ["RunConfig", "main"]

DEFAULT_TOLERANCES = {
    "gram": 1e-8,          # Gram-matrix eigenvalue cutoff for type calls
    "residual": 1e-8,      # relative eigenpair residual bound
    "set_endpoint": 1e-12,  # hashed but unused: realsets is exact
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


def _write_all(output_dir: Path, files: dict) -> list:
    """Write a run's ``{name: text}`` files under ``output_dir``, all or
    none: each is staged as a temp file beside its target, with the mode
    a plain open() would give, and renamed only once every one is staged."""
    paths = [output_dir / name for name in files]
    mask = os.umask(0)
    os.umask(mask)
    staged = {}
    try:
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError("is a directory")
        for path, text in zip(paths, files.values()):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
            staged[tmp] = path
            with os.fdopen(fd, "w") as handle:
                os.fchmod(fd, 0o666 & ~mask)
                handle.write(text)
        for tmp, path in staged.items():
            os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return paths


def _check_output_dir(path: Path) -> None:
    """The nearest existing ancestor of ``path`` must be a directory that
    can be written and searched, so the run's files can be created."""
    base = path.absolute()
    while not os.path.exists(base):
        base = base.parent
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise ValidationError(f"cannot write {path}: {base} is not a "
                              "writable directory")


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
# Parameter checks: check(value, flag) returns the checked value or raises
# ValidationError naming the flag; check.argparse holds the flag's keywords
# ---------------------------------------------------------------------------

def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _num(kind=float, minimum=-math.inf, positive=False, optional=False,
         maximum=math.inf):
    """A finite number, not a bool, integral when ``kind`` is int, at least
    ``minimum``, at most ``maximum`` and, if ``positive``, above zero; None
    too if ``optional``."""
    def check(value, flag: str):
        if value is None and optional:
            return None
        v = value
        if not (kind is int and type(v) is int):
            try:
                v = math.nan if isinstance(v, bool) else float(v)
            except (TypeError, ValueError, OverflowError):
                v = math.nan
            if not math.isfinite(v) or kind is int and not v.is_integer():
                what = "an integer" if kind is int else "a finite number"
                raise ValidationError(f"{flag} must be {what}, got {value!r}")
            v = kind(v)
        if v < minimum or positive and v <= 0:
            bound = "positive" if positive else f"at least {minimum}"
            raise ValidationError(f"{flag} must be {bound}, got {v}")
        if v > maximum:
            raise ValidationError(f"{flag} must be at most {maximum}")
        return v
    check.argparse = {"type": kind}
    return check


_real = _num()
_positive_real = _num(positive=True)


def _choice(*options: str, required: bool = False):
    def check(value, flag: str) -> str:
        if value not in options:
            raise ValidationError(
                f"{flag} must be one of {', '.join(options)}, got {value!r}")
        return value
    check.argparse = {"choices": options, "required": required}
    return check


def _path(value, flag: str) -> str:
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValidationError(f"{flag} must be a path name, got {value!r}")
    return value


_path.argparse = {"type": str}


def _name(value, flag: str) -> str:
    if os.path.isabs(_path(value, flag)) or ".." in Path(value).parts:
        raise ValidationError(f"{flag} must stay inside --output-dir, got {value!r}")
    return value


_name.argparse = _path.argparse


def _regions(value, flag: str) -> list:
    """Rectangles re0,re1,im0,im1, each a string or a list of four numbers;
    None or an empty list gives the two default seed regions."""
    if value in (None, []):
        value = ["0.7,1.3,-0.4,0.4", "1.7,2.3,-0.2,0.2"]
    regions = []
    for item in value if isinstance(value, list) else [value]:
        parts = item.split(",") if isinstance(item, str) else item
        if not isinstance(parts, list) or len(parts) != 4:
            raise ValidationError(
                f"{flag} needs re0,re1,im0,im1 - got {item!r}")
        regions.append(tuple(_real(x, flag) for x in parts))
    return regions


_regions.argparse = {"action": "append"}


def _rect_rows(*corners: float) -> dict:
    return {key: (c, _real) for key, c in
            zip(("re_min", "re_max", "im_min", "im_max"), corners)}


def _rect(p: dict) -> tuple:
    r = (p["re_min"], p["re_max"], p["im_min"], p["im_max"])
    if r[0] >= r[1] or r[2] > r[3]:
        raise ValidationError(f"degenerate rectangle {r}")
    return r


def _window(p: dict, lo: str, hi: str):
    """The (lo, hi) pair of two optional rows, or None when both are unset."""
    if (p[lo] is None) != (p[hi] is None):
        raise ValidationError(f"{_flag(lo)} and {_flag(hi)} must be given "
                              "together")
    if p[lo] is not None and p[lo] > p[hi]:
        raise ValidationError(f"{_flag(lo)} must not exceed {_flag(hi)}")
    return None if p[lo] is None else (p[lo], p[hi])


# ---------------------------------------------------------------------------
# Command handlers: each takes the run config and the checked values and
# returns the run's files as {name under --output-dir: text}
# ---------------------------------------------------------------------------

def _longitudinal(p: dict):
    return longitudinal_spectrum({
        "zero": Zero(), "constant": Constant(p["v0_value"]),
        "square-well": SquareWell(p["well_depth"], p["well_width"])}[p["v0"]])


def _alpha_function(p: dict):
    alpha0, beta0, height = p["alpha0"], p["beta0"], p["bump_height"]
    width, center = p["bump_width"], p["bump_center"]
    if height == 0.0:
        return lambda x: beta0 + 1j * alpha0
    return lambda x: beta0 + 1j * (
        alpha0 + height * math.exp(-((x - center) / width) ** 2))


def _strip(p: dict):
    """The strip operator of the 2D grid rows."""
    v0 = p["v0_value"] if p["v0"] == "constant" else 0.0
    grid = GridSpec(a=p["a"], Lx=p["lx"], nx=p["nx"], ny=p["ny"],
                    x_boundary=XBoundary(p["x_boundary"]))
    return assemble_waveguide(grid, _alpha_function(p), lambda x, y: v0)


def _mode_table(a: float, alpha0: float, n_rows: int) -> list:
    exc = exceptional_set(a, alpha0)
    n_lattice = max(1, n_rows - 1, _min_lattice(a, alpha0))
    cut = n_rows
    if exc and cut == max(exc):
        cut += 1  # never split the degenerate pair across the table edge
    return transversal_modes(a, alpha0, n_lattice)[:cut]


def cmd_transversal(cfg: RunConfig, p: dict) -> dict:
    modes = _mode_table(p["a"], p["alpha0"], p["modes"])
    rows = [[str(m.mu_index), _fmt(m.lam), _fmt(m.indicator), m.type.value]
            for m in modes]
    return {p["out"]: _csv_text(
        cfg, "transversal Robin eigenvalues, parity indicators and types "
             "in sorted order", ["n", "lambda", "indicator", "type"], rows)}


def cmd_msets(cfg: RunConfig, p: dict) -> dict:
    dec = waveguide_m_sets(p["a"], p["alpha0"], _longitudinal(p),
                           window_max=p["window_max"], n_modes=p["n_modes"])
    return {p["out"]: _json_text(
        cfg, "typed decomposition of the waveguide spectral support",
        dec.to_json_obj())}


def cmd_secular(cfg: RunConfig, p: dict) -> dict:
    a, alpha0, beta0 = p["a"], p["alpha0"], p["beta0"]
    roots = secular_roots(a, alpha0, beta0, _rect(p), tol=p["tol"])
    rows = [[_fmt(r.real), _fmt(r.imag),
             _fmt(abs(secular_value(r, a, alpha0, beta0)))] for r in roots]
    return {p["out"]: _csv_text(
        cfg, "certified secular-equation roots in a rectangle",
        ["re_k", "im_k", "residual"], rows,
        extra_comments=[f"winding: {len(roots)}"])}


def cmd_branches(cfg: RunConfig, p: dict) -> dict:
    a, alpha0 = p["a"], p["alpha0"]
    samples = np.linspace(p["beta0_min"], p["beta0_max"], p["samples"])
    seeds = []
    for region in p["seed_region"]:
        seeds.extend(secular_roots(a, alpha0, p["beta0_min"], region,
                                   tol=p["tol"]))
    tables = branch_curves(a, alpha0, samples, seeds, tol=p["tol"])
    return {f"{p['out_prefix']}{i}.csv": _csv_text(
        cfg, f"secular root branch {i} tracked along the real coupling "
             "offset", ["beta0", "re_k", "im_k"],
        [[_fmt(q.beta0), _fmt(q.k.real), _fmt(q.k.imag)] for q in table])
        for i, table in enumerate(tables, start=1)}


def cmd_tensor_check(cfg: RunConfig, p: dict) -> dict:
    result = run_campaign(cfg.seed, p["instances"],
                          tol=cfg.tolerances["gram"], dim_cap=p["dim_cap"])
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
    return {p["out"]: _json_text(
        cfg, "randomized Kronecker-sum type-prediction campaign", payload)}


def cmd_spectrum2d(cfg: RunConfig, p: dict) -> dict:
    window = _window(p, "window_lo", "window_hi")
    pairs = eigs_near(_strip(p), complex(p["target_re"], p["target_im"]),
                      p["count"], tol=cfg.tolerances["residual"])
    rep = (None if window is None
           else realness_report(pairs, window, p["imag_tol"]))
    rows = [[_fmt(lam.real), _fmt(lam.imag), _fmt(res)] for lam, res in pairs]
    files = {p["out"]: _csv_text(
        cfg, "strip-operator eigenvalues nearest the target",
        ["re_lambda", "im_lambda", "residual"], rows)}
    if rep is not None:
        files[p["report_out"]] = _json_text(
            cfg, "realness screen of windowed eigenvalues", rep.to_json_obj())
    return files


def cmd_pseudospectrum(cfg: RunConfig, p: dict) -> dict:
    rect = _rect(p)
    window = _window(p, "fit_window_lo", "fit_window_hi")
    pmap = pseudospectrum_map(_strip(p), rect, p["mx"], p["my"],
                              dense_cutoff=p["dense_cutoff"])
    fit = None if window is None else imag_bound_fit(
        pmap, window, im_band=(p["fit_band_lo"], p["fit_band_hi"]))
    rows = []
    for iy in range(pmap.lambdas.shape[0]):
        for ix in range(pmap.lambdas.shape[1]):
            lam = pmap.lambdas[iy, ix]
            rows.append([_fmt(lam.real), _fmt(lam.imag),
                         _fmt(pmap.sigmas[iy, ix]),
                         "1" if pmap.flagged[iy, ix] else "0"])
    files = {p["out"]: _csv_text(
        cfg, "smallest singular value of (H - lambda) over a rectangle",
        ["re_lambda", "im_lambda", "sigma_min", "flagged"], rows)}
    if fit is not None:
        files[p["fit_out"]] = _json_text(
            cfg, "log-log fit of |Im lambda| against sigma_min",
            fit.to_json_obj())
    return files


def cmd_figures(cfg: RunConfig, p: dict) -> dict:
    alphas = np.linspace(p["alpha0_min"], p["alpha0_max"], p["alpha0_samples"])
    if p["which"] == "fig1":
        rows = []
        for alpha0 in alphas:
            for m in _mode_table(p["a"], float(alpha0), p["modes"]):
                rows.append([_fmt(alpha0), str(m.mu_index), _fmt(m.lam),
                             m.type.value])
        return {"fig1.csv": _csv_text(
            cfg, "transversal eigenvalue curves and types against the "
                 "imaginary coupling strength",
            ["alpha0", "n", "lambda", "type"], rows)}
    if p["which"] == "fig2":
        long = longitudinal_spectrum(Zero())
        rows = []
        for alpha0 in alphas:
            dec = waveguide_m_sets(p["a"], float(alpha0), long,
                                   window_max=p["window_max"])
            for name, part in (("pp", dec.sigma_pp), ("mm", dec.sigma_mm),
                               ("00", dec.sigma_00)):
                for iv in part.intervals:
                    rows.append([_fmt(alpha0), name, _fmt(iv.lower),
                                 "inf" if math.isinf(iv.upper) else _fmt(iv.upper),
                                 "1" if iv.lower_closed else "0",
                                 "1" if iv.upper_closed else "0"])
        return {"fig2.csv": _csv_text(
            cfg, "typed spectral-support intervals against the imaginary "
                 "coupling strength",
            ["alpha0", "set", "lower", "upper", "lower_closed",
             "upper_closed"], rows)}
    sub = replace(cfg, command="branches",
                  parameters={**cfg.parameters, "out_prefix": "fig3_branch"})
    return cmd_branches(sub, {**p, "out_prefix": "fig3_branch"})


# ---------------------------------------------------------------------------
# The parameter table, command -> (handler, help, rows) with each row
# name -> (default, check).  It builds every flag, and every flag and config
# entry is checked by its row.
# ---------------------------------------------------------------------------

_COMMON = {
    "output_dir": (".", _path),
    "seed": (0, _num(int, 0)),
}

_GRID = {
    "a": (math.pi / 2, _positive_real),
    "alpha0": (0.5, _real),
    "beta0": (0.0, _real),
    "lx": (10.0, _positive_real),
    "nx": (64, _num(int, 8)),
    "ny": (24, _num(int, 8)),
    "x_boundary": ("dirichlet", _choice("dirichlet", "periodic")),
    "v0": ("zero", _choice("zero", "constant")),
    "v0_value": (0.0, _real),
    "bump_height": (0.0, _real),
    "bump_width": (1.0, _positive_real),
    "bump_center": (0.0, _real),
}

_BRANCHES = {
    "a": (math.pi / 2, _positive_real),
    "alpha0": (1.0, _real),
    "beta0_min": (-0.1, _real),
    "beta0_max": (-0.001, _real),
    "samples": (16, _num(int, 2, maximum=100_000)),
    "seed_region": (None, _regions),
    "tol": (1e-12, _positive_real),
}

COMMANDS = {
    "transversal": (cmd_transversal, "closed-form transversal modes", {
        "a": (math.pi / 2, _positive_real),
        "alpha0": (0.5, _real),
        "modes": (10, _num(int, 1)),
        "out": ("transversal.csv", _name),
    }),
    "msets": (cmd_msets, "typed decomposition of the spectrum", {
        "a": (math.pi / 2, _positive_real),
        "alpha0": (0.5, _real),
        "v0": ("zero", _choice("zero", "constant", "square-well")),
        "v0_value": (0.0, _real),
        "well_depth": (1.0, _positive_real),
        "well_width": (2.0, _positive_real),
        "window_max": (25.0, _real),
        "n_modes": (None, _num(int, 1, optional=True)),
        "out": ("msets.json", _name),
    }),
    "secular": (cmd_secular, "certified roots of the secular function", {
        "a": (math.pi / 2, _positive_real),
        "alpha0": (1.0, _real),
        "beta0": (-0.05, _real),
        **_rect_rows(0.7, 1.3, -0.4, 0.4),
        "tol": (1e-12, _positive_real),
        "out": ("secular_roots.csv", _name),
    }),
    "branches": (cmd_branches, "track secular roots over beta0", {
        **_BRANCHES,
        "out_prefix": ("branch", _name),
    }),
    "tensor-check": (cmd_tensor_check,
                     "randomized Kronecker-sum prediction campaign", {
        "instances": (200, _num(int, 1, maximum=100_000)),
        "dim_cap": (4096, _num(int, 1)),
        "out": ("campaign.json", _name),
    }),
    "spectrum2d": (cmd_spectrum2d, "strip eigenvalues near a target", {
        **_GRID,
        "target_re": (0.3, _real),
        "target_im": (0.0, _real),
        "count": (6, _num(int, 1)),
        "window_lo": (None, _num(optional=True)),
        "window_hi": (None, _num(optional=True)),
        "imag_tol": (1e-7, _real),
        "out": ("spectrum2d.csv", _name),
        "report_out": ("realness.json", _name),
    }),
    "pseudospectrum": (cmd_pseudospectrum,
                       "sigma_min sweep over a rectangle", {
        **_GRID,
        **_rect_rows(0.3, 0.9, 0.02, 0.15),
        "mx": (13, _num(int, 1, maximum=1_000)),
        "my": (7, _num(int, 1, maximum=1_000)),
        "dense_cutoff": (400, _num(int, 0, maximum=2_000)),
        "fit_window_lo": (None, _num(optional=True)),
        "fit_window_hi": (None, _num(optional=True)),
        "fit_band_lo": (0.03, _real),
        "fit_band_hi": (0.12, _real),
        "out": ("pseudospectrum.csv", _name),
        "fit_out": ("fit.json", _name),
    }),
    "figures": (cmd_figures, "plot-ready CSV data sets", {
        "which": (None, _choice("fig1", "fig2", "fig3", required=True)),
        **_BRANCHES,
        "alpha0_min": (0.05, _real),
        "alpha0_max": (3.0, _real),
        "alpha0_samples": (60, _num(int, 2, maximum=10_000)),
        "modes": (6, _num(int, 1, maximum=100)),
        "window_max": (25.0, _real),
    }),
}

_HELP = {
    "modes": "number of modes listed, lowest first",
    "n_modes": "pin the transversal mode count instead of deriving it from "
               "the window",
    "seed_region": "re0,re1,im0,im1 rectangle solved for seed roots at "
                   "beta0-min (repeatable)",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinspec",
        description="Spectral-type toolbox for J-self-adjoint models: "
                    "closed forms, certified roots, type predictions, and "
                    "pseudospectrum sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"kreinspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, rows) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file whose entries override the flags")
        for key, (default, check) in {**_COMMON, **rows}.items():
            p.add_argument(_flag(key), default=default, help=_HELP.get(key),
                           **check.argparse)
    return parser


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """Merge the flags with the config file and check every value by its
    table row.  Returns the run config, whose parameters are the merged
    values as given (their hash heads every output), and the checked values.
    An output directory that cannot be created is refused here, before any
    work."""
    merged = {k: v for k, v in vars(args).items()
              if k not in ("command", "config")}
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
        unknown = set(doc) - set(merged)
        if unknown:
            raise ValidationError(
                f"config keys {sorted(unknown)} do not match any "
                f"{args.command} parameter")
        merged.update(doc)
    rows = {**_COMMON, **COMMANDS[args.command][2]}
    p = {key: check(merged[key], _flag(key))
         for key, (_, check) in rows.items()}
    cfg = RunConfig(command=args.command,
                    parameters={k: v for k, v in merged.items()
                                if k not in _COMMON},
                    output_dir=Path(p["output_dir"]), seed=p["seed"],
                    tolerances=tolerances)
    _check_output_dir(cfg.output_dir)
    return cfg, p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg, p = resolve_config(args)
        files = COMMANDS[cfg.command][0](cfg, p)
        for path in _write_all(cfg.output_dir, files):
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
