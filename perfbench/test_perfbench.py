"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

import kreinspec as ks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def tiny(name, tmp_path):
    if name == "kron_campaign":
        # nine instances stop just short of the cycle's one big instance
        return wl.KronCampaign(n_instances=9, big_dims=())
    if name == "strip_pseudospectrum":
        return wl.StripPseudospectrum(nx=64, ny=12, Lx=10.0)
    return wl.RobinGuide(work_dir=tmp_path, n_couplings=1, n_fd=41, modes=4,
                         cli_calls=wl.CLI_CALLS[:4])


def one_pass(workload, inputs, tracer):
    records, artefacts = workload.run_pass(inputs, tracer)
    verdicts, extra = workload.judge(inputs, records, artefacts)
    return records, verdicts, extra


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_smoke_traced_and_untraced_agree(name, tmp_path):
    workload = tiny(name, tmp_path)
    inputs = workload.setup(workload.select(7))
    plain = one_pass(workload, inputs, tr.NullTracer())
    tracer = tr.Tracer()
    patches = tr.instrument(tracer)
    try:
        traced = one_pass(workload, inputs, tracer)
    finally:
        tr.restore(patches)
    assert plain[0], "a pass must attempt at least one unit"
    assert traced[0] == plain[0]  # same records, CLI digests included
    assert traced[1] == plain[1]
    assert tracer.spans and all(s["end"] >= s["start"] for s in tracer.spans)
    metrics = tr.layer_metrics(tracer)
    assert all(isinstance(v, (int, float)) for v, _ in metrics.values())


def test_kron_records_follow_the_campaign(tmp_path):
    workload = tiny("kron_campaign", tmp_path)
    inputs = workload.setup(workload.select(3))
    records, verdicts, _ = one_pass(workload, inputs, tr.NullTracer())
    assert [r["kind"] for r in records] == list(
        ks.tensorsum._CAMPAIGN_CYCLE[:9])
    # the generator's ground truth for jordan factors is not definite
    jordan = [r for r in records if r["kind"] == "jordan"]
    assert all(r["errors"] or verdicts[r["unit"]] is None for r in jordan)


def test_kron_select_hits_the_big_profile():
    workload = wl.KronCampaign(n_instances=20, big_dims=(64, 100))
    seed = workload.select(5)
    dims = sorted(f1.n * f2.n for kind, f1, f2 in workload._replay(seed)
                  if kind == "big")
    assert dims == [64, 100]
    assert workload.select(5) == seed


def test_strip_tiny_checks_against_reference(tmp_path):
    workload = tiny("strip_pseudospectrum", tmp_path)
    inputs = workload.setup(workload.select(1))
    records, verdicts, extra = one_pass(workload, inputs, tr.NullTracer())
    assert [r["unit"] for r in records] == list(wl.STRIP_OPERATORS)
    assert set(inputs["refs"]) == set(wl.STRIP_OPERATORS)
    assert extra["sigma_rel_err_max"][0] >= 0.0


def test_cli_byte_change_fails_the_unit(tmp_path):
    workload = tiny("robin_guide", tmp_path)
    inputs = workload.setup(workload.select(1))
    records, verdicts, _ = one_pass(workload, inputs, tr.NullTracer())
    assert all(v is None for v in verdicts.values())
    cli = next(r for r in records if "digest" in r)
    cli["digest"] = "0" * 64
    again, _ = workload.judge(inputs, records, None)
    assert again[cli["unit"]] == "output-bytes-changed"


def test_only_known_defects_keep_a_run_correct(tmp_path):
    kron = tiny("kron_campaign", tmp_path)
    jordan = {"unit": "instance-2", "kind": "jordan", "violations": 0,
              "errors": ["NumericalError"]}
    assert kron.known_defect(jordan, "NumericalError")
    assert not kron.known_defect({**jordan, "kind": "big"}, "NumericalError")
    assert not kron.known_defect(jordan, "rederived-types-differ")
    campaign_raised = {k: v for k, v in jordan.items() if k != "violations"}
    assert not kron.known_defect(campaign_raised, "NumericalError")
    strip = tiny("strip_pseudospectrum", tmp_path)
    assert strip.known_defect({}, "sigma-rel-err")
    assert not strip.known_defect({}, "NumericalError")

    robin = tiny("robin_guide", tmp_path)
    inputs = robin.setup(robin.select(1))
    records, _ = robin.run_pass(inputs, tr.NullTracer())
    passes = [("untraced", 0.0, records, None)]
    assert not run.unexpected_failures(
        robin, passes, [robin.judge(inputs, records, None)])
    records[0]["types"][0] = ("positive", "negative")
    assert run.unexpected_failures(
        robin, passes, [robin.judge(inputs, records, None)]) == {
            "type-disagreement": 1}


def test_span_cost_is_positive_and_small():
    assert 0.0 < tr.span_cost_s() < 1e-3


def test_instrument_restores_every_attribute():
    namespaces = tr._kreinspec_namespaces()
    before = [dict(vars(ns)) for ns in namespaces]
    splu = scipy.sparse.linalg.splu
    tracer = tr.Tracer()
    patches = tr.instrument(tracer)
    try:
        assert ks.classify_point is not before[0]["classify_point"]
        assert ks.cli.main.__wrapped__ is not None
        assert scipy.sparse.linalg.splu is not splu
        assert len(patches) > 40
    finally:
        tr.restore(patches)
    assert scipy.sparse.linalg.splu is splu
    for ns, old in zip(namespaces, before):
        now = vars(ns)
        assert all(now[k] is v for k, v in old.items()), ns.__name__


def test_spans_give_self_time_and_lu_counts():
    grid = ks.GridSpec(a=wl.A, Lx=10.0, nx=48, ny=10)
    tracer = tr.Tracer()
    patches = tr.instrument(tracer)
    try:
        with tracer.unit_scope("u"):
            op = ks.assemble_waveguide(grid, wl._constant_coupling,
                                       wl._zero_potential)
            ks.pseudospectrum_map(op, (0.4, 0.5, 0.05, 0.05), 2, 1,
                                  dense_cutoff=0)
    finally:
        tr.restore(patches)
    m = tr.layer_metrics(tracer)
    assert m["waveguide2d.lu.factorizations"][0] == 2
    assert m["waveguide2d.lu.solves"][0] >= 4
    assert m["waveguide2d.lu.solves_per_node_max"][0] <= 600
    assert m["transversal.robin_fd.calls"][0] == 48
    assert all(s["unit"] == "u" for s in tracer.spans)
    node = m["waveguide2d.pseudospectrum_map.busy_s"][0]
    assert 0.0 < m["waveguide2d.lu.solve_busy_s"][0] < node


def test_reference_methods_agree_on_the_separable_strip():
    grid = ks.GridSpec(a=wl.A, Lx=10.0, nx=80, ny=12)
    op = ks.assemble_waveguide(grid, wl._constant_coupling, wl._zero_potential)
    Ty, mu = reference.separable_blocks(op.H, grid.nx, grid.ny, grid.hx)
    for lam in (0.36 + 0.035j, 0.83 + 0.035j, 2.0 + 0.1j):
        sine = reference.sigma_min_sine(Ty, mu, lam)
        arpack = reference.sigma_min_arpack(op.H, lam)
        dense = np.linalg.svd(op.H.toarray() - lam * np.eye(op.dim),
                              compute_uv=False)[-1]
        assert abs(sine - arpack) <= 1e-8 * sine
        assert abs(sine - dense) <= 1e-8 * sine
    bump = ks.assemble_waveguide(grid, wl._bump_coupling, wl._zero_potential)
    with pytest.raises(reference.ReferenceFailure):
        reference.separable_blocks(bump.H, grid.nx, grid.ny, grid.hx)


def test_benchmark_json_names_metrics_the_run_produces():
    spec = json.loads(run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    units = {k: u for k, (_, u) in tr.layer_metrics(tr.Tracer()).items()}
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.span_cost_us": "us",
                  "trace.spans": "count", "known_defect_units": "count"})
    assert all(units[m["name"]] == m["unit"] for m in spec["per_layer"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "robin_guide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
