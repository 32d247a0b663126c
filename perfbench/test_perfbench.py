"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    def generate(seed, sub):
        path = tmp_path / sub
        path.mkdir()
        workloads.GENERATORS[name](seed, str(path))
        return {role: (path / fname).read_bytes()
                for role, fname in workloads.INPUTS[name].items()}

    first, again, other = generate(7, "a"), generate(7, "b"), generate(8, "c")
    assert first == again
    assert first != other


ZIGZAG_GRAM = np.array([[10.0, 2.0, -5.0], [2.0, 4.0, 2.0], [-5.0, 2.0, 5.0]])


def test_certificate_check_accepts_the_optimum_and_rejects_a_perturbation():
    psi = np.zeros(3)
    assert workloads.certificate_problems(ZIGZAG_GRAM, psi, {0: 0.4, 2: 0.6}) == []
    assert workloads.certificate_problems(ZIGZAG_GRAM, psi, {0: 0.45, 2: 0.55})
    assert workloads.certificate_problems(ZIGZAG_GRAM, psi, {0: 0.4, 1: 0.01, 2: 0.59})


def test_perturbed_output_counts_as_failed(tmp_path):
    import topiary.cli

    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    wl = workloads.gen_portfolio(3, str(in_dir))
    jobs = run.Jobs(topiary.cli, wl, str(out_dir))
    _, _, stdout = jobs.run()
    assert (jobs.attempted, jobs.failed) == (1, 0), jobs.problems

    path = wl.outputs(str(out_dir))["portfolio"]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    held = {e["point"] for e in payload["weights"]}
    payload["weights"][0]["weight"] -= 0.01
    spare = min(set(range(workloads.PORTFOLIO_ASSETS)) - held)
    payload["weights"].append({"label": "A%02d" % spare, "point": spare, "weight": 0.01})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)

    assert wl.check(str(out_dir), stdout)
    jobs.record(str(out_dir), [0], stdout)
    assert (jobs.attempted, jobs.failed) == (2, 1)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    rec = tracer.Recorder()
    job = rec.name_id("cli.job", "cli")
    solve = rec.name_id("solver.solve", "solver")
    lu = rec.name_id("scipy.linalg.lu_factor", None)
    margins = rec.name_id("objective.margins", "objective")
    root = tracer.ROOT
    rec.spans[:] = [
        (job, 0.0, 10.0, root, 0),
        (solve, 1.0, 7.0, 0, 0),
        (lu, 2.0, 4.0, 1, 0),  # a solver LU
        (margins, 4.5, 5.0, 1, 0),
        (lu, 8.0, 9.0, 0, 0),  # an LU the cli layer made
        (job, 20.0, 21.0, root, 1),  # another job
    ]
    spans = tracer.job_spans(rec, 0)
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.5, 2.0, 0.5, 1.0])
    totals = tracer.layer_self_times(spans, rec.layers)
    assert totals == pytest.approx({"cli": 4.0, "solver": 5.5, "objective": 0.5})
    assert sum(totals.values()) == pytest.approx(10.0)  # self times tile the job

    m = tracer.job_metrics(rec, 0)
    assert m["solver.solve_s"] == pytest.approx(3.5)
    assert (m["solver.lu_calls"], m["solver.lu_s"]) == (1, pytest.approx(2.0))
    assert (m["objective.calls"], m["objective.s"]) == (1, pytest.approx(0.5))
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert tracer.job_metrics(rec, 1)["cli.self_s"] == pytest.approx(1.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import topiary
    from topiary import maze, portfolio, solver

    original = solver.solve
    rec = tracer.Recorder()
    rec.install()
    try:
        assert solver.solve is not original
        assert portfolio.solve is solver.solve is maze.solve
        rec.job = 0
        kern = topiary.euclidean([(-3.0, 1.0), (0.0, 2.0), (2.0, 1.0)])
        result = solver.solve(kern, topiary.PsiSpec.zero(kern))
    finally:
        rec.uninstall()
    assert solver.solve is original and portfolio.solve is original
    names = [rec.names[span[0]] for span in rec.spans]
    assert names.count("kernel.euclidean") == 1
    assert "solver.solve" in names and "kernel.Kernel.duplicate_groups" in names
    m = tracer.job_metrics(rec, 0)
    assert m["solver.iterations"] == result.iterations
    assert m["solver.support"] == len(result.support()) == 2
    assert m["kernel.psd_calls"] == 1


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    listed = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    assert listed == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.GENERATORS)
