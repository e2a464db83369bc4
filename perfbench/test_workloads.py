"""Checks on the benchmark itself: the closed-form answers of every workload
family against the brute-force reference in tests/oracle.py, the seeding
rules, answer verification, and the span tracer.

    PYTHONPATH=src python3 -m pytest perfbench
"""
from __future__ import annotations

import importlib
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402
from kmcheck import checker  # noqa: E402
from kmcheck.dsl import parse_system  # noqa: E402

SMALL = [
    (W.pipeline, (3,), 10), (W.pipeline, (4,), 10), (W.pipeline, (5,), 10),
    (W.fanout, (2,), 10), (W.fanout, (3,), 10), (W.fanout, (4,), 10),
    (W.burst_unsafe, (2, 1), 3), (W.burst_unsafe, (4, 1), 5),
    (W.burst_unsafe, (3, 1), 4), (W.burst_unsafe, (2, 2), 4),
    (W.flooded_pipeline, (3, 1), 1), (W.flooded_pipeline, (3, 3), 3),
    (W.flooded_pipeline, (4, 2), 2),
    (W.nested_rec, (2,), 10), (W.nested_rec, (3,), 10), (W.nested_rec, (4,), 10),
    (W.wide_choice, (2,), 10), (W.wide_choice, (5,), 10),
    (W.looping_sequence, (1,), 10), (W.looping_sequence, (6,), 10),
]


def _id(member) -> str:
    family, args, _ = member
    return f"{family.__name__}{args}"


def oracle_answer(system, max_bound: int):
    """(verdict, k, configurations, violations, explored) by brute force.

    Violations are counted the way the checker keys them: one per stuck
    (role, state) and one per (sender, receiver, receiver state) holding an
    unreadable message."""
    verdict = oracle.oracle_verdict(system, max_bound)
    last = verdict["k"] or max_bound
    sizes = [oracle.graph_counts(system, k)[0] for k in range(1, last + 1)]
    violations = 0
    if verdict["class"] == "unsafe":
        graph = oracle.explore(system, last)
        order = sorted(system.roles)
        stuck = {(p, s) for _, p, s in oracle.stuck_receivers(system, graph)}
        rotten = {(p, q, cfg[0][order.index(q)])
                  for cfg, p, q, _, _ in oracle.unreceived(system, graph)}
        violations = len(stuck) + len(rotten)
    return verdict["class"], verdict["k"], sizes[-1], violations, sum(sizes)


@pytest.mark.parametrize("member", SMALL, ids=_id)
def test_closed_forms_match_oracle(member):
    family, args, max_bound = member
    case = W.make_case("small", family, args, max_bound, seed=5)
    want = case.expected
    got = oracle_answer(parse_system(case.text), max_bound)
    assert got == (want.verdict, want.k, want.configurations, want.violations, want.explored)


@pytest.mark.parametrize("member", SMALL, ids=_id)
def test_checker_report_verifies(member, tmp_path):
    family, args, max_bound = member
    case = W.make_case("small", family, args, max_bound, seed=6)
    path = tmp_path / "in.kmc"
    path.write_text(case.text)
    systems = {case.name: parse_system(case.text)}
    _, outcomes = worker.run_pass([case], [path])
    tally = worker.Tally()
    tally.add(outcomes, systems)
    assert (tally.matched, tally.failed, tally.problems) == (1, 0, [])


def test_verify_rejects_wrong_answers(tmp_path):
    case = W.make_case("small", W.burst_unsafe, (2, 1), 3, seed=1)
    path = tmp_path / "in.kmc"
    path.write_text(case.text)
    system = parse_system(case.text)
    (_, code, stdout), = worker.run_pass([case], [path])[1]
    assert worker.verify(case, code, stdout, system) is None
    report = json.loads(stdout)

    def tampered(edit) -> str:
        copy = json.loads(stdout)
        edit(copy)
        return json.dumps(copy)

    assert worker.verify(case, 0, stdout, system) is not None
    assert worker.verify(case, RuntimeError("boom"), "", system) is not None
    assert worker.verify(case, code, "not json", system) is not None
    assert worker.verify(case, code, tampered(
        lambda r: r["stats"].update(configurations=1)), system) is not None
    assert worker.verify(case, code, tampered(
        lambda r: r["violations"].pop()), system) is not None
    bad = report["violations"][0]["trace"][0] | {"label": "nolabel"}
    assert worker.verify(case, code, tampered(
        lambda r: r["violations"][0]["trace"].insert(0, bad)), system) is not None


def test_seed_renames_and_reorders_but_keeps_answers():
    for name, family, args, max_bound in W.WORKLOADS["graphs"][2:]:
        a = W.make_case(name, family, args, max_bound, seed=1)
        b = W.make_case(name, family, args, max_bound, seed=2)
        assert a.text != b.text
        assert a.expected == b.expected
        assert a == W.make_case(name, family, args, max_bound, seed=1)
        roles = lambda c: sorted(len(line.split(":", 1)[1]) for line in c.text.splitlines())
        assert roles(a) == roles(b)  # same bodies up to names of equal length


def test_workload_answers_are_the_ones_the_benchmark_names():
    answers = {c.name: c.expected for w in W.WORKLOADS for c in W.make_workload(w, 0)}
    assert answers["pipeline9"].configurations == 32_768
    assert answers["fanout8"].configurations == 13_120
    assert answers["flooded-pipeline4"].configurations == 26_244
    assert answers["flooded-pipeline4"].explored == 61_328
    assert (answers["burst-unsafe4x3"].k, answers["burst-unsafe4x3"].violations) == (4, 15)
    assert max(a.configurations for n, a in answers.items()
               if n.startswith(("nested", "wide", "looping"))) == 240


def _traced_check(tracer, tmp_path, case):
    path = tmp_path / "in.kmc"
    path.write_text(case.text)
    tracer.install()
    try:
        first = len(tracer.spans)
        worker.run_pass([case], [path], tracer)
    finally:
        tracer.uninstall()
    return first


def test_tracer_spans_counts_and_self_times(tmp_path):
    def resolve(target):
        module, attr = target.split(".")
        return getattr(importlib.import_module(f"kmcheck.{module}"), attr)

    originals = {target: resolve(target) for target, _ in spans.BOUNDARIES}
    case = W.make_case("small", W.burst_unsafe, (2, 2), 4, seed=3)
    tracer = spans.Tracer()
    tracer.size_graphs = True
    first = _traced_check(tracer, tmp_path, case)
    assert {target: resolve(target) for target in originals} == originals
    assert tracer.missing == []

    m = spans.layer_metrics(tracer, first)
    assert set(m) == set(spans.LAYER_METRICS)
    roles = 6
    assert m["model.check_type_calls"] == 2 * roles
    assert m["semantics.explore_calls"] == 2
    assert m["semantics.configs"] == case.expected.explored
    assert m["semantics.useful_ratio"] == case.expected.configurations / case.expected.explored
    assert m["checker.violations"] == case.expected.violations
    assert m["checker.trace_steps"] > 0 and m["checker.obligations"] > 0
    assert spans.bytes_per_config(tracer) > 100

    top = [s for s in tracer.spans[first:] if s["parent"] is None]
    assert [s["name"] for s in top] == [spans.CLI_SPAN]
    self_total = sum(v for k, v in m.items() if spans.LAYER_METRICS[k][0] == "s")
    sizing = tracer.sizing_s(first)
    assert self_total + sizing == pytest.approx(top[0]["end"] - top[0]["start"])


def test_missing_boundary_is_reported_not_zero(tmp_path, monkeypatch):
    monkeypatch.delattr(checker, "extract_trace")
    monkeypatch.setattr(checker, "check_safety", lambda system, graph: ())
    tracer = spans.Tracer()
    case = W.make_case("small", W.pipeline, (3,), 10, seed=3)
    first = _traced_check(tracer, tmp_path, case)
    assert tracer.missing == ["checker.extract_trace"]
    m = spans.layer_metrics(tracer, first)
    assert "checker.trace_s" not in m and "checker.trace_steps" not in m
    assert "checker.safety_s" in m
    assert not hasattr(checker, "extract_trace")


def test_lost_count_is_reported(tmp_path, monkeypatch):
    tracer = spans.Tracer()
    real = spans.COUNTERS["model.local_type_to_machine"]
    monkeypatch.setitem(spans.COUNTERS, "model.local_type_to_machine",
                        lambda args, r: real(args, None))
    case = W.make_case("small", W.pipeline, (3,), 10, seed=3)
    first = _traced_check(tracer, tmp_path, case)
    assert tracer.missing == ["model.local_type_to_machine counts"]
    m = spans.layer_metrics(tracer, first)
    assert "model.states" not in m and "model.compile_s" not in m
    assert "dsl.parse_s" in m
