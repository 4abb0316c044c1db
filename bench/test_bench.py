"""Tests of the benchmark itself: the input renderer, the expected
literals, the tracing wrappers and the failure accounting.

    python -m pytest bench
"""

import json

from quasicartan import cli, finring, groupoid as gpd, twist

import jobs
import run
import spans

SEEDS = (0, 7)

# the jobs that take under about a second each
QUICK = {
    "classify/m2_gf4", "classify/m2_z4", "classify/z4_klein",
    "reconstruct/m2_z4", "reconstruct/z2_gf5_twisted", "reconstruct/klein_gf3",
    "units_gf5_c4", "units_z9_c3", "units_gf2_c8",
    "compare_c2cubed", "compare_full6", "check_full6", "upp_z2",
}


def _all_jobs(seed):
    return [job for make in jobs.WORKLOADS.values() for job in make(seed)]


def _parse_back(job):
    """The ring, groupoid and cocycles that the CLI reads from job.text."""
    doc = cli.parse_input(job.text)
    R = cli.build_ring(doc)
    _, _, cocycles, group_section = job.source
    if group_section:
        G = gpd.group_as_groupoid(cli._parse_group(doc.sections["group"][0][1]))
    else:
        G = cli.build_groupoid(doc)
    return R, G, {s: cli.build_cocycle(doc, R, G, s) for s in cocycles}


def test_rendered_inputs_parse_back_to_the_same_cocycles():
    texts = {}
    for seed in SEEDS:
        for job in _all_jobs(seed):
            texts.setdefault(job.name, set()).add(job.text)
            if job.source is None:
                continue
            ring, G, cocycles, _ = job.source
            R, G2, parsed = _parse_back(job)
            # the CLI keeps the arrow order, so arrows correspond by position
            arrow = dict(zip(G.arrows, G2.arrows))
            assert len(G2.arrows) == len(G.arrows)
            for (a, b), ab in G.compose.items():
                assert G2.compose[(arrow[a], arrow[b])] == arrow[ab]
            for section, c in cocycles.items():
                for (a, b), v in c.values.items():
                    got = parsed[section].value(arrow[a], arrow[b])
                    assert R.label(got) == ring.label(v), (job.name, section)
    # the seed reaches the inputs, and the same seed gives the same inputs
    assert any(len(t) == len(SEEDS) for t in texts.values())
    assert [j.text for j in _all_jobs(3)] == [j.text for j in _all_jobs(3)]


def test_quick_jobs_match_their_literals_at_two_seeds(tmp_path):
    ran = 0
    for seed in SEEDS:
        for job in _all_jobs(seed):
            if job.name not in QUICK:
                continue
            path = tmp_path / f"{seed}-{job.name.replace('/', '_')}.txt"
            path.write_text(job.text, encoding="utf-8")
            assert run.run_job(cli, job, str(path)), (seed, job.name)
            ran += 1
    assert ran == 2 * len(QUICK)


def _targets(modules):
    return [spans.resolve(modules, module, path)[2]
            for module, path, *_ in spans.SPANNED + spans.COUNTED]


def test_tracing_wraps_every_binding_and_restores_the_originals(tmp_path):
    modules = spans.package_modules()
    targets = _targets(modules)
    before = [spans.bindings(modules, fn) for fn in targets]
    by_name = {(modules["twist"], "validate_groupoid"),
               (modules["twist"], "make_groupoid"),
               (modules["reconstruct"], "make_groupoid"),
               (modules["reconstruct"], "validate_groupoid")}
    bound = {b for found in before for b in found}
    assert by_name <= bound
    tracer = spans.Tracer()
    with spans.traced(tracer, modules) as patches:
        for fn in targets:
            assert spans.bindings(modules, fn) == []
        for owner, attr, original, wrapper in patches:
            assert vars(owner)[attr] is wrapper
            assert wrapper.__wrapped__ is original
        assert {(o, a) for o, a, *_ in patches} == bound
        job = jobs.rendered_job(
            "tiny", "reconstruct", {}, finring.make_gf(3),
            gpd.full_relation(2), {"cocycle": twist.trivial_cocycle(
                finring.make_gf(3), gpd.full_relation(2))})
        path = tmp_path / "tiny.txt"
        path.write_text(job.text, encoding="utf-8")
        with tracer.span("cli.job"):
            run.run_job(cli, job, str(path))
    for fn, found in zip(targets, before):
        assert spans.bindings(modules, fn) == found
    for *_, wrapper in patches:
        assert spans.bindings(modules, wrapper) == []
    # the wrapped calls were seen, by-name imports included
    assert tracer.counts["groupoid.validate_groupoid.calls"] > 0
    assert tracer.counts["pairs.mul.calls"] > 0
    assert tracer.self_seconds()["pairs.dagger_of"] > 0


def test_failures_are_counted_without_stopping_the_run(tmp_path):
    R, G = finring.make_gf(3), gpd.full_relation(2)
    cocycles = {"cocycle": twist.trivial_cocycle(R, G)}
    good = jobs.rendered_job("good", "classify", jobs._flags(), R, G, cocycles)
    source = (R, G, cocycles, False)
    capped = jobs.Job("capped", "classify",
                      jobs.render(*source, options=["cap = 10"]),
                      jobs._flags(), source=source)
    wrong = jobs.rendered_job("wrong", "classify", jobs._flags("adp"),
                              R, G, cocycles)
    raises = jobs.Job("raises", "no_such_command", good.text, {})
    listed = []
    for job in (capped, good, wrong, raises, good):
        path = tmp_path / f"{job.name}.txt"
        path.write_text(job.text, encoding="utf-8")
        listed.append((job, str(path)))
    assert cli.main(["classify", listed[0][1]]) == 2
    tally = run.Tally()
    run.run_pass(cli, listed, tally)
    assert (tally.attempted, tally.failed) == (5, 3)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_names = list(spans.layer_metrics(spans.Tracer())) + run.OVERHEAD
    assert [m["name"] for m in spec["per_layer"]] == layer_names
