"""Seeded inputs: equal seeds agree, different seeds differ."""

from bench_e2e import streams

TENANTS = ("a", "b")
QIDS = {"a": [f"a-{i}" for i in range(500)], "b": [f"b-{i}" for i in range(500)]}


def test_served_stream_alternates_tenants_over_fresh_qids():
    stream = streams.served_stream(TENANTS, QIDS, start=10, count=6)
    assert stream == [("a", "a-10"), ("b", "b-10"), ("a", "a-11"),
                      ("b", "b-11"), ("a", "a-12"), ("b", "b-12")]
    later = streams.served_stream(TENANTS, QIDS, start=13, count=6)
    assert not set(stream) & set(later)


def test_poisson_schedule_repeats_for_a_seed_and_differs_across_seeds():
    first = streams.poisson_due_times(11, 0, 0, 150, 200.0)
    assert first == streams.poisson_due_times(11, 0, 0, 150, 200.0)
    assert first != streams.poisson_due_times(12, 0, 0, 150, 200.0)
    assert first != streams.poisson_due_times(11, 1, 0, 150, 200.0)
    assert first != streams.poisson_due_times(11, 0, 1, 150, 200.0)
    assert first != streams.poisson_due_times(11, 0, -1, 150, 200.0)


def test_poisson_schedule_offers_the_stated_rate():
    due = streams.poisson_due_times(11, 0, 0, 150, 200.0)
    assert len(due) == 150
    assert due == sorted(due)
    assert 0.0 <= due[0] and due[-1] <= 150 / 200.0


def test_zipf_stream_repeats_for_a_seed_and_differs_across_seeds():
    first = streams.zipf_stream(TENANTS, QIDS, 500, 11, 0, 0, 300)
    assert first == streams.zipf_stream(TENANTS, QIDS, 500, 11, 0, 0, 300)
    assert first != streams.zipf_stream(TENANTS, QIDS, 500, 12, 0, 0, 300)
    assert first != streams.zipf_stream(TENANTS, QIDS, 500, 11, 0, 1, 300)


def test_zipf_stream_is_skewed_and_stays_in_the_pool():
    stream = streams.zipf_stream(TENANTS, QIDS, 200, 11, 0, 0, 2000)
    assert [tenant for tenant, _ in stream[:4]] == ["a", "b", "a", "b"]
    ranks = [int(qid.split("-")[1]) for _, qid in stream]
    assert max(ranks) < 200
    # rank 0 is far more popular than the median rank; the tail is long
    assert ranks.count(0) > 10 * max(1, ranks.count(100))
    assert len(set(stream)) < len(stream)


def test_rounds_of_a_run_load_different_suites():
    seeds = {streams.suite_seed(seed, round_index)
             for seed in range(12) for round_index in range(4)}
    assert len(seeds) == 48
