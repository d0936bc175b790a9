"""Output verification: served == sequential, bitwise.

After timing, every ``SAMPLE_EVERY``-th measured request of a round is
recomputed one at a time on a fresh ``open_session`` over the same
suite and seed — ``session.build_agent(spec).run(query)``, the path
``Session.run`` takes — and the served :class:`EpisodeResult` must be
equal field for field (floats exact; HTTP bodies went through
``EpisodeResult.from_dict``).  For ``offline_compare`` the first
measured segment of the first round is additionally compared, whole,
against ``Session.run(...).episodes``.
"""

from __future__ import annotations

from typing import NamedTuple

from bench_e2e.workloads import MODEL, OFFLINE_SCHEMES, QUANT, RoundResult

SAMPLE_EVERY = 20


class Mismatch(NamedTuple):
    workload: str
    tenant: str
    qid: str
    detail: str

    def __str__(self) -> str:
        return (f"output mismatch: workload={self.workload} "
                f"tenant={self.tenant} qid={self.qid}: {self.detail}")


def _first_difference(served, expected) -> str:
    if type(served) is not type(expected):
        return f"type {type(served).__name__} != {type(expected).__name__}"
    for name in vars(expected):
        if getattr(served, name) != getattr(expected, name):
            return (f"field {name!r}: served {getattr(served, name)!r} "
                    f"!= sequential {getattr(expected, name)!r}")
    return "episodes differ"


def verify_round(result: RoundResult) -> tuple[int, Mismatch | None]:
    """Recompute the round's sample; ``(n checked, first mismatch)``."""
    from repro import AgentSpec, open_session
    from repro.embedding.cache import CachedEmbedder

    embedder = CachedEmbedder()
    sessions = {
        suite: open_session(suite, n_queries=n, seed=seed, embedder=embedder)
        for suite, (n, seed) in result.suites.items()}
    queries = {suite: {query.qid: query for query in session.suite.queries}
               for suite, session in sessions.items()}
    agents: dict = {}
    checked = 0
    for output in result.outputs[::SAMPLE_EVERY]:
        cell = (output.tenant, output.scheme)
        if cell not in agents:
            agents[cell] = sessions[output.tenant].build_agent(
                AgentSpec(output.scheme, MODEL, QUANT))
        expected = agents[cell].run(queries[output.tenant][output.qid])
        checked += 1
        if output.episode != expected:
            return checked, Mismatch(
                result.workload, output.tenant, output.qid,
                _first_difference(output.episode, expected))
    if (result.workload == "offline_compare" and result.round_index == 0
            and not result.traced):
        first = [output for output in result.outputs if output.segment == 0]
        for suite, session in sessions.items():
            for scheme in OFFLINE_SCHEMES:
                served = [output for output in first
                          if (output.tenant, output.scheme) == (suite, scheme)]
                run = session.run(AgentSpec(scheme, MODEL, QUANT),
                                  n_queries=len(served))
                for output, expected in zip(served, run.episodes):
                    checked += 1
                    if output.episode != expected:
                        return checked, Mismatch(
                            result.workload, suite, output.qid,
                            _first_difference(output.episode, expected))
    return checked, None
