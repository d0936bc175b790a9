"""GeoEngine copilot walk-through on the paper's running example.

Reproduces the paper's Table II scenario end-to-end: the sequential
query "Plot the fmow VQA captions in UK from Fall 2009" executed by
Llama3.1-8b-q4_K_M on the simulated Jetson AGX Orin, showing every stage
of the Less-is-More pipeline — recommender output, controller decision,
chain execution — against the vanilla agent.

Run:  PYTHONPATH=src python examples/geospatial_copilot.py
"""

from __future__ import annotations

from repro import AgentSpec, open_session


def find_vqa_query(suite):
    for query in suite.queries:
        if "VQA captions" in query.text:
            return query
    return suite.queries[0]


def main() -> None:
    session = open_session("geoengine", n_queries=120)
    suite = session.suite
    query = find_vqa_query(suite)
    print(f"query: {query.text}")
    print(f"gold chain: {' -> '.join(query.gold_tools)}\n")

    agent = session.build_agent(AgentSpec(scheme="lis-k3", model="llama3.1-8b",
                                          quant="q4_K_M"))

    # --- stage 1: the Tool Recommender sees the query, zero tools -------
    recommendation = agent.llm.recommend_tools(query, suite.catalog)
    print("recommender output (the LLM's 'ideal tools'):")
    for text in recommendation.descriptions:
        print(f"  - {text}")

    # --- stage 2: the Controller arbitrates Search Levels --------------
    plan = agent.plan(query)
    print(f"\ncontroller: Level {plan.level} selected, "
          f"{len(plan.tools)} of {suite.n_tools} tools forwarded, "
          f"window {plan.context_window} tokens")
    print(f"  forwarded: {', '.join(tool.name for tool in plan.tools)}")

    # --- stage 3: chain execution on the edge-device model -------------
    episode = agent.run(query)
    print("\nchain execution (Less-is-More):")
    for step in episode.steps:
        status = "ok" if step.correct_tool and step.execution_ok else "FAIL"
        print(f"  step {step.step_index}: {step.tool_called or '(error)'} [{status}]")
    print(f"  success={episode.success} time={episode.time_s:.1f}s "
          f"power={episode.avg_power_w:.1f}W")

    default = session.build_agent(AgentSpec(
        scheme="default", model="llama3.1-8b", quant="q4_K_M")).run(query)
    print(f"\nvanilla agent (all {suite.n_tools} tools, 16K window): "
          f"success={default.success} time={default.time_s:.1f}s "
          f"power={default.avg_power_w:.1f}W")
    print(f"\npaper Table II anchor: 46 tools/16K: 30s 27W (fail) -> "
          f"19 tools/8K: 17s 22W (ok)")


if __name__ == "__main__":
    main()
