"""Bring-your-own-tools: Less-is-More on a custom smart-home domain.

The paper positions Less-is-More as "a plug-and-play solution for all
existing state-of-the-art LLMs" — no fine-tuning, no per-domain training.
This example demonstrates exactly that through the plugin registries: a
brand-new tool catalog (a smart-home assistant) and query set are defined
below and registered with ``@register_suite("smart-home")`` — from that
point the suite is addressable by name everywhere a built-in is
(``open_session("smart-home")``, ``python -m repro run --suite
smart-home``, a ``TenantSpec`` in a serving deployment), with the Search
Levels built offline in a few seconds and the same pipeline running
unchanged.

Run:  PYTHONPATH=src python examples/smart_home_assistant.py
"""

from __future__ import annotations

from repro import AgentSpec, open_session, register_suite
from repro.suites.base import BenchmarkSuite, Query
from repro.tools import ToolCall, ToolCatalog, ToolParameter as P, ToolSpec as T


def build_smart_home_catalog() -> ToolCatalog:
    """A compact 16-tool smart-home API surface."""
    return ToolCatalog("smart-home", [
        T("turn_on_light", "Turn on the smart light in a room.",
          (P("room", "string", "Room name."),), category="lighting"),
        T("turn_off_light", "Turn off the smart light in a room.",
          (P("room", "string", "Room name."),), category="lighting"),
        T("set_brightness", "Set the brightness level of a room's lights.",
          (P("room", "string", "Room name."),
           P("level", "integer", "Brightness percent 0-100.")), category="lighting"),
        T("set_light_color", "Change the color of the smart bulbs in a room.",
          (P("room", "string", "Room name."),
           P("color", "string", "Color name.")), category="lighting"),
        T("set_thermostat", "Set the target temperature of the thermostat.",
          (P("temperature", "number", "Target temperature in celsius."),),
          category="climate"),
        T("get_indoor_temperature", "Read the current indoor temperature.",
          (), category="climate"),
        T("start_hvac_schedule", "Activate a named heating and cooling schedule.",
          (P("schedule", "string", "Schedule name."),), category="climate"),
        T("lock_door", "Lock a smart door lock.",
          (P("door", "string", "Door name."),), category="security"),
        T("unlock_door", "Unlock a smart door lock.",
          (P("door", "string", "Door name."),), category="security"),
        T("arm_alarm", "Arm the home security alarm system.",
          (P("mode", "string", "Arming mode.", enum=("home", "away")),),
          category="security"),
        T("show_camera_feed", "Display the live feed of a security camera.",
          (P("camera", "string", "Camera location."),), category="security"),
        T("play_music", "Play music on the smart speakers in a room.",
          (P("room", "string", "Room name."),
           P("playlist", "string", "Playlist name.", required=False)),
          category="media"),
        T("stop_music", "Stop music playback everywhere in the house.",
          (), category="media"),
        T("set_speaker_volume", "Set the speaker volume in a room.",
          (P("room", "string", "Room name."),
           P("volume", "integer", "Volume percent 0-100.")), category="media"),
        T("start_vacuum", "Start the robot vacuum cleaning run.",
          (), category="appliance"),
        T("start_coffee_maker", "Brew a pot of coffee with the smart coffee maker.",
          (), category="appliance"),
    ])


@register_suite("smart-home")
def build_smart_home_suite(n_queries: int | None = None,
                           seed: int | None = None) -> BenchmarkSuite:
    """Queries with gold calls, including two-step evening/morning routines.

    The (unused) ``n_queries``/``seed`` parameters satisfy the suite
    registry's builder contract — this catalog is hand-written, not
    generated.
    """
    catalog = build_smart_home_catalog()

    def q(qid, text, category, *calls, sequential=False):
        return Query(qid=qid, text=text, category=category,
                     gold_calls=tuple(ToolCall(t, a) for t, a in calls),
                     sequential=sequential)

    eval_queries = [
        q("sh-0", "Turn on the lights in the kitchen", "lighting",
          ("turn_on_light", {"room": "kitchen"})),
        q("sh-1", "Dim the living room lights to 30 percent", "lighting",
          ("set_brightness", {"room": "living room", "level": 30})),
        q("sh-2", "Make the bedroom lights a warm orange color", "lighting",
          ("set_light_color", {"room": "bedroom", "color": "orange"})),
        q("sh-3", "Set the temperature to 21 degrees", "climate",
          ("set_thermostat", {"temperature": 21.0})),
        q("sh-4", "How warm is it inside right now?", "climate",
          ("get_indoor_temperature", {})),
        q("sh-5", "Lock the front door", "security",
          ("lock_door", {"door": "front"})),
        q("sh-6", "Show me the driveway camera", "security",
          ("show_camera_feed", {"camera": "driveway"})),
        q("sh-7", "Play some jazz in the study", "media",
          ("play_music", {"room": "study", "playlist": "jazz"})),
        q("sh-8", "Start the vacuum cleaner", "appliance",
          ("start_vacuum", {})),
        q("sh-9",
          "Good night: lock the front door, arm the alarm for home and turn "
          "off the bedroom lights",
          "routine",
          ("lock_door", {"door": "front"}),
          ("arm_alarm", {"mode": "home"}),
          ("turn_off_light", {"room": "bedroom"}),
          sequential=True),
        q("sh-10",
          "Good morning routine: brew coffee, play the morning playlist in "
          "the kitchen and warm the house to 22 degrees",
          "routine",
          ("start_coffee_maker", {}),
          ("play_music", {"room": "kitchen", "playlist": "morning"}),
          ("set_thermostat", {"temperature": 22.0}),
          sequential=True),
    ]
    train_queries = [
        q(f"sh-t{i}", text, cat, call) for i, (text, cat, call) in enumerate([
            ("Switch on the hallway light", "lighting", ("turn_on_light", {"room": "hallway"})),
            ("Set study brightness to 80", "lighting", ("set_brightness", {"room": "study", "level": 80})),
            ("Cool the house to 19 degrees", "climate", ("set_thermostat", {"temperature": 19.0})),
            ("Arm the alarm in away mode", "security", ("arm_alarm", {"mode": "away"})),
            ("Unlock the garage door", "security", ("unlock_door", {"door": "garage"})),
            ("Turn the volume down to 20 in the den", "media", ("set_speaker_volume", {"room": "den", "volume": 20})),
            ("Stop all the music", "media", ("stop_music", {})),
            ("Make me a coffee", "appliance", ("start_coffee_maker", {})),
        ])
    ]
    return BenchmarkSuite("smart-home", catalog, eval_queries, train_queries)


def main() -> None:
    # the registered name is a first-class citizen: the session loads the
    # suite through the registry, exactly like "bfcl" or "edgehome"
    session = open_session("smart-home")
    suite = session.suite
    print(f"custom suite: {suite.name} | {suite.n_tools} tools | "
          f"{len(suite.queries)} queries")

    levels = session.levels
    print(f"offline build: {levels.n_clusters} tool clusters, e.g. "
          f"{levels.clusters[0].tools}")

    # a true edge model, described declaratively
    run = session.run(AgentSpec(scheme="lis-k3", model="qwen2-1.5b",
                                quant="q4_K_M"))
    for query, episode in zip(suite.queries, run.episodes):
        print(f"  [{'ok' if episode.success else '--'}] L{episode.selected_level} "
              f"{episode.mean_tools_presented:>4.0f} tools | {query.text[:60]}")
    print(f"\n{run.summary}")
    print("same pipeline, new domain — no fine-tuning, only an offline "
          "embedding pass over the new tool descriptions.")


if __name__ == "__main__":
    main()
