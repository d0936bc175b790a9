"""Third suite: ``edgehome`` — a multi-domain on-device assistant.

The paper's closing claim is that Less-is-More "allows for easy
adaptation to new tools" without retraining.  This suite tests that
generalisation story beyond the two paper benchmarks: a 32-tool
mixed-domain pool (smart home + personal assistant + on-device media)
with *both* single-call queries and short sequential routines — the
shape of a real phone/home deployment where neither BFCL's pure
single-call nor GeoEngine's deep chains applies cleanly.

Loaded via ``load_suite("edgehome")`` and usable with every agent,
bench and CLI command in the package.
"""

from __future__ import annotations

from repro.registry import register_catalog
from repro.suites.base import PAPER_QUERY_BATCH, BenchmarkSuite, Query
from repro.suites.templating import QueryTemplate
from repro.tools.catalog import ToolCatalog, load_catalog
from repro.tools.schema import ToolCall
from repro.tools.schema import ToolParameter as P
from repro.tools.schema import ToolSpec as T
from repro.utils.rng import derive_rng


def _edgehome_tools() -> tuple[T, ...]:
    """32 tool specs across home-control, assistant and media domains."""
    tools = [
        # home control (10) ------------------------------------------------
        T("turn_on_light", "Turn on the smart light in a room of the house.",
          (P("room", "string", "Room name."),), category="home"),
        T("turn_off_light", "Turn off the smart light in a room of the house.",
          (P("room", "string", "Room name."),), category="home"),
        T("set_brightness", "Set the brightness percentage of a room's lights.",
          (P("room", "string", "Room name."),
           P("level", "integer", "Brightness 0-100.")), category="home"),
        T("set_thermostat", "Set the thermostat target temperature in celsius.",
          (P("temperature", "number", "Target temperature."),), category="home"),
        T("get_indoor_climate", "Read the indoor temperature and humidity sensors.",
          (), category="home"),
        T("lock_door", "Lock a smart door lock by name.",
          (P("door", "string", "Door name."),), category="home"),
        T("unlock_door", "Unlock a smart door lock by name.",
          (P("door", "string", "Door name."),), category="home"),
        T("arm_security", "Arm the home alarm in home or away mode.",
          (P("mode", "string", "Arming mode.", enum=("home", "away")),),
          category="home"),
        T("view_camera", "Show the live feed of a named security camera.",
          (P("camera", "string", "Camera location."),), category="home"),
        T("start_vacuum", "Start the robot vacuum on a cleaning run.",
          (), category="home"),
        # personal assistant (12) -------------------------------------------
        T("create_event", "Create a calendar event with title, date and time.",
          (P("title", "string", "Event title."),
           P("date", "string", "Event date."),
           P("time", "string", "Start time.")), category="assistant"),
        T("list_events", "List calendar events scheduled for a date.",
          (P("date", "string", "Date to inspect."),), category="assistant"),
        T("set_alarm", "Set a wake-up alarm at a given time.",
          (P("time", "string", "Alarm time."),), category="assistant"),
        T("set_timer", "Start a countdown timer for a number of minutes.",
          (P("minutes", "integer", "Countdown length."),), category="assistant"),
        T("send_message", "Send a text message to a contact.",
          (P("contact", "string", "Recipient name."),
           P("message", "string", "Message body.")), category="assistant"),
        T("read_messages", "Read out the unread messages from a contact.",
          (P("contact", "string", "Sender name."),), category="assistant"),
        T("add_to_shopping_list", "Add an item to the shared shopping list.",
          (P("item", "string", "Item to add."),), category="assistant"),
        T("create_note", "Save a short note for later.",
          (P("text", "string", "Note content."),), category="assistant"),
        T("get_weather_brief", "Get a short local weather briefing for today.",
          (), category="assistant"),
        T("get_commute_time", "Estimate current driving time to a destination.",
          (P("destination", "string", "Where to."),), category="assistant"),
        T("call_contact", "Start a phone call with a contact.",
          (P("contact", "string", "Who to call."),), category="assistant"),
        T("check_battery", "Report the device battery level and charging state.",
          (), category="assistant"),
        # media (10) ------------------------------------------------------------
        T("play_music", "Play music from a playlist on the room speakers.",
          (P("room", "string", "Room name."),
           P("playlist", "string", "Playlist name.", required=False)),
          category="media"),
        T("pause_media", "Pause whatever media is currently playing.",
          (), category="media"),
        T("set_volume", "Set the speaker volume percentage in a room.",
          (P("room", "string", "Room name."),
           P("volume", "integer", "Volume 0-100.")), category="media"),
        T("next_track", "Skip to the next track in the current queue.",
          (), category="media"),
        T("play_radio", "Tune the speakers to a named radio station.",
          (P("station", "string", "Radio station."),), category="media"),
        T("play_podcast", "Resume the latest episode of a podcast show.",
          (P("show", "string", "Podcast show name."),), category="media"),
        T("cast_video", "Cast a video title to the living room TV.",
          (P("title", "string", "Video title."),), category="media"),
        T("set_sleep_timer", "Stop media playback after a number of minutes.",
          (P("minutes", "integer", "Minutes until stop."),), category="media"),
        T("announce", "Broadcast a voice announcement on every speaker.",
          (P("message", "string", "Announcement text."),), category="media"),
        T("get_now_playing", "Report which track is currently playing.",
          (), category="media"),
    ]
    return tuple(tools)


@register_catalog("edgehome")
def build_edgehome_catalog() -> ToolCatalog:
    """The 32-tool EdgeHome catalog (full variant)."""
    return ToolCatalog("edgehome", _edgehome_tools())


def _one(tool: str, **arguments) -> list[ToolCall]:
    return [ToolCall(tool, arguments)]


def _chain(*steps: tuple) -> list[ToolCall]:
    return [ToolCall(tool, arguments) for tool, arguments in steps]


EDGEHOME_TEMPLATES: tuple[QueryTemplate, ...] = (
    # single-call -------------------------------------------------------
    QueryTemplate("home", "Turn on the {room} lights",
                  lambda s: _one("turn_on_light", room=s["room"])),
    QueryTemplate("home", "Dim the {room} to {volume} percent",
                  lambda s: _one("set_brightness", room=s["room"], level=s["volume"])),
    QueryTemplate("home", "Set the heat to {temperature} degrees",
                  lambda s: _one("set_thermostat", temperature=float(s["temperature"]))),
    QueryTemplate("home", "Is it humid inside?",
                  lambda s: _one("get_indoor_climate")),
    QueryTemplate("home", "Lock the {door} door",
                  lambda s: _one("lock_door", door=s["door"])),
    QueryTemplate("home", "Show me the {door} camera",
                  lambda s: _one("view_camera", camera=s["door"])),
    QueryTemplate("assistant", "Wake me up at {time}",
                  lambda s: _one("set_alarm", time=s["time"])),
    QueryTemplate("assistant", "Set a timer for {volume} minutes",
                  lambda s: _one("set_timer", minutes=s["volume"])),
    QueryTemplate("assistant", "Text {contact} that I'm running late",
                  lambda s: _one("send_message", contact=s["contact"],
                                 message="I'm running late")),
    QueryTemplate("assistant", "Put milk on the shopping list",
                  lambda s: _one("add_to_shopping_list", item="milk")),
    QueryTemplate("assistant", "What's on my calendar on {date}?",
                  lambda s: _one("list_events", date=s["date"])),
    QueryTemplate("assistant", "How long is the drive to {city} right now?",
                  lambda s: _one("get_commute_time", destination=s["city"])),
    QueryTemplate("media", "Play some {playlist} in the {room}",
                  lambda s: _one("play_music", room=s["room"], playlist=s["playlist"])),
    QueryTemplate("media", "Skip this song",
                  lambda s: _one("next_track")),
    QueryTemplate("media", "Cast {movie} to the TV",
                  lambda s: _one("cast_video", title=s["movie"])),
    QueryTemplate("media", "Stop the music in {volume} minutes",
                  lambda s: _one("set_sleep_timer", minutes=s["volume"])),
    # short routines (sequential) -------------------------------------------
    QueryTemplate("routine",
                  "Good night: lock the {door} door, arm the alarm for home "
                  "and turn off the {room} lights",
                  lambda s: _chain(
                      ("lock_door", {"door": s["door"]}),
                      ("arm_security", {"mode": "home"}),
                      ("turn_off_light", {"room": s["room"]}),
                  )),
    QueryTemplate("routine",
                  "Movie time: dim the {room} to 15 percent and cast {movie} to the TV",
                  lambda s: _chain(
                      ("set_brightness", {"room": s["room"], "level": 15}),
                      ("cast_video", {"title": s["movie"]}),
                  )),
    QueryTemplate("routine",
                  "Morning routine: read my weather brief, then play {playlist} "
                  "in the {room} and warm the house to {temperature}",
                  lambda s: _chain(
                      ("get_weather_brief", {}),
                      ("play_music", {"room": s["room"], "playlist": s["playlist"]}),
                      ("set_thermostat", {"temperature": float(s["temperature"])}),
                  )),
    QueryTemplate("routine",
                  "Announce dinner is ready and pause the media everywhere",
                  lambda s: _chain(
                      ("announce", {"message": "dinner is ready"}),
                      ("pause_media", {}),
                  )),
)

# extra slot pools used only by this suite
_EXTRA_POOLS = {
    "room": ("kitchen", "living room", "bedroom", "study", "hallway"),
    "door": ("front", "back", "garage", "patio"),
    "contact": ("Alex", "Sam", "Maria", "Dad"),
    "playlist": ("jazz", "morning hits", "focus beats", "classics"),
    "temperature": (19, 20, 21, 22, 23),
    "volume": (10, 15, 20, 30, 45),
}


def generate_edgehome_queries(n_queries: int, seed: int, split: str) -> list[Query]:
    """Deterministic query pool mixing single calls and routines."""
    from repro.suites import templating

    # register the suite-local pools (idempotent)
    for name, pool in _EXTRA_POOLS.items():
        templating.SLOT_POOLS.setdefault(name, pool)

    rng = derive_rng("edgehome", split, seed)
    order = rng.permutation(len(EDGEHOME_TEMPLATES))
    queries: list[Query] = []
    for index in range(n_queries):
        template = EDGEHOME_TEMPLATES[int(order[index % len(order)])]
        text, calls, _ = template.instantiate(rng)
        queries.append(Query(
            qid=f"edge-{split}-{index:04d}",
            text=text,
            category=template.category,
            gold_calls=tuple(calls),
            sequential=len(calls) > 1,
        ))
    return queries


def build_edgehome_suite(n_queries: int = PAPER_QUERY_BATCH, seed: int = 0,
                         n_train: int = 100,
                         catalog: ToolCatalog | None = None) -> BenchmarkSuite:
    """Build the edgehome suite (32 tools, mixed single/sequential).

    ``catalog`` overrides the tool pool (default: the registered
    ``"edgehome"`` catalog, so plugins that re-register the name
    re-tool this suite too).
    """
    return BenchmarkSuite(
        name="edgehome",
        catalog=catalog if catalog is not None else load_catalog("edgehome"),
        queries=generate_edgehome_queries(n_queries, seed, split="eval"),
        train_queries=generate_edgehome_queries(n_train, seed, split="train"),
        sequential=True,  # contains chains; per-query flag is authoritative
    )
