"""Fourth suite: ``browser`` — multi-turn, stateful web-automation episodes.

The paper's evaluation is single-conversation: every query arrives in
one shot and the executor is stateless.  Real on-device assistants hold
*conversations* — the user opens a page on turn one, then asks to click
and read on later turns, and the tool backend must remember which page
is open.  This suite exercises that shape: a 14-tool browser-automation
pool (navigation / input / reading), queries whose gold chains span 2-3
user turns (:class:`~repro.suites.base.QueryTurn`), and a *stateful*
executor — :class:`BrowserToolExecutor` — whose per-episode state makes
later calls fail unless an earlier call of the same episode opened a
page first.  Tool-state carryover across turns is therefore
load-bearing: break it and success rates collapse.

Loaded via ``load_suite("browser")`` and usable with every agent, bench
and serving path in the package.
"""

from __future__ import annotations

from typing import Any

from repro.registry import register_catalog
from repro.suites.base import PAPER_QUERY_BATCH, BenchmarkSuite, Query, QueryTurn
from repro.tools.catalog import ToolCatalog, load_catalog
from repro.tools.executor import SimulatedToolExecutor
from repro.tools.schema import ToolCall
from repro.tools.schema import ToolParameter as P
from repro.tools.schema import ToolSpec as T
from repro.utils.hashing import stable_hash64
from repro.utils.rng import derive_rng


def _browser_tools() -> tuple[T, ...]:
    """14 tool specs across navigation, input and reading domains."""
    tools = [
        # navigation (4) ---------------------------------------------------
        T("open_page", "Open a web page by URL in the active browser tab.",
          (P("url", "string", "Address of the page to open."),),
          category="navigation"),
        T("go_back", "Navigate back to the previously viewed page.",
          (), category="navigation"),
        T("reload_page", "Reload the currently open page.",
          (), category="navigation"),
        T("scroll_page", "Scroll the open page up or down by a number of screens.",
          (P("direction", "string", "Scroll direction.", enum=("up", "down")),
           P("screens", "integer", "How many screens to scroll.",
             required=False)), category="navigation"),
        # input (5) --------------------------------------------------------
        T("click_element", "Click the page element matching a CSS selector.",
          (P("selector", "string", "CSS selector of the element."),),
          category="input"),
        T("type_text", "Type text into the input field matching a selector.",
          (P("selector", "string", "CSS selector of the input field."),
           P("text", "string", "Text to type.")), category="input"),
        T("press_key", "Press a keyboard key on the focused element.",
          (P("key", "string", "Key to press.",
             enum=("enter", "tab", "escape")),), category="input"),
        T("select_option", "Choose an option from a dropdown on the page.",
          (P("selector", "string", "CSS selector of the dropdown."),
           P("option", "string", "Visible label of the option.")),
          category="input"),
        T("submit_form", "Submit the form matching a CSS selector.",
          (P("selector", "string", "CSS selector of the form."),),
          category="input"),
        # reading (5) ------------------------------------------------------
        T("read_title", "Read the title of the currently open page.",
          (), category="reading"),
        T("read_text", "Extract the text content of an element on the page.",
          (P("selector", "string", "CSS selector of the element."),),
          category="reading"),
        T("find_elements", "Find page elements whose text matches a phrase.",
          (P("query", "string", "Phrase to look for."),), category="reading"),
        T("list_links", "List the hyperlinks present on the open page.",
          (), category="reading"),
        T("take_screenshot", "Capture a screenshot of the open page.",
          (), category="reading"),
    ]
    return tuple(tools)


@register_catalog("browser")
def build_browser_catalog() -> ToolCatalog:
    """The 14-tool browser-automation catalog (full variant)."""
    return ToolCatalog("browser", _browser_tools())


class BrowserToolExecutor(SimulatedToolExecutor):
    """Stateful executor: tool effects persist for the whole episode.

    Per-episode state (from :meth:`new_episode_state`) tracks which page
    is open and what has been typed.  Every tool except ``open_page``
    *requires* an open page — so a multi-turn episode only succeeds when
    the page opened on turn one is still open when turn two clicks and
    turn three reads.  Results embed the open page, making the carryover
    observable (and assertable) from episode outcomes.

    State threads through ``execute(call, state=...)`` rather than
    living on the executor, so one executor instance stays safe to share
    across concurrent episodes (the serving gateway does).  A ``None``
    state — a caller that never created one — degrades to the stateless
    base behaviour.
    """

    #: tools that operate on the currently open page
    _NEEDS_PAGE = frozenset({
        "go_back", "reload_page", "scroll_page", "click_element",
        "type_text", "press_key", "select_option", "submit_form",
        "read_title", "read_text", "find_elements", "list_links",
        "take_screenshot",
    })

    def new_episode_state(self) -> dict[str, Any]:
        return {"page": None, "visited": [], "typed": {}, "actions": 0}

    def _state_error(self, call: ToolCall, state) -> str | None:
        if state is None or call.tool not in self._NEEDS_PAGE:
            return None
        if state["page"] is None:
            return (f"tool {call.tool!r} needs an open page, but no page was "
                    f"opened earlier in this browsing session")
        return None

    def _fabricate_result(self, call: ToolCall, state=None) -> dict[str, Any]:
        result = super()._fabricate_result(call, state)
        if state is None:
            return result
        if call.tool == "open_page":
            state["page"] = call.arguments["url"]
            state["visited"].append(state["page"])
        elif call.tool == "go_back" and len(state["visited"]) > 1:
            state["visited"].pop()
            state["page"] = state["visited"][-1]
        elif call.tool == "type_text":
            state["typed"][call.arguments["selector"]] = call.arguments["text"]
        state["actions"] += 1
        result["page"] = state["page"]
        result["session_actions"] = state["actions"]
        if call.tool == "read_title":
            token = stable_hash64("title", state["page"] or "") % 1000
            result["title"] = f"{state['page']} — page {token:03d}"
        return result


def build_browser_executor(catalog) -> BrowserToolExecutor:
    """Executor factory wired into the suite (module-level: picklable)."""
    return BrowserToolExecutor(catalog)


# ----------------------------------------------------------------------
# multi-turn query templates
# ----------------------------------------------------------------------
#: site slot pool (suite-local; plain strings keep gold args deterministic)
_SITES = ("news.example.com", "shop.example.com", "wiki.example.org",
          "mail.example.net", "forum.example.org", "docs.example.io")
_SELECTORS = ("#search", ".menu-item", "#login", ".article-link",
              "#comment-box", ".price-tag")
_PHRASES = ("latest headlines", "free shipping", "edit history",
            "unread messages", "top replies", "getting started")
_TEXTS = ("hello world", "order status", "quarterly report",
          "meeting notes", "weather tomorrow")

#: each template is (category, ((turn_pattern, calls_fn), ...)); slots are
#: filled from the suite-local pools above
_BROWSER_TEMPLATES: tuple[tuple[str, tuple], ...] = (
    ("lookup", (
        ("Open {site} for me",
         lambda s: [ToolCall("open_page", {"url": f"https://{s['site']}"})]),
        ("What is this page called?",
         lambda s: [ToolCall("read_title", {})]),
    )),
    ("search", (
        ("Go to {site} and search for {text}",
         lambda s: [ToolCall("open_page", {"url": f"https://{s['site']}"}),
                    ToolCall("type_text", {"selector": "#search",
                                           "text": s["text"]})]),
        ("Run the search",
         lambda s: [ToolCall("press_key", {"key": "enter"})]),
        ("Read me the first result",
         lambda s: [ToolCall("read_text", {"selector": ".article-link"})]),
    )),
    ("form", (
        ("Open {site}",
         lambda s: [ToolCall("open_page", {"url": f"https://{s['site']}"})]),
        ("Fill {selector} with {text} and submit the signup form",
         lambda s: [ToolCall("type_text", {"selector": s["selector"],
                                           "text": s["text"]}),
                    ToolCall("submit_form", {"selector": "#signup"})]),
    )),
    ("browse", (
        ("Open {site} and scroll down a couple of screens",
         lambda s: [ToolCall("open_page", {"url": f"https://{s['site']}"}),
                    ToolCall("scroll_page", {"direction": "down",
                                             "screens": 2})]),
        ("Any links about {phrase}?",
         lambda s: [ToolCall("find_elements", {"query": s["phrase"]})]),
        ("Click the first one",
         lambda s: [ToolCall("click_element", {"selector": ".article-link"})]),
    )),
    ("capture", (
        ("Bring up {site}",
         lambda s: [ToolCall("open_page", {"url": f"https://{s['site']}"})]),
        ("Grab a screenshot and list the links on it",
         lambda s: [ToolCall("take_screenshot", {}),
                    ToolCall("list_links", {})]),
    )),
    ("navigate", (
        ("Open {site} and click {selector}",
         lambda s: [ToolCall("open_page", {"url": f"https://{s['site']}"}),
                    ToolCall("click_element", {"selector": s["selector"]})]),
        ("Reload and read the title",
         lambda s: [ToolCall("reload_page", {}),
                    ToolCall("read_title", {})]),
    )),
)

_POOLS = {"site": _SITES, "selector": _SELECTORS, "phrase": _PHRASES,
          "text": _TEXTS}


def generate_browser_queries(n_queries: int, seed: int, split: str) -> list[Query]:
    """Deterministic multi-turn query pool over the browser templates."""
    rng = derive_rng("browser", split, seed)
    order = rng.permutation(len(_BROWSER_TEMPLATES))
    queries: list[Query] = []
    for index in range(n_queries):
        category, turn_templates = _BROWSER_TEMPLATES[
            int(order[index % len(order)])]
        slots = {name: pool[int(rng.integers(len(pool)))]
                 for name, pool in _POOLS.items()}
        turns = tuple(
            QueryTurn(text=pattern.format(**slots),
                      gold_calls=tuple(calls_fn(slots)))
            for pattern, calls_fn in turn_templates)
        gold_calls = tuple(call for turn in turns for call in turn.gold_calls)
        queries.append(Query(
            qid=f"browser-{split}-{index:04d}",
            # the recommender and Search Levels key off query text; the
            # joined conversation keeps the whole task visible to them
            text=" Then: ".join(turn.text for turn in turns),
            category=category,
            gold_calls=gold_calls,
            sequential=True,
            turns=turns,
        ))
    return queries


def build_browser_suite(n_queries: int = PAPER_QUERY_BATCH, seed: int = 0,
                        n_train: int = 100,
                        catalog: ToolCatalog | None = None) -> BenchmarkSuite:
    """Build the browser suite (14 tools, multi-turn stateful chains).

    ``catalog`` overrides the tool pool (default: the registered
    ``"browser"`` catalog).
    """
    return BenchmarkSuite(
        name="browser",
        catalog=catalog if catalog is not None else load_catalog("browser"),
        queries=generate_browser_queries(n_queries, seed, split="eval"),
        train_queries=generate_browser_queries(n_train, seed, split="train"),
        sequential=True,
        executor_factory=build_browser_executor,
    )
