"""Shared query-template machinery for the benchmark generators."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.tools.schema import ToolCall

_SLOT_RE = re.compile(r"\{(\w+)\}")

#: Value pools for template slots, shared by the bfcl, geoengine and
#: edgehome suites.
SLOT_POOLS: dict[str, tuple] = {
    "city": ("New York", "London", "Paris", "Tokyo", "Chicago", "Berlin",
             "Madrid", "Sydney", "Toronto", "Mumbai", "Cairo", "Seoul"),
    "region": ("UK", "France", "Japan", "Brazil", "California", "Texas",
               "Kenya", "Australia", "Germany", "India", "Italy", "Egypt"),
    "country": ("France", "Japan", "Brazil", "Canada", "Italy", "Spain"),
    "language": ("French", "Spanish", "German", "Japanese", "Italian",
                 "Portuguese", "Korean"),
    "ticker": ("AAPL", "GOOG", "MSFT", "AMZN", "TSLA", "NVDA"),
    "crypto": ("BTC", "ETH", "SOL", "ADA"),
    "currency": ("USD", "EUR", "GBP", "JPY", "CAD", "AUD"),
    "team": ("Lakers", "Yankees", "Arsenal", "Cowboys", "Warriors"),
    "movie": ("Inception", "Interstellar", "The Matrix", "Oppenheimer",
              "Parasite"),
    "artist": ("Coldplay", "Adele", "Drake", "Beyonce"),
    "song": ("Yellow", "Hello", "One Dance", "Halo"),
    "book_genre": ("science fiction", "mystery", "historical fiction",
                   "fantasy"),
    "dish": ("pasta carbonara", "chicken curry", "vegetable stir fry",
             "beef tacos", "mushroom risotto"),
    "meal": ("two eggs and toast with butter", "a bowl of ramen",
             "caesar salad with chicken", "a cheeseburger with fries"),
    "topic": ("artificial intelligence", "climate change", "space travel",
              "the Roman Empire", "quantum computing", "renewable energy"),
    "word": ("serendipity", "ephemeral", "ubiquitous", "altruism"),
    "phrase": ("good morning my friend", "where is the train station",
               "the weather is lovely today", "i would like a coffee"),
    "event_title": ("team standup", "dentist appointment", "project review",
                    "yoga class"),
    "timezone_a": ("US/Eastern", "Europe/London", "Asia/Tokyo"),
    "timezone_b": ("US/Pacific", "Europe/Berlin", "Australia/Sydney"),
    "cuisine": ("italian", "japanese", "mexican", "indian", "thai"),
    "dataset": ("fmow", "xview", "sentinel2", "landsat8", "naip"),
    "season": ("spring", "summer", "fall", "winter"),
    "object_class": ("ship", "aircraft", "vehicle", "building",
                     "storage tank"),
    "metric": ("ndvi", "cloud cover", "object density"),
    "year": tuple(range(2005, 2021)),
    "year_b": tuple(range(2005, 2021)),
    "small_int": (2, 3, 4, 5, 6, 8, 10),
    "big_int": (12, 16, 20, 24, 36),
    "amount": (25.0, 80.0, 120.0, 250.0, 400.0, 1500.0),
    "rate": (3.5, 4.2, 5.0, 6.75, 7.1),
    "threshold": (0.5, 0.6, 0.7, 0.8, 0.9),
    "weight": (58.0, 64.0, 72.0, 81.0, 95.0),
    "height": (158.0, 165.0, 172.0, 180.0, 188.0),
    "income": (42000.0, 65000.0, 88000.0, 120000.0),
    "status": ("single", "married", "head_of_household"),
    "date": ("2024-03-14", "2024-05-02", "2024-06-21", "2024-08-09"),
    "time": ("07:00", "09:30", "14:00", "18:15"),
    "number": (7, 12, 36, 54, 120, 256),
    "x_value": (2.0, 3.0, 4.5, 6.0),
    "mode": ("driving", "walking", "transit"),
    # edgehome
    "room": ("kitchen", "living room", "bedroom", "study", "hallway"),
    "door": ("front", "back", "garage", "patio"),
    "contact": ("Alex", "Sam", "Maria", "Dad"),
    "playlist": ("jazz", "morning hits", "focus beats", "classics"),
    "temperature": (19, 20, 21, 22, 23),
    "volume": (10, 15, 20, 30, 45),
}


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterised query pattern with a gold-call builder.

    ``calls`` maps the filled slot dict to the gold tool-call sequence
    (length 1 for single-call suites).
    """

    category: str
    pattern: str
    calls: Callable[[dict[str, Any]], list[ToolCall]]

    def slots(self) -> list[str]:
        """Slot names appearing in the pattern."""
        return _SLOT_RE.findall(self.pattern)

    def instantiate(self, rng: np.random.Generator) -> tuple[str, list[ToolCall], dict[str, Any]]:
        """Sample slot values and return (text, gold_calls, slots)."""
        values: dict[str, Any] = {}
        for slot in self.slots():
            pool = SLOT_POOLS.get(slot)
            if pool is None:
                raise KeyError(f"template slot {slot!r} has no value pool")
            values[slot] = pool[int(rng.integers(len(pool)))]
        if "year" in values and "year_b" in values and values["year_b"] <= values["year"]:
            # keep comparison ranges well-ordered for change-detection queries
            values["year_b"] = values["year"] + int(rng.integers(1, 6))
        text = self.pattern.format(**values)
        return text, self.calls(values), values


def season_dates(season: str, year: int) -> tuple[str, str]:
    """Approximate (start, end) ISO dates of a season, as a copilot would."""
    ranges = {
        "spring": ("03-01", "05-31"),
        "summer": ("06-01", "08-31"),
        "fall": ("09-01", "11-30"),
        "winter": ("12-01", "02-28"),
    }
    start, end = ranges[season]
    end_year = year + 1 if season == "winter" else year
    return f"{year}-{start}", f"{end_year}-{end}"
