"""Curated synonym→concept lexicon backing the embedding substrate.

MPNet's value for Less-is-More is that paraphrases of a tool description
("fetch the forecast" vs "get current weather conditions") land close in
latent space.  We reproduce that property explicitly: a hand-curated
lexicon maps domain synonyms onto shared *concept ids*, and the vectorizer
gives concept features a large weight.  The table below was written to
cover the vocabulary of the two tool catalogs shipped with this package
(:mod:`repro.suites.bfcl_catalog`, :mod:`repro.suites.geoengine_catalog`)
plus general agent phrasing.
"""

from __future__ import annotations

from repro.embedding.tokenizer import split_words, stem

#: concept id -> synonym terms (single words or two-word phrases).
DEFAULT_CONCEPTS: dict[str, tuple[str, ...]] = {
    # ------------------------------------------------------------------
    # General agent / API vocabulary
    # ------------------------------------------------------------------
    "retrieve": ("get", "fetch", "retrieve", "obtain", "lookup", "look", "find",
                 "query", "request", "pull", "read", "access", "show", "give"),
    "compute": ("compute", "calculate", "evaluate", "determine", "solve",
                "derive", "figure", "work"),
    "create": ("create", "generate", "make", "build", "produce", "compose",
               "construct", "new", "add"),
    "update": ("update", "modify", "change", "edit", "set", "adjust",
               "revise", "alter"),
    "delete": ("delete", "remove", "erase", "clear", "discard", "drop",
               "cancel"),
    "list": ("list", "enumerate", "all", "available", "browse", "catalog"),
    "send": ("send", "dispatch", "transmit", "deliver", "forward", "share",
             "post", "publish"),
    "convert": ("convert", "transform", "translate", "change", "turn",
                "conversion"),
    "information": ("information", "info", "details", "data", "facts",
                    "description", "summary", "metadata"),
    "tool": ("tool", "function", "api", "method", "capability", "utility",
             "service", "endpoint"),
    # ------------------------------------------------------------------
    # Weather
    # ------------------------------------------------------------------
    "weather": ("weather", "forecast", "meteorological", "climate",
                "conditions", "meteorology"),
    "temperature": ("temperature", "celsius", "fahrenheit", "degrees",
                    "warm", "cold", "heat", "thermal"),
    "precipitation": ("rain", "snow", "precipitation", "rainfall",
                      "drizzle", "storm", "shower"),
    "wind": ("wind", "breeze", "gust", "windspeed"),
    "humidity": ("humidity", "humid", "moisture", "dew"),
    # ------------------------------------------------------------------
    # Language / translation / text
    # ------------------------------------------------------------------
    "language": ("language", "french", "spanish", "german", "english",
                 "italian", "japanese", "chinese", "korean", "portuguese",
                 "multilingual", "lingual"),
    "translate": ("translate", "translation", "translator", "localize"),
    "summarize": ("summarize", "summary", "condense", "abstract", "brief",
                  "digest", "shorten", "tldr"),
    "text": ("text", "string", "sentence", "paragraph", "words", "phrase",
             "passage", "content"),
    "grammar": ("grammar", "spelling", "proofread", "grammatical",
                "punctuation", "typo"),
    "sentiment": ("sentiment", "emotion", "tone", "polarity", "mood",
                  "opinion"),
    # ------------------------------------------------------------------
    # Math / statistics
    # ------------------------------------------------------------------
    "math": ("math", "mathematical", "arithmetic", "algebra", "expression",
             "equation", "formula"),
    "statistics": ("statistics", "statistical", "mean", "median", "variance",
                   "deviation", "average", "percentile", "distribution"),
    "geometry": ("geometry", "triangle", "circle", "polygon", "rectangle",
                 "hypotenuse", "radius", "perimeter"),
    "calculus": ("calculus", "derivative", "integral", "differentiate",
                 "integrate", "gradient", "limit"),
    "probability": ("probability", "chance", "likelihood", "odds", "random",
                    "dice", "coin"),
    "number": ("number", "numeric", "integer", "decimal", "digit", "value",
               "factorial", "prime", "root"),
    "matrix": ("matrix", "vector", "linear", "determinant", "eigenvalue"),
    # ------------------------------------------------------------------
    # Time / scheduling
    # ------------------------------------------------------------------
    "time": ("time", "clock", "hour", "minute", "second", "oclock"),
    "date": ("date", "day", "month", "year", "today", "tomorrow",
             "yesterday", "weekday"),
    "timezone": ("timezone", "utc", "gmt", "offset", "zone"),
    "calendar": ("calendar", "schedule", "appointment", "meeting", "event",
                 "agenda", "booking"),
    "reminder": ("reminder", "alarm", "alert", "notify", "notification",
                 "remind"),
    "duration": ("duration", "interval", "elapsed", "period", "span",
                 "countdown", "timer"),
    "season": ("season", "spring", "summer", "fall", "autumn", "winter",
               "quarter"),
    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    "email": ("email", "mail", "inbox", "gmail", "outlook", "compose"),
    "message": ("message", "sms", "chat", "messenger", "dm", "texting"),
    "contact": ("contact", "phone", "address", "directory", "people",
                "person", "recipient"),
    "call": ("call", "dial", "telephone", "ring", "voip"),
    # ------------------------------------------------------------------
    # Finance
    # ------------------------------------------------------------------
    "finance": ("finance", "financial", "money", "payment", "bank",
                "banking", "account"),
    "stock": ("stock", "share", "equity", "ticker", "nasdaq", "dow",
              "market", "portfolio"),
    "currency": ("currency", "dollar", "euro", "yen", "pound", "exchange",
                 "forex", "usd", "eur", "gbp"),
    "loan": ("loan", "mortgage", "interest", "amortization", "principal",
             "credit", "debt"),
    "tax": ("tax", "taxes", "income", "deduction", "irs", "vat"),
    "invest": ("invest", "investment", "return", "yield", "dividend",
               "compound"),
    "price": ("price", "cost", "quote", "worth", "valuation", "expensive",
              "cheap", "fee"),
    # ------------------------------------------------------------------
    # Units / measurement
    # ------------------------------------------------------------------
    "unit": ("unit", "measurement", "metric", "imperial", "measure"),
    "length": ("length", "meter", "kilometer", "mile", "feet", "foot",
               "inch", "centimeter", "yard"),
    "weight": ("weight", "mass", "kilogram", "pound", "gram", "ounce",
               "ton"),
    "volume": ("volume", "liter", "gallon", "cup", "milliliter", "quart"),
    "speed": ("speed", "velocity", "mph", "kph", "knots", "pace"),
    # ------------------------------------------------------------------
    # Places / navigation
    # ------------------------------------------------------------------
    "location": ("location", "place", "position", "where", "site", "spot",
                 "venue", "locality"),
    "city": ("city", "town", "york", "london", "paris", "tokyo", "chicago",
             "berlin", "madrid", "urban", "metropolis"),
    "country": ("country", "nation", "usa", "uk", "france", "germany",
                "japan", "china", "india", "kingdom", "states", "national"),
    "map": ("map", "atlas", "cartography", "mapping", "basemap", "tiles"),
    "route": ("route", "directions", "navigate", "navigation", "path",
              "itinerary", "way"),
    "distance": ("distance", "far", "near", "proximity", "kilometers",
                 "miles", "how far"),
    "geocode": ("geocode", "geocoding", "coordinates", "latitude",
                "longitude", "lat", "lon", "latlon"),
    "traffic": ("traffic", "congestion", "commute", "rush"),
    # ------------------------------------------------------------------
    # Knowledge / search / media
    # ------------------------------------------------------------------
    "search": ("search", "web", "google", "internet", "browse", "engine"),
    "wiki": ("wiki", "wikipedia", "encyclopedia", "article", "knowledge"),
    "news": ("news", "headline", "journalism", "breaking", "press",
             "newspaper"),
    "movie": ("movie", "film", "cinema", "imdb", "actor", "director",
              "showtime"),
    "music": ("music", "song", "artist", "album", "playlist", "lyrics",
              "spotify", "track"),
    "book": ("book", "novel", "author", "isbn", "literature", "reading"),
    "sports": ("sports", "score", "game", "match", "team", "league",
               "football", "basketball", "soccer", "baseball"),
    "recipe": ("recipe", "cook", "cooking", "ingredient", "dish", "meal",
               "cuisine", "kitchen", "bake"),
    "trivia": ("trivia", "fact", "quiz", "question", "answer"),
    # ------------------------------------------------------------------
    # Health / fitness
    # ------------------------------------------------------------------
    "health": ("health", "medical", "doctor", "symptom", "wellness",
               "medicine"),
    "fitness": ("fitness", "exercise", "workout", "bmi", "calorie",
                "calories", "diet", "steps", "gym"),
    # ------------------------------------------------------------------
    # Travel / shopping
    # ------------------------------------------------------------------
    "travel": ("travel", "trip", "vacation", "tourism", "journey",
               "destination"),
    "flight": ("flight", "airline", "airport", "plane", "airfare",
               "aviation", "boarding"),
    "hotel": ("hotel", "lodging", "accommodation", "hostel", "resort",
              "room", "stay"),
    "restaurant": ("restaurant", "dining", "eat", "reservation", "cafe",
                   "bistro", "food"),
    "shopping": ("shopping", "shop", "buy", "purchase", "order", "cart",
                 "product", "store", "amazon", "retail"),
    "delivery": ("delivery", "shipping", "ship", "package", "parcel",
                 "tracking", "courier"),
    # ------------------------------------------------------------------
    # Device / files / OS
    # ------------------------------------------------------------------
    "file": ("file", "document", "pdf", "folder", "directory", "filename",
             "doc", "docx"),
    "open": ("open", "launch", "start", "run", "execute", "view"),
    "print": ("print", "printer", "printout", "hardcopy"),
    "browser": ("browser", "chrome", "firefox", "safari", "tab", "url",
                "website", "webpage", "link"),
    "note": ("note", "memo", "jot", "notebook", "notes"),
    "todo": ("todo", "task", "checklist", "chore", "item"),
    "device": ("device", "phone", "laptop", "computer", "tablet",
               "hardware", "machine"),
    "settings": ("settings", "configuration", "preference", "option",
                 "setup", "config"),
    "battery": ("battery", "charge", "power", "energy"),
    "light": ("light", "lamp", "brightness", "dim", "bulb", "led"),
    "thermostat": ("thermostat", "hvac", "heating", "cooling", "ac"),
    "lock": ("lock", "unlock", "secure", "door", "deadbolt"),
    "camera": ("camera", "photo", "picture", "snapshot", "image",
               "photograph"),
    "audio": ("audio", "sound", "volume", "speaker", "mute"),
    # ------------------------------------------------------------------
    # Geospatial / remote sensing (GeoEngine domain)
    # ------------------------------------------------------------------
    "satellite": ("satellite", "sentinel", "landsat", "orbital", "spaceborne",
                  "modis"),
    "imagery": ("imagery", "image", "raster", "scene", "tile", "frame",
                "patch", "picture"),
    "dataset": ("dataset", "catalog", "collection", "corpus", "archive",
                "fmow", "xview", "benchmark"),
    "aerial": ("aerial", "drone", "uav", "overhead", "airborne"),
    "region": ("region", "area", "zone", "extent", "boundary", "bbox",
               "bounding", "aoi", "territory"),
    "detect": ("detect", "detection", "detector", "find", "locate",
               "identify", "spot", "recognize"),
    "object": ("object", "target", "building", "vehicle", "ship", "aircraft",
               "car", "truck", "airplane", "boat"),
    "classify": ("classify", "classification", "categorize", "label",
                 "class", "category"),
    "segment": ("segment", "segmentation", "mask", "delineate", "outline",
                "footprint"),
    "caption": ("caption", "describe", "description", "vqa", "annotate",
                "annotation", "narrate"),
    "plot": ("plot", "chart", "graph", "visualize", "visualization",
             "render", "draw", "figure", "histogram", "heatmap",
             "display"),
    "count": ("count", "tally", "quantity", "how many", "number of",
              "enumerate"),
    "filter": ("filter", "subset", "select", "restrict", "narrow", "match",
               "criteria", "within"),
    "change": ("change", "difference", "temporal", "before", "after",
               "delta", "compare", "comparison"),
    "cloud": ("cloud", "cloudy", "overcast", "cloudcover"),
    "vegetation": ("vegetation", "ndvi", "forest", "crop", "greenery",
                   "agriculture", "farmland", "plant"),
    "water": ("water", "river", "lake", "flood", "ocean", "sea",
              "coastline", "wetland"),
    "urban_feature": ("road", "highway", "bridge", "runway", "port",
                      "harbor", "airstrip", "parking"),
    "population": ("population", "census", "demographic", "inhabitants",
                   "density"),
    "landuse": ("landuse", "land use", "landcover", "land cover", "zoning",
                "terrain"),
    "elevation": ("elevation", "altitude", "dem", "topography", "height",
                  "slope"),
    "disaster": ("disaster", "earthquake", "wildfire", "hurricane",
                 "damage", "emergency", "tornado"),
    "export": ("export", "save", "download", "write", "persist", "store",
               "dump"),
    "report": ("report", "pdf report", "summary report", "document",
               "briefing"),
    "crop_image": ("crop", "resize", "clip", "cut", "trim", "rescale"),
    "resolution": ("resolution", "zoom", "scale", "gsd", "sharpness"),
    "band": ("band", "spectral", "infrared", "multispectral", "rgb",
             "wavelength", "nir"),
    "geojson": ("geojson", "shapefile", "kml", "geopackage", "wkt"),
}


class ConceptLexicon:
    """Mapping from stemmed tokens (and two-word phrases) to concept ids.

    Built from :data:`DEFAULT_CONCEPTS`, and immutable after construction.
    """

    def __init__(self):
        self._concepts = {name: tuple(terms)
                          for name, terms in DEFAULT_CONCEPTS.items()}
        self._token_map: dict[str, list[str]] = {}
        self._phrase_map: dict[str, list[str]] = {}
        for concept, terms in self._concepts.items():
            for term in terms:
                words = split_words(term)
                if not words:
                    continue
                if len(words) == 1:
                    key = stem(words[0])
                    self._token_map.setdefault(key, [])
                    if concept not in self._token_map[key]:
                        self._token_map[key].append(concept)
                else:
                    key = " ".join(stem(word) for word in words[:2])
                    self._phrase_map.setdefault(key, [])
                    if concept not in self._phrase_map[key]:
                        self._phrase_map[key].append(concept)

    @property
    def concepts(self) -> dict[str, tuple[str, ...]]:
        """The concept table this lexicon was built from."""
        return dict(self._concepts)

    def lookup(self, stemmed_token: str) -> list[str]:
        """Return concept ids for a stemmed token ([] when unknown)."""
        return list(self._token_map.get(stemmed_token, ()))

    def lookup_phrase(self, stemmed_bigram: str) -> list[str]:
        """Return concept ids for a stemmed two-word phrase."""
        return list(self._phrase_map.get(stemmed_bigram, ()))


_DEFAULT: ConceptLexicon | None = None


def default_lexicon() -> ConceptLexicon:
    """Return the shared default lexicon instance (built once)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ConceptLexicon()
    return _DEFAULT
