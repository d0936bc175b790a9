"""BFCL-substitute query generator: single-call general function calling.

Each template produces a user query plus the single gold call that solves
it (BFCL "mainly involves single function calls for each query", paper
Section IV).  Queries are sampled template-first so every tool keeps
roughly equal representation, then shuffled deterministically.
"""

from __future__ import annotations

from repro.suites.base import PAPER_QUERY_BATCH, BenchmarkSuite, Query
from repro.suites.templating import QueryTemplate
from repro.tools.catalog import ToolCatalog, load_catalog
from repro.tools.schema import ToolCall
from repro.utils.rng import derive_rng


def _call(tool: str, **arguments) -> list[ToolCall]:
    return [ToolCall(tool, arguments)]


BFCL_TEMPLATES: tuple[QueryTemplate, ...] = (
    # math -----------------------------------------------------------------
    QueryTemplate("math", "What is the value of ({number} + 17) * 3?",
                  lambda s: _call("calculate_expression", expression=f"({s['number']} + 17) * 3")),
    QueryTemplate("math", "Solve the quadratic equation 2x^2 - {small_int}x - 9 = 0.",
                  lambda s: _call("solve_quadratic", a=2.0, b=-float(s["small_int"]), c=-9.0)),
    QueryTemplate("math", "Compute the factorial of {small_int}.",
                  lambda s: _call("compute_factorial", n=s["small_int"])),
    QueryTemplate("math", "What are the prime factors of {number}?",
                  lambda s: _call("find_prime_factors", n=s["number"])),
    QueryTemplate("math", "Differentiate x**3 + {small_int}*x with respect to x.",
                  lambda s: _call("compute_derivative",
                                  function=f"x**3 + {s['small_int']}*x", variable="x")),
    QueryTemplate("math", "Integrate sin(x) from 0 to {x_value}.",
                  lambda s: _call("definite_integral", function="sin(x)",
                                  lower=0.0, upper=s["x_value"])),
    QueryTemplate("math", "Find the determinant of the matrix [[1, 2], [3, {small_int}]].",
                  lambda s: _call("matrix_determinant",
                                  matrix=[[1.0, 2.0], [3.0, float(s["small_int"])]])),
    # statistics -----------------------------------------------------------
    QueryTemplate("statistics",
                  "Give me the mean and standard deviation of 4, 8, {small_int}, 16 and 23.",
                  lambda s: _call("descriptive_statistics",
                                  values=[4.0, 8.0, float(s["small_int"]), 16.0, 23.0])),
    QueryTemplate("statistics",
                  "Fit a line through the points x = 1,2,3,4 and y = 2,4,5,{small_int}.",
                  lambda s: _call("linear_regression", x=[1.0, 2.0, 3.0, 4.0],
                                  y=[2.0, 4.0, 5.0, float(s["small_int"])])),
    QueryTemplate("statistics",
                  "What is the probability of exactly 3 heads in {small_int} fair coin flips?",
                  lambda s: _call("probability_binomial", trials=s["small_int"],
                                  successes=3, p=0.5)),
    QueryTemplate("statistics",
                  "Draw {small_int} random numbers between 0 and {number}.",
                  lambda s: _call("random_sample", low=0.0, high=float(s["number"]),
                                  size=s["small_int"])),
    # geometry ---------------------------------------------------------------
    QueryTemplate("geometry", "Find the area of a triangle with base {small_int} and height {x_value}.",
                  lambda s: _call("triangle_area", base=float(s["small_int"]), height=s["x_value"])),
    QueryTemplate("geometry", "What are the circumference and area of a circle of radius {x_value}?",
                  lambda s: _call("circle_properties", radius=s["x_value"])),
    QueryTemplate("geometry", "How far apart are the points (1, 2) and ({small_int}, {x_value})?",
                  lambda s: _call("distance_between_points", x1=1.0, y1=2.0,
                                  x2=float(s["small_int"]), y2=s["x_value"])),
    # weather ----------------------------------------------------------------
    QueryTemplate("weather", "What's the weather like in {city} right now?",
                  lambda s: _call("get_current_weather", city=s["city"])),
    QueryTemplate("weather", "Will it rain in {city} over the next {small_int} days?",
                  lambda s: _call("get_weather_forecast", city=s["city"], days=s["small_int"])),
    QueryTemplate("weather", "How is the air quality in {city} today?",
                  lambda s: _call("get_air_quality", city=s["city"])),
    QueryTemplate("weather", "When does the sun rise and set in {city}?",
                  lambda s: _call("get_sunrise_sunset", city=s["city"])),
    # time & calendar ----------------------------------------------------------
    QueryTemplate("time_calendar", "What time is it in {city} at the moment?",
                  lambda s: _call("get_current_time", location=s["city"])),
    QueryTemplate("time_calendar",
                  "Convert {date} 14:00 from {timezone_a} to {timezone_b}.",
                  lambda s: _call("convert_timezone", time=f"{s['date']} 14:00",
                                  from_zone=s["timezone_a"], to_zone=s["timezone_b"])),
    QueryTemplate("time_calendar",
                  "Put a {event_title} on my calendar for {date} at {time}.",
                  lambda s: _call("create_calendar_event", title=s["event_title"],
                                  date=s["date"], time=s["time"])),
    QueryTemplate("time_calendar", "What do I have scheduled on {date}?",
                  lambda s: _call("list_calendar_events", date=s["date"])),
    QueryTemplate("time_calendar", "Remind me to call mom at {time}.",
                  lambda s: _call("set_reminder", message="call mom", time=s["time"])),
    # finance ------------------------------------------------------------------
    QueryTemplate("finance", "How is {ticker} stock doing today?",
                  lambda s: _call("get_stock_price", ticker=s["ticker"])),
    QueryTemplate("finance", "Convert {amount} {currency} to EUR.",
                  lambda s: _call("convert_currency", amount=s["amount"],
                                  from_currency=s["currency"], to_currency="EUR")),
    QueryTemplate("finance",
                  "What's the monthly payment on a {amount} thousand dollar loan "
                  "at {rate}% over {big_int} years?",
                  lambda s: _call("compute_loan_payment", principal=s["amount"] * 1000,
                                  annual_rate=s["rate"], years=s["big_int"])),
    QueryTemplate("finance",
                  "If I invest {amount} dollars at {rate}% compounded yearly, "
                  "what will it be worth in {small_int} years?",
                  lambda s: _call("compound_interest", principal=s["amount"],
                                  annual_rate=s["rate"], years=s["small_int"])),
    QueryTemplate("finance", "What's the price of {crypto} right now?",
                  lambda s: _call("get_crypto_price", symbol=s["crypto"])),
    QueryTemplate("finance",
                  "Estimate my income tax if I made {income} dollars filing as {status}.",
                  lambda s: _call("estimate_tax", income=s["income"], status=s["status"])),
    # text & language -------------------------------------------------------------
    QueryTemplate("text_language", "Translate '{phrase}' into {language}.",
                  lambda s: _call("translate_text", text=s["phrase"],
                                  target_language=s["language"])),
    QueryTemplate("text_language",
                  "Summarize this article about {topic} in {small_int} sentences: "
                  "'{topic} has seen rapid progress in recent years...'",
                  lambda s: _call("summarize_text",
                                  text=f"{s['topic']} has seen rapid progress in recent years...",
                                  max_sentences=s["small_int"])),
    QueryTemplate("text_language", "Proofread this sentence: '{phrase}'.",
                  lambda s: _call("check_grammar", text=s["phrase"])),
    QueryTemplate("text_language",
                  "Is the sentiment of this review positive: 'the {dish} was amazing'?",
                  lambda s: _call("analyze_sentiment", text=f"the {s['dish']} was amazing")),
    QueryTemplate("text_language",
                  "Pull the top {small_int} keywords out of my notes on {topic}.",
                  lambda s: _call("extract_keywords", text=f"notes on {s['topic']}",
                                  max_keywords=s["small_int"])),
    # knowledge ----------------------------------------------------------------
    QueryTemplate("knowledge", "Look up {topic} on Wikipedia for me.",
                  lambda s: _call("search_wikipedia", query=s["topic"])),
    QueryTemplate("knowledge", "Search the web for the best laptops for {topic}.",
                  lambda s: _call("web_search", query=f"best laptops for {s['topic']}")),
    QueryTemplate("knowledge", "What are today's headlines about {topic}?",
                  lambda s: _call("get_news_headlines", topic=s["topic"])),
    QueryTemplate("knowledge", "What does the word '{word}' mean?",
                  lambda s: _call("define_word", word=s["word"])),
    QueryTemplate("knowledge", "Tell me a fun fact about {topic}.",
                  lambda s: _call("get_fun_fact", subject=s["topic"])),
    # travel & local --------------------------------------------------------------
    QueryTemplate("travel_local", "Find flights from {city} to {country} on {date}.",
                  lambda s: _call("search_flights", origin=s["city"],
                                  destination=s["country"], date=s["date"])),
    QueryTemplate("travel_local",
                  "Find a hotel in {city} checking in {date} for {small_int} nights.",
                  lambda s: _call("find_hotels", city=s["city"], check_in=s["date"],
                                  nights=s["small_int"])),
    QueryTemplate("travel_local", "Where can I get {cuisine} food in {city}?",
                  lambda s: _call("find_restaurants", location=s["city"], cuisine=s["cuisine"])),
    QueryTemplate("travel_local", "Give me {mode} directions from {city} airport to downtown.",
                  lambda s: _call("get_directions", origin=f"{s['city']} airport",
                                  destination=f"{s['city']} downtown", mode=s["mode"])),
    QueryTemplate("travel_local", "How bad is traffic in {city} right now?",
                  lambda s: _call("get_traffic_info", area=s["city"])),
    # lifestyle --------------------------------------------------------------------
    QueryTemplate("lifestyle", "Find me a recipe for {dish}.",
                  lambda s: _call("search_recipes", query=s["dish"])),
    QueryTemplate("lifestyle", "Tell me about the movie {movie}.",
                  lambda s: _call("get_movie_details", title=s["movie"])),
    QueryTemplate("lifestyle", "Did the {team} win their last game?",
                  lambda s: _call("get_sports_scores", team=s["team"])),
    QueryTemplate("lifestyle", "Recommend some {book_genre} books.",
                  lambda s: _call("recommend_books", query=s["book_genre"])),
    QueryTemplate("lifestyle", "Get me the lyrics of {song} by {artist}.",
                  lambda s: _call("get_song_lyrics", title=s["song"], artist=s["artist"])),
    QueryTemplate("lifestyle",
                  "What's my BMI if I weigh {weight} kg and I'm {height} cm tall?",
                  lambda s: _call("calculate_bmi", weight_kg=s["weight"], height_cm=s["height"])),
    QueryTemplate("lifestyle", "How many calories are in {meal}?",
                  lambda s: _call("count_calories", meal=s["meal"])),
)


def generate_bfcl_queries(n_queries: int, seed: int, split: str) -> list[Query]:
    """Generate ``n_queries`` deterministic BFCL-like queries.

    Templates are cycled so tool coverage stays uniform, then the order
    is shuffled; ``split`` namespaces the RNG so train/eval pools differ.
    """
    rng = derive_rng("bfcl", split, seed)
    order = rng.permutation(len(BFCL_TEMPLATES))
    queries: list[Query] = []
    for index in range(n_queries):
        template = BFCL_TEMPLATES[int(order[index % len(order)])]
        text, calls, _ = template.instantiate(rng)
        queries.append(Query(
            qid=f"bfcl-{split}-{index:04d}",
            text=text,
            category=template.category,
            gold_calls=tuple(calls),
            sequential=False,
        ))
    return queries


def build_bfcl_suite(n_queries: int = PAPER_QUERY_BATCH, seed: int = 0,
                     n_train: int = 120,
                     catalog: ToolCatalog | None = None) -> BenchmarkSuite:
    """Build the BFCL-substitute suite (51 tools, single-call queries).

    ``catalog`` overrides the tool pool (default: the registered
    ``"bfcl"`` catalog).
    """
    return BenchmarkSuite(
        name="bfcl",
        catalog=catalog if catalog is not None else load_catalog("bfcl"),
        queries=generate_bfcl_queries(n_queries, seed, split="eval"),
        train_queries=generate_bfcl_queries(n_train, seed, split="train"),
        sequential=False,
    )
