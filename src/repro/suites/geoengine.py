"""GeoEngine-substitute query generator: sequential geospatial tasks.

Queries are chains of dependent calls over the 46-tool geospatial catalog
("sequential function calls, where each call depends on the previous
result", paper Section IV).  The canonical paper example —
"Plot the fmow VQA captions in UK from Fall 2009" — is the first
template below.
"""

from __future__ import annotations

from repro.suites.base import PAPER_QUERY_BATCH, BenchmarkSuite, Query
from repro.suites.templating import QueryTemplate, season_dates
from repro.tools.catalog import ToolCatalog, load_catalog
from repro.tools.schema import ToolCall


def _chain(*steps: tuple) -> list[ToolCall]:
    return [ToolCall(tool, arguments) for tool, arguments in steps]


GEOENGINE_TEMPLATES: tuple[QueryTemplate, ...] = (
    QueryTemplate(
        "vqa_mapping",
        "Plot the {dataset} VQA captions in {region} from {season} {year}",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("filter_images_by_season", {"season": s["season"], "year": s["year"]}),
            ("generate_vqa_captions", {}),
            ("plot_captions_on_map", {}),
        )),
    QueryTemplate(
        "detection",
        "How many {object_class}s are visible in {region} in the {dataset} imagery from {year}?",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("filter_images_by_daterange",
             {"start_date": f"{s['year']}-01-01", "end_date": f"{s['year']}-12-31"}),
            ("detect_objects", {"object_class": s["object_class"]}),
            ("count_detected_objects", {}),
        )),
    QueryTemplate(
        "detection",
        "Detect building footprints in {region} using {dataset} and export them as GeoJSON.",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("detect_buildings", {}),
            ("export_geojson", {"filename": f"{s['region'].lower()}_buildings.geojson"}),
        )),
    QueryTemplate(
        "analytics",
        "How healthy is the vegetation in {region} during {season} {year}? Show a heatmap.",
        lambda s: _chain(
            ("load_dataset", {"dataset": "sentinel2"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("filter_images_by_season", {"season": s["season"], "year": s["year"]}),
            ("compute_ndvi", {}),
            ("plot_heatmap", {"metric": "ndvi"}),
        )),
    QueryTemplate(
        "reporting",
        "Assess the flood risk around {region} and save the findings as a PDF report.",
        lambda s: _chain(
            ("load_dataset", {"dataset": "sentinel2"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("segment_water_bodies", {}),
            ("flood_risk_assessment", {"region": s["region"]}),
            ("save_report_pdf", {"title": f"Flood risk report for {s['region']}"}),
        )),
    QueryTemplate(
        "analytics",
        "What changed in {region} between {year} and {year_b}? Describe the differences.",
        lambda s: _chain(
            ("load_dataset", {"dataset": "landsat8"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("change_detection", {"baseline_year": s["year"], "comparison_year": s["year_b"]}),
            ("describe_change", {"region": s["region"]}),
        )),
    QueryTemplate(
        "analytics",
        "Chart how cloud cover over {region} evolved in the {dataset} archive.",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("compute_cloud_cover", {}),
            ("plot_timeseries", {"metric": "cloud cover"}),
        )),
    QueryTemplate(
        "vqa_mapping",
        "Show me a grid of {small_int} sample {dataset} scenes from {region}.",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("sample_images", {"count": s["small_int"]}),
            ("display_image_grid", {"count": s["small_int"]}),
        )),
    QueryTemplate(
        "detection",
        "Detect ships near the ports of {region} and plot the detections on the map.",
        lambda s: _chain(
            ("load_dataset", {"dataset": "xview"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("detect_ships", {}),
            ("plot_detections", {}),
        )),
    QueryTemplate(
        "analytics",
        "Classify land use across {region} and export the area fractions to CSV.",
        lambda s: _chain(
            ("load_dataset", {"dataset": "fmow"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("classify_land_use", {}),
            ("compute_landcover_fractions", {}),
            ("export_csv", {"filename": f"{s['region'].lower()}_landuse.csv"}),
        )),
    QueryTemplate(
        "analytics",
        "Roughly how many people live in the {region} area according to {dataset}?",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("population_estimate", {"region": s["region"]}),
        )),
    QueryTemplate(
        "reporting",
        "Assess building damage in {region} after the {date} storm and write a report.",
        lambda s: _chain(
            ("load_dataset", {"dataset": "xview"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("damage_assessment", {"region": s["region"], "event_date": s["date"]}),
            ("save_report_pdf", {"title": f"Damage assessment for {s['region']}"}),
        )),
    QueryTemplate(
        "vqa_mapping",
        "Caption the {dataset} scenes over {region} and share the resulting map.",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("generate_image_captions", {}),
            ("plot_captions_on_map", {}),
            ("share_map_link", {}),
        )),
    QueryTemplate(
        "detection",
        "Find vehicles in {region} keeping only detections above {threshold} confidence.",
        lambda s: _chain(
            ("load_dataset", {"dataset": "xview"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("detect_vehicles", {}),
            ("filter_detections_by_confidence", {"threshold": s["threshold"]}),
        )),
    QueryTemplate(
        "detection",
        "How dense is aircraft parking around {region} airports in {year}?",
        lambda s: _chain(
            ("load_dataset", {"dataset": "fmow"}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("filter_images_by_daterange",
             {"start_date": f"{s['year']}-01-01", "end_date": f"{s['year']}-12-31"}),
            ("detect_aircraft", {}),
            ("estimate_object_density", {"object_class": "aircraft"}),
        )),
    QueryTemplate(
        "vqa_mapping",
        "Summarize what the {season} {year} {dataset} imagery shows about {region}.",
        lambda s: _chain(
            ("load_dataset", {"dataset": s["dataset"]}),
            ("filter_images_by_region", {"region": s["region"]}),
            ("filter_images_by_season", {"season": s["season"], "year": s["year"]}),
            ("summarize_region_content", {"region": s["region"]}),
        )),
)


def generate_geoengine_queries(n_queries: int, seed: int, split: str) -> list[Query]:
    """Generate ``n_queries`` deterministic sequential geospatial queries."""
    from repro.utils.rng import derive_rng

    rng = derive_rng("geoengine", split, seed)
    order = rng.permutation(len(GEOENGINE_TEMPLATES))
    queries: list[Query] = []
    for index in range(n_queries):
        template = GEOENGINE_TEMPLATES[int(order[index % len(order)])]
        text, calls, slots = template.instantiate(rng)
        if "season" in slots and "year" in slots:
            # keep the date filters consistent with the season mentioned in text
            start, end = season_dates(slots["season"], slots["year"])
            for call in calls:
                if call.tool == "filter_images_by_daterange":
                    call.arguments.update(start_date=start, end_date=end)
        queries.append(Query(
            qid=f"geo-{split}-{index:04d}",
            text=text,
            category=template.category,
            gold_calls=tuple(calls),
            sequential=True,
        ))
    return queries


def build_geoengine_suite(n_queries: int = PAPER_QUERY_BATCH, seed: int = 0,
                          n_train: int = 120,
                          catalog: ToolCatalog | None = None) -> BenchmarkSuite:
    """Build the GeoEngine-substitute suite (46 tools, sequential chains).

    ``catalog`` overrides the tool pool (default: the registered
    ``"geoengine"`` catalog).
    """
    return BenchmarkSuite(
        name="geoengine",
        catalog=catalog if catalog is not None else load_catalog("geoengine"),
        queries=generate_geoengine_queries(n_queries, seed, split="eval"),
        train_queries=generate_geoengine_queries(n_train, seed, split="train"),
        sequential=True,
    )
