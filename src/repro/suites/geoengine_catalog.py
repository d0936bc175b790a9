"""GeoEngine-substitute tool catalog: 46 geospatial copilot tools.

GeoLLM-Engine (Singh et al., CVPR 2024) provides agents with remote-
sensing tools over earth-observation archives (fmow, xView, ...).  The
paper uses 46 of its functions with *sequential* queries such as "Plot
the fmow VQA captions in UK from Fall 2009", where each call consumes the
previous call's output.  This catalog reproduces that tool surface; the
chain structure lives in :mod:`repro.suites.geoengine`.
"""

from __future__ import annotations

from repro.registry import register_catalog
from repro.tools.catalog import ToolCatalog
from repro.tools.schema import ToolParameter as P
from repro.tools.schema import ToolSpec as T

#: Earth-observation archives exposed by the simulated platform.
DATASETS = ("fmow", "xview", "sentinel2", "landsat8", "naip")

#: Seasons used by the date filters (paper example: "Fall 2009").
SEASONS = ("spring", "summer", "fall", "winter")


def _geoengine_tools() -> tuple[T, ...]:
    """The 46 GeoEngine-like tool specs (registration order is stable)."""
    tools = [
        # ------------------------------------------------------------------
        # data access (8)
        # ------------------------------------------------------------------
        T("load_dataset",
          "Load a remote sensing imagery dataset archive such as fmow or xview "
          "into the active workspace session.",
          (P("dataset", "string", "Dataset archive name.", enum=DATASETS),),
          category="data_access"),
        T("list_available_datasets",
          "List the satellite and aerial imagery datasets available on the platform.",
          (),
          category="data_access"),
        T("get_dataset_info",
          "Get the metadata of a dataset: sensor, resolution, coverage and license.",
          (P("dataset", "string", "Dataset archive name.", enum=DATASETS),),
          category="data_access"),
        T("filter_images_by_region",
          "Filter the loaded imagery collection to scenes located inside a country "
          "or named geographic region.",
          (P("region", "string", "Country or region name, e.g. 'UK'."),),
          category="data_access"),
        T("filter_images_by_daterange",
          "Filter the loaded imagery collection to scenes acquired between two dates.",
          (P("start_date", "string", "Range start, e.g. '2009-09-01'."),
           P("end_date", "string", "Range end, e.g. '2009-11-30'.")),
          category="data_access"),
        T("filter_images_by_season",
          "Filter the loaded imagery collection to scenes acquired during a season "
          "of a given year, like Fall 2009.",
          (P("season", "string", "Season of the year.", enum=SEASONS),
           P("year", "integer", "Calendar year.")),
          category="data_access"),
        T("sample_images",
          "Randomly sample a fixed number of scenes from the current filtered collection.",
          (P("count", "integer", "Number of scenes to sample."),),
          category="data_access"),
        T("get_image_metadata",
          "Get acquisition metadata for one scene: timestamp, sensor, cloud mask, footprint.",
          (P("image_id", "string", "Scene identifier."),),
          category="data_access"),
        # ------------------------------------------------------------------
        # object detection (8)
        # ------------------------------------------------------------------
        T("detect_objects",
          "Run the object detection model on the current image collection and return "
          "bounding boxes for a requested object class.",
          (P("object_class", "string", "Object class to detect, e.g. 'ship'."),),
          category="detection"),
        T("count_detected_objects",
          "Count the objects found by the most recent detection run, grouped per scene.",
          (),
          category="detection"),
        T("detect_buildings",
          "Detect building footprints in the current imagery collection.",
          (),
          category="detection"),
        T("detect_vehicles",
          "Detect cars and trucks in the current high-resolution imagery collection.",
          (),
          category="detection"),
        T("detect_ships",
          "Detect ships and maritime vessels in coastal and harbor scenes.",
          (),
          category="detection"),
        T("detect_aircraft",
          "Detect airplanes parked at airports or airfields in the imagery.",
          (),
          category="detection"),
        T("estimate_object_density",
          "Estimate the spatial density of detected objects per square kilometer.",
          (P("object_class", "string", "Object class of interest."),),
          category="detection"),
        T("filter_detections_by_confidence",
          "Keep only the detections whose confidence score exceeds a threshold.",
          (P("threshold", "number", "Minimum confidence in [0, 1]."),),
          category="detection"),
        # ------------------------------------------------------------------
        # classification & segmentation (6)
        # ------------------------------------------------------------------
        T("classify_land_use",
          "Classify each scene of the collection into land use categories such as "
          "residential, industrial, agricultural or forest.",
          (),
          category="classification"),
        T("classify_scene",
          "Classify a single scene into a functional category like airport, port or stadium.",
          (P("image_id", "string", "Scene identifier."),),
          category="classification"),
        T("segment_water_bodies",
          "Segment rivers, lakes and coastal water pixels in the imagery collection.",
          (),
          category="classification"),
        T("segment_roads",
          "Extract the road network mask from the imagery collection.",
          (),
          category="classification"),
        T("segment_vegetation",
          "Segment vegetated areas such as forest, cropland and parks in the imagery.",
          (),
          category="classification"),
        T("compute_landcover_fractions",
          "Compute the per-class area fraction of the land cover segmentation result.",
          (),
          category="classification"),
        # ------------------------------------------------------------------
        # VQA & captioning (6)
        # ------------------------------------------------------------------
        T("generate_image_captions",
          "Generate natural language captions describing each scene in the collection.",
          (),
          category="vqa"),
        T("generate_vqa_captions",
          "Generate visual question answering captions for the current collection, "
          "answering a templated question per scene.",
          (P("question", "string", "VQA question template.", required=False),),
          category="vqa"),
        T("answer_visual_question",
          "Answer a free-form question about a single scene using the VQA model.",
          (P("image_id", "string", "Scene identifier."),
           P("question", "string", "Question about the scene.")),
          category="vqa"),
        T("summarize_region_content",
          "Summarize what the filtered collection shows about a geographic region.",
          (P("region", "string", "Region the summary should cover."),),
          category="vqa"),
        T("compare_image_pair",
          "Describe the visual differences between two scenes of the same location.",
          (P("image_id_a", "string", "First scene."),
           P("image_id_b", "string", "Second scene.")),
          category="vqa"),
        T("describe_change",
          "Generate a textual description of the temporal change detected in a region.",
          (P("region", "string", "Region of interest."),),
          category="vqa"),
        # ------------------------------------------------------------------
        # analytics (8)
        # ------------------------------------------------------------------
        T("compute_ndvi",
          "Compute the normalized difference vegetation index for the collection "
          "and return per-scene vegetation health statistics.",
          (),
          category="analytics"),
        T("compute_cloud_cover",
          "Estimate the cloud cover percentage of each scene in the collection.",
          (),
          category="analytics"),
        T("change_detection",
          "Run change detection between two acquisition periods over the same region.",
          (P("baseline_year", "integer", "Baseline acquisition year."),
           P("comparison_year", "integer", "Comparison acquisition year.")),
          category="analytics"),
        T("compute_area_statistics",
          "Compute area statistics (total, mean, histogram) for the current analysis layer.",
          (),
          category="analytics"),
        T("population_estimate",
          "Estimate the population living inside the currently selected region.",
          (P("region", "string", "Region name."),),
          category="analytics"),
        T("elevation_profile",
          "Compute the terrain elevation profile along a path or across a region.",
          (P("region", "string", "Region or path description."),),
          category="analytics"),
        T("flood_risk_assessment",
          "Assess flood risk for a region by combining water masks and elevation data.",
          (P("region", "string", "Region to assess."),),
          category="analytics"),
        T("damage_assessment",
          "Assess building damage after a disaster event by comparing pre and post imagery.",
          (P("region", "string", "Affected region."),
           P("event_date", "string", "Date of the disaster event.")),
          category="analytics"),
        # ------------------------------------------------------------------
        # visualization (6)
        # ------------------------------------------------------------------
        T("plot_captions_on_map",
          "Plot the generated captions on an interactive map at each scene footprint.",
          (),
          category="visualization"),
        T("plot_detections",
          "Plot the detection bounding boxes over the scenes on the map viewer.",
          (),
          category="visualization"),
        T("plot_heatmap",
          "Render a heatmap layer of a computed metric over the region map.",
          (P("metric", "string", "Metric to visualize, e.g. 'ndvi'.", required=False),),
          category="visualization"),
        T("render_basemap",
          "Render the basemap of a region at a chosen zoom level in the map viewer.",
          (P("region", "string", "Region to center on."),
           P("zoom", "integer", "Zoom level.", required=False)),
          category="visualization"),
        T("plot_timeseries",
          "Plot the time series of a computed per-scene metric as a chart.",
          (P("metric", "string", "Metric to chart."),),
          category="visualization"),
        T("display_image_grid",
          "Display a grid of scene thumbnails from the current collection.",
          (P("count", "integer", "Number of thumbnails.", required=False),),
          category="visualization"),
        # ------------------------------------------------------------------
        # export & reporting (4)
        # ------------------------------------------------------------------
        T("export_geojson",
          "Export the current analysis layer (detections, masks, captions) as GeoJSON.",
          (P("filename", "string", "Output file name."),),
          category="export"),
        T("export_csv",
          "Export the current tabular results as a CSV file.",
          (P("filename", "string", "Output file name."),),
          category="export"),
        T("save_report_pdf",
          "Compile the session's maps, charts and captions into a PDF report.",
          (P("title", "string", "Report title."),),
          category="export"),
        T("share_map_link",
          "Create a shareable link of the current interactive map view.",
          (),
          category="export"),
    ]
    return tuple(tools)


@register_catalog("geoengine")
def build_geoengine_catalog() -> ToolCatalog:
    """The 46-tool GeoEngine-like catalog (full variant)."""
    return ToolCatalog("geoengine", _geoengine_tools())
