"""Tests for the BFCL and GeoEngine tool catalogs (paper tool counts)."""

import json

import pytest

from repro.tools import load_catalog


@pytest.fixture(scope="module")
def bfcl():
    return load_catalog("bfcl")


@pytest.fixture(scope="module")
def geo():
    return load_catalog("geoengine")


class TestBfclCatalog:
    def test_exactly_51_tools(self, bfcl):
        # paper Section IV: "51 functions from BFCL"
        assert len(bfcl) == 51

    def test_unique_names(self, bfcl):
        assert len(set(bfcl.names)) == 51

    def test_every_tool_has_description(self, bfcl):
        for tool in bfcl:
            assert len(tool.description.split()) >= 5, tool.name

    def test_category_spread(self, bfcl):
        assert len(bfcl.categories) >= 8

    def test_json_schemas_parse(self, bfcl):
        for tool in bfcl:
            parsed = json.loads(tool.json_text())
            assert parsed["function"]["name"] == tool.name

    def test_enum_parameters_well_formed(self, bfcl):
        units = bfcl.get("get_current_weather").parameter("units")
        assert units.enum == ("metric", "imperial")


class TestGeoCatalog:
    def test_exactly_46_tools(self, geo):
        # paper Section IV: "46 functions from GeoEngine"
        assert len(geo) == 46

    def test_unique_names(self, geo):
        assert len(set(geo.names)) == 46

    def test_every_tool_has_description(self, geo):
        for tool in geo:
            assert len(tool.description.split()) >= 5, tool.name

    def test_domain_categories_present(self, geo):
        assert {"data_access", "detection", "vqa", "visualization",
                "export"} <= set(geo.categories)

    def test_paper_example_tools_exist(self, geo):
        # "Plot the fmow VQA captions in UK from Fall 2009"
        for name in ("load_dataset", "filter_images_by_region",
                     "filter_images_by_season", "generate_vqa_captions",
                     "plot_captions_on_map"):
            assert name in geo, name

    def test_dataset_enum(self, geo):
        dataset = geo.get("load_dataset").parameter("dataset")
        assert "fmow" in dataset.enum

    def test_no_name_collision_between_catalogs(self, bfcl, geo):
        assert not set(bfcl.names) & set(geo.names)
