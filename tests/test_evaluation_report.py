"""Tests for the markdown report generator."""

import pytest

from repro.evaluation.reporting import comparison_paragraph, grid_report
from repro.evaluation.runner import ExperimentRunner
from repro.suites import load_suite


@pytest.fixture(scope="module")
def grid():
    runner = ExperimentRunner(load_suite("bfcl", n_queries=12))
    return runner.run_grid(["default", "lis-k3"], ["qwen2-7b"], ["q4_K_M"])


class TestGridReport:
    def test_contains_all_cells(self, grid):
        text = grid_report(grid, ["qwen2-7b"], ["q4_K_M"], ["default", "lis-k3"])
        assert "## qwen2-7b" in text
        assert "| q4_K_M | default |" in text
        assert "| q4_K_M | lis-k3 |" in text

    def test_baseline_normalized_to_one(self, grid):
        text = grid_report(grid, ["qwen2-7b"], ["q4_K_M"], ["default", "lis-k3"])
        default_row = next(line for line in text.splitlines()
                           if "| default |" in line)
        assert "| 1.00 | 1.00 |" in default_row

    def test_ci_brackets_present(self, grid):
        text = grid_report(grid, ["qwen2-7b"], ["q4_K_M"], ["default", "lis-k3"])
        assert "[" in text and "]" in text

    def test_custom_title(self, grid):
        text = grid_report(grid, ["qwen2-7b"], ["q4_K_M"], ["default"],
                           title="Figure 2 panel")
        assert text.startswith("# Figure 2 panel")


class TestComparisonParagraph:
    def test_mentions_both_schemes_and_pvalue(self, grid):
        sentence = comparison_paragraph(grid, "qwen2-7b", "q4_K_M")
        assert "lis-k3" in sentence
        assert "default" in sentence
        assert "p=" in sentence
        assert ("significant" in sentence) or ("not significant" in sentence)
