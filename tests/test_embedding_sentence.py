"""Tests for repro.embedding.sentence — the semantic property LiS relies on."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.embedding import SentenceEmbedder, cosine_similarity


@pytest.fixture(scope="module")
def embedder():
    return SentenceEmbedder()


class TestEncodeBasics:
    def test_dim_default_768(self, embedder):
        assert embedder.encode_one("weather in Paris").shape == (768,)

    def test_unit_norm(self, embedder):
        vec = embedder.encode_one("translate a document to French")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self, embedder):
        assert np.linalg.norm(embedder.encode_one("")) == 0.0

    def test_deterministic(self, embedder):
        a = embedder.encode_one("detect ships in satellite imagery")
        b = SentenceEmbedder().encode_one("detect ships in satellite imagery")
        np.testing.assert_allclose(a, b)

    def test_batch_encode_shape(self, embedder):
        batch = embedder.encode(["a sentence", "another one", ""])
        assert batch.shape == (3, 768)

    def test_encode_rejects_bare_string(self, embedder):
        with pytest.raises(TypeError):
            embedder.encode("not a list")

    def test_encode_empty_batch(self, embedder):
        assert embedder.encode([]).shape == (0, 768)

    def test_small_dim_supported(self):
        assert SentenceEmbedder(dim=64).encode_one("hello world").shape == (64,)

    def test_tiny_dim_rejected(self):
        with pytest.raises(ValueError):
            SentenceEmbedder(dim=4)


class TestSemanticProperty:
    """Paraphrases must rank above unrelated text: the LiS load-bearing property."""

    PARAPHRASE_PAIRS = [
        ("get the weather forecast for a city",
         "fetch current weather conditions at a location"),
        ("translate text into another language",
         "convert a sentence to French or Spanish"),
        ("detect objects in satellite imagery",
         "identify buildings and vehicles in an aerial image"),
        ("plot a chart of the results",
         "visualize the data as a graph"),
        ("compute the mean and standard deviation",
         "calculate average and statistical deviation of numbers"),
    ]
    DISTRACTORS = [
        "book a table at an italian restaurant",
        "send an email to my manager",
        "what is the capital of France",
        "set an alarm for 7 am",
    ]

    @pytest.mark.parametrize("text_a,text_b", PARAPHRASE_PAIRS)
    def test_paraphrase_beats_every_distractor(self, embedder, text_a, text_b):
        paraphrase_sim = embedder.similarity(text_a, text_b)
        for distractor in self.DISTRACTORS:
            assert paraphrase_sim > embedder.similarity(text_a, distractor), distractor

    def test_identical_text_maximal(self, embedder):
        text = "plot the vqa captions in the uk"
        assert embedder.similarity(text, text) == pytest.approx(1.0)

    def test_synonym_only_overlap_is_positive(self, embedder):
        sim = embedder.similarity("fetch the forecast", "retrieve weather conditions")
        assert sim > 0.25

    def test_unrelated_lower_than_related(self, embedder):
        related = embedder.similarity("stock price of a ticker", "share market quote")
        unrelated = embedder.similarity("stock price of a ticker", "segment rivers in imagery")
        assert related > unrelated


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_safe(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_entries_whose_squares_underflow(self):
        ones = np.ones(4)
        assert cosine_similarity(np.full(4, 2.7e-162), ones) == pytest.approx(1.0)
        assert cosine_similarity(np.array([3e-162, 0.0, 0.0, 0.0]),
                                 ones) == pytest.approx(0.5)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
    @example([2.7e-162] * 4)
    @example([3e-162, 0.0, 0.0, 0.0])
    @settings(max_examples=50)
    def test_bounded(self, values):
        vec = np.asarray(values)
        other = np.ones(4)
        assert -1.0001 <= cosine_similarity(vec, other) <= 1.0001


class TestNamespaces:
    def test_different_namespace_different_projection(self):
        a = SentenceEmbedder(seed_namespace="a").encode_one("weather")
        b = SentenceEmbedder(seed_namespace="b").encode_one("weather")
        assert not np.allclose(a, b)

    def test_features_exposed(self):
        features = SentenceEmbedder().features("plot the weather")
        families = {family for family, _ in features}
        assert {"token", "concept", "trigram"} <= families
