"""Tests for repro.embedding.lexicon."""

from repro.embedding import lexicon as lexicon_module
from repro.embedding.lexicon import DEFAULT_CONCEPTS, ConceptLexicon, default_lexicon
from repro.embedding.tokenizer import stem


def _lexicon_over(monkeypatch, concepts) -> ConceptLexicon:
    """A lexicon built from ``concepts`` in place of the module table
    (the shared default is built first, so it never sees the patch)."""
    default_lexicon()
    monkeypatch.setattr(lexicon_module, "DEFAULT_CONCEPTS", concepts)
    return ConceptLexicon()


class TestConceptLexicon:
    def test_synonyms_share_concept(self):
        lexicon = default_lexicon()
        assert "weather" in lexicon.lookup(stem("forecast"))
        assert "weather" in lexicon.lookup(stem("weather"))

    def test_unknown_token_empty(self):
        assert default_lexicon().lookup("zzzzqq") == []

    def test_phrase_lookup(self):
        lexicon = default_lexicon()
        key = f"{stem('land')} {stem('use')}"
        assert "landuse" in lexicon.lookup_phrase(key)

    def test_geospatial_coverage(self):
        lexicon = default_lexicon()
        for term, concept in [
            ("satellite", "satellite"),
            ("detection", "detect"),
            ("caption", "caption"),
            ("ndvi", "vegetation"),
        ]:
            assert concept in lexicon.lookup(stem(term)), term

    def test_general_coverage(self):
        lexicon = default_lexicon()
        for term, concept in [
            ("translate", "translate"),
            ("stock", "stock"),
            ("calendar", "calendar"),
            ("derivative", "calculus"),
        ]:
            assert concept in lexicon.lookup(stem(term)), term

    def test_len_counts_concepts(self):
        assert len(default_lexicon().concepts) == len(DEFAULT_CONCEPTS)

    def test_extended_adds_concept(self, monkeypatch):
        extended = _lexicon_over(monkeypatch, {
            **DEFAULT_CONCEPTS, "quantum": ("qubit", "entangle")})
        assert "quantum" in extended.lookup(stem("qubit"))
        # base lexicon untouched
        assert default_lexicon().lookup(stem("qubit")) == []

    def test_extended_merges_terms_into_existing_concept(self, monkeypatch):
        extended = _lexicon_over(monkeypatch, {
            **DEFAULT_CONCEPTS,
            "weather": DEFAULT_CONCEPTS["weather"] + ("barometer",)})
        assert "weather" in extended.lookup(stem("barometer"))
        assert "weather" in extended.lookup(stem("forecast"))

    def test_default_lexicon_is_shared_instance(self):
        assert default_lexicon() is default_lexicon()

    def test_every_concept_has_terms(self):
        for concept, terms in DEFAULT_CONCEPTS.items():
            assert terms, f"concept {concept} has no terms"

    def test_custom_lexicon_isolated(self, monkeypatch):
        tiny = _lexicon_over(monkeypatch, {"pets": ("dog", "cat")})
        assert "pets" in tiny.lookup("dog")
        assert tiny.lookup(stem("weather")) == []
