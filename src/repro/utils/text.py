"""Small text-manipulation helpers used across the package."""

from __future__ import annotations

import re

_WHITESPACE_RE = re.compile(r"\s+")


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip the ends."""
    return _WHITESPACE_RE.sub(" ", text).strip()


def truncate_words(text: str, max_words: int) -> str:
    """Return at most ``max_words`` whitespace-separated words of ``text``."""
    if max_words <= 0:
        return ""
    words = text.split()
    if len(words) <= max_words:
        return text.strip()
    return " ".join(words[:max_words])
