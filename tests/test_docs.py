"""docs/formats.md states each size limit it names at the constant's
current value, so a limit reset in the code cannot leave the text stale."""

import importlib
import re
from pathlib import Path

from d1ring.invert import MAX_EXTRA_LEVELS

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"

LIMITS = {
    "groups.MAX_BALL_SIZE",
    "invert.MAX_UNKNOWNS",
    "invert.MAX_BLOCK_COORDINATES",
    "invert.MAX_TOWER_COORDINATES",
    "experiments.MAX_SUITE_N",
    "experiments.MAX_SUITE_FACTORS",
    "invert.MAX_DET_TERM_PAIRS",
}


def limit_sentences() -> dict:
    """Each "(`module.NAME`" reference of the doc with the sentence it
    stands in, the text between the ". " around it, lines joined."""
    text = " ".join(FORMATS.read_text().split())
    sentences = {}
    for match in re.finditer(r"\(`(\w+\.MAX_\w+)`", text):
        start = text.rfind(". ", 0, match.start()) + 2
        end = text.find(". ", match.end())
        sentences[match[1]] = text[start:end]
    return sentences


def test_every_limit_is_named():
    assert set(limit_sentences()) == LIMITS


def test_each_limit_is_stated_at_its_value():
    for ref, sentence in limit_sentences().items():
        module, name = ref.split(".")
        value = getattr(importlib.import_module(f"d1ring.{module}"), name)
        # the value as a whole number: 1 is not stated by "16"
        assert re.search(rf"(?<![\d,.]){value:,}(?![\d,])", sentence), (ref, sentence)


def test_tower_levels_are_stated_at_max_extra_levels():
    sentence = limit_sentences()["invert.MAX_TOWER_COORDINATES"]
    assert f"`m <= depth + window + {MAX_EXTRA_LEVELS}`" in sentence
