"""ServingConfig: the defaults hold, the constructor validates."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.serving.config import ServingConfig

SERVING_DOC = Path(__file__).resolve().parents[2] / "docs" / "SERVING.md"


class TestDefaults:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.max_sessions >= 1
        assert config.port == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"port": -1},
            {"port": 65536},
            {"ring_seconds": float("nan")},
            {"ring_seconds": float("inf")},
            {"max_sessions": -1},
            {"max_sessions": 0},
            {"ring_seconds": 0.0},
        ],
    )
    def test_direct_construction_validates(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


def test_serving_doc_table_lists_every_field():
    section = SERVING_DOC.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = [
        name
        for line in section.splitlines()
        if line.startswith("| `")
        for name in re.findall(r"`(\w+)`", line.split("|")[1])
    ]
    assert documented == [field.name for field in dataclasses.fields(ServingConfig)]
