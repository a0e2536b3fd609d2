"""The catalogue of planted faults stays applicable: each old text occurs
exactly once in its file, and each fault changes it."""

from pathlib import Path

import pytest

from planted_faults import FAULTS

SRC = Path(__file__).resolve().parent.parent / "src" / "plancell"


@pytest.mark.parametrize("fault", FAULTS, ids=[f["name"] for f in FAULTS])
def test_each_fault_applies_to_exactly_one_text(fault):
    assert fault["old"] != fault["new"]
    assert (SRC / fault["file"]).read_text(encoding="utf-8").count(fault["old"]) == 1
    assert fault["tests"] and all(
        (SRC.parent.parent / path).is_file() for path in fault["tests"])
