"""The golden CLI corpus: every recorded command reproduces its record exactly.

Records live in ``tests/golden/cli.json`` and are written by
``tests/golden/regen.py``, which runs them the same way (see ``run`` there)
and refuses an Ext table that a second pipeline does not reproduce.  A
changed record is a changed check.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGEN = _regen()
RECORDS = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


def test_records_are_the_listed_commands():
    assert [r["argv"] for r in RECORDS] == REGEN.CASES


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_command_reproduces_its_record(record, tmp_path):
    assert REGEN.run(record["argv"], str(tmp_path)) == record
