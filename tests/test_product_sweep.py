import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "product_sweep.py"
_spec = importlib.util.spec_from_file_location("product_sweep", _PATH)
product_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(product_sweep)


@pytest.mark.parametrize("sweep, count", [("hint", 72), ("modes", 52), ("branches", 390),
                                         ("segments", 40)])
def test_each_sweep_holds_its_solves_once(sweep, count):
    keys = [case[0] for case in product_sweep.cases(sweep)]
    assert len(keys) == len(set(keys)) == count


def test_compare_counts_each_kind_of_move(tmp_path, capsys):
    def record(length, points, branches="01"):
        return {"family": "f", "time_s": 0.5, "length": length, "branches": branches,
                "points": points, "error": None}

    before = {"a": record(1.0, [0.0]), "b": record(2.0, [0.0]), "c": record(3.0, [0.0]),
              "d": record(4.0, [0.0])}
    after = {"a": record(1.5, [0.0]), "b": record(1.5, [0.0]), "c": record(3.0, [0.0]),
             "d": record(4.0, [1e-9], "10")}
    for name, records in (("before", before), ("after", after)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"records": records}))
    product_sweep.compare(tmp_path / "before.json", tmp_path / "after.json")
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["f", "1", "1", "1", "1", "2.00", "2.00"]
    assert sum(line.startswith("  ") for line in lines) == 3
