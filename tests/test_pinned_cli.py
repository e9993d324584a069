"""Every pinned CLI call still writes its stored CSV (see pin_cli.py)."""

import pytest

from pin_cli import CALLS, PINNED, moved, run_call


@pytest.mark.parametrize("name", CALLS)
def test_cli_output_matches_pinned(name, tmp_path):
    expected = (PINNED / f"{name}.csv").read_text(encoding="utf-8")
    assert moved(expected, run_call(CALLS[name], tmp_path)) == []


def test_moved_cells_are_reported():
    expected = "x,residual,label\n1,1e-16,NA\n2,0,a\n"
    assert moved(expected, expected) == []
    assert moved(expected, "x,residual,label\n1.0000000000001,2e-15,NA\n2,0,a\n") == []
    assert moved(expected, "x,residual,label\n1.000000000001,1e-16,NA\n2,1e-13,b\n") == [
        "row 1 x: 1.000000000001 != 1 (rel 1e-12)",
        "row 2 residual: 1e-13 != 0 (abs 1e-13)",
        "row 2 label: b != a"]
    assert moved(expected, "x,residual,label\n1,1e-16,0\n2,0,a\n") == [
        "row 1 label: 0 != NA"]
    assert moved(expected, "x,residual,label\n1,1e-16,NA\n") == ["1 rows != 2"]
    assert moved("x\n0\n", "x\n5e-30\n") == ["row 1 x: 5e-30 != 0 (rel inf)"]
    assert moved(expected, "x,res,label\n1,1e-16,NA\n2,0,a\n")[0].startswith("header")
