"""The MVDR pilot reruns to its committed record."""

import pilot_suite


def test_pilot_matches_its_record(capsys):
    """`python3 tests/pilot_suite.py`: every statistic of the 100-scene pilot
    equals tests/data/pilot_mvdr.json to rel_tol 1e-9."""
    code = pilot_suite.main([])
    assert code == 0, capsys.readouterr().out
