"""Golden-output gate: small experiments must reproduce the committed CSVs.

The golden files were written by tests/make_golden.py. Text columns must
match exactly, the draw counts `stat_draws` and `eval_draws` included; float
columns (sweep, se, ci) within rtol 1e-9, atol 1e-12.
"""

import csv
import io

import numpy as np
import pytest

from make_golden import DATA_DIR, GOLDEN_CONFIGS, run_without_stamp

FLOAT_COLUMNS = ("sweep", "se", "ci")


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_matches_golden_csv(name, tmp_path):
    expected = _rows((DATA_DIR / name).read_text())
    actual = _rows(run_without_stamp(GOLDEN_CONFIGS[name], tmp_path))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        for column in want:
            if column in FLOAT_COLUMNS:
                np.testing.assert_allclose(float(got[column]), float(want[column]),
                                           rtol=1e-9, atol=1e-12, err_msg=column)
            else:
                assert got[column] == want[column], column
