"""The package's records are named tuples: immutable, compared and hashed
by their fields, with pinned reprs; importing the package loads neither
`dataclasses` nor `inspect`."""

import json
import os
import subprocess
import sys

import pytest

import dyckab
from dyckab.bijection import Certificate, Classification, ExtendedCertificate
from dyckab.oracle import CheckReport
from dyckab.qbell import BivariateTable

RECORDS = [
    (
        lambda: Certificate.make((2, 1), {(1, 1): 1, (1, 2): 0}),
        "Certificate(partition=(2, 1), counts=((1, 1, 1),))",
    ),
    (
        lambda: Classification(None, Certificate((1,), ())),
        "Classification(area_certificate=None, "
        "bounce_certificate=Certificate(partition=(1,), counts=()))",
    ),
    (
        lambda: ExtendedCertificate((2, 1), ((1, 1, 1),), ()),
        "ExtendedCertificate(partition=(2, 1), f_counts=((1, 1, 1),), g_counts=())",
    ),
    (
        lambda: BivariateTable.from_pairs(2, [(0, 1), (1, 0)]),
        "BivariateTable(n=2, rows=((0, 1), (1, 0)))",
    ),
    (
        lambda: CheckReport("word-round-trip", "1..3", True),
        "CheckReport(name='word-round-trip', n_range='1..3', passed=True, "
        "counterexample=None, seconds=0.0, skipped=False)",
    ),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[t[: t.index("(")] for _, t in RECORDS])
def test_record_is_an_immutable_value(make, text):
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert repr(record) == text
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_classification_kind_reads_its_fields():
    cert = Certificate((1,), ())
    assert Classification(None, None).kind == "neither"
    assert Classification(cert, None).kind == "area-side"
    assert Classification(None, cert).kind == "bounce-side"
    assert Classification(cert, cert).kind == "both"


def test_check_report_defaults_and_json():
    report = CheckReport("bad", "n<=3", False)
    assert (report.counterexample, report.seconds, report.skipped) == (None, 0.0, False)
    report = CheckReport("bad", "n<=3", False, {"path": {"word": "NE"}}, 0.123456)
    assert json.loads(report.to_json()) == {
        "name": "bad",
        "n_range": "n<=3",
        "passed": False,
        "skipped": False,
        "counterexample": {"path": {"word": "NE"}},
        "seconds": 0.1235,
    }
    assert list(json.loads(report.to_json())) == [
        "name", "n_range", "passed", "skipped", "counterexample", "seconds",
    ]


def test_import_loads_no_dataclasses_or_inspect():
    # only the modules the import adds count, so a site hook that preloads
    # either cannot fail this test
    src = os.path.dirname(os.path.dirname(dyckab.__file__))
    code = (
        "import sys; before = set(sys.modules); import dyckab, dyckab.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dyckab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
