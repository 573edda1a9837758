"""Package-level checks."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import loopcert
from loopcert.commpoly import CommPoly
from loopcert.families import FamilyElement
from loopcert.liealg import InvariantPolynomial, RootDatum


def test_all_names_resolve():
    # a stale __all__ entry breaks `from loopcert import *`
    missing = [name for name in loopcert.__all__ if not hasattr(loopcert, name)]
    assert not missing
    namespace = {}
    exec("from loopcert import *", namespace)
    assert set(loopcert.__all__) <= set(namespace)


def test_cli_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 12 ms of the
    # 26 ms that importing loopcert.cli took in every job; -S keeps site hooks
    # from loading them first
    src = Path(loopcert.__file__).resolve().parents[1]
    code = ("import loopcert.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


RECORDS = [
    (FamilyElement(CommPoly.variable(0, 1), "x_e[1]", 2, 1), "label"),
    (RootDatum((F(2), F(-1)), 0, 1), "e_idx"),
    (InvariantPolynomial(CommPoly.variable(0, 0) ** 2, 2), "degree"),
]


@pytest.mark.parametrize("record,field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_immutable_with_fieldwise_equality(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    twin = type(record)(*record)
    assert twin == record and hash(twin) == hash(record)
    assert record._replace(**{field: None}) != record
