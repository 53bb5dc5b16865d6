"""Multiprocess stress gates from ``tools/conc_stress.py``, run in-tree.

The IO001 lint rule keeps every shared-artifact write inside
:mod:`repro.util.atomicio`; these tests race real processes against the
real writers to certify the persistence contract at runtime:

* the engine disk cache survives two processes racing one ``RunSpec``
  (one complete pickle, identical fingerprints — satellite of the
  ``store_cached`` atomic-replace conversion);
* a SIGKILL mid-``write_json`` leaves the old-or-new snapshot, never a
  partial;
* concurrent ``REPRO_RUN_LOG``-style appenders never tear or drop a
  record (regression for the buffered-append ``_write_run_log`` bug).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "conc_stress", REPO / "tools" / "conc_stress.py"
)
conc_stress = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("conc_stress", conc_stress)
_spec.loader.exec_module(conc_stress)


pytestmark = pytest.mark.skipif(
    not hasattr(sys, "executable") or not sys.executable,
    reason="needs a spawnable interpreter",
)


def test_cache_race_single_clean_slot(tmp_path):
    errors = conc_stress.check_cache_race(tmp_path)
    assert errors == []


def test_sigkill_mid_write_leaves_old_or_new(tmp_path):
    errors = conc_stress.check_sigkill_mid_write(tmp_path, kills=3)
    assert errors == []


def test_run_log_appenders_never_interleave(tmp_path):
    errors = conc_stress.check_run_log_interleaving(
        tmp_path, writers=4, records=25
    )
    assert errors == []
