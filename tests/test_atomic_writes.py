"""Atomic result writes: no stale ``.tmp`` debris, ever.

``SWEEP.json``, ``CHAOS.json``, ``SCALE.json`` and checkpoint artifacts
are written through :func:`repro.atomic.write_atomic` (temp +
``os.replace``).  The failure half of that contract: when serialization
(or the write itself) blows up, no temp file may remain -- a crashed
sweep must not leave ``CHAOS.json.tmp`` sitting next to a previous good
``CHAOS.json``.
"""

import os
import zlib

import pytest

from repro.atomic import write_atomic
from repro.faults.chaos import ChaosResult
from repro.runner.sweep import SweepResult
from repro.scale.sweep import write_scale_json


def _exploding_payload(self):
    # Serializing this raises TypeError partway through the document.
    return {"prefix": list(range(64)), "bad": object()}


class _ExplodingChaosResult(ChaosResult):
    to_json_dict = _exploding_payload


class _ExplodingSweepResult(SweepResult):
    to_json_dict = _exploding_payload


def _listdir(path):
    return sorted(os.listdir(path))


def test_chaos_write_failure_leaves_no_tmp(tmp_path):
    result = _ExplodingChaosResult({}, [], [], 1.5, "fp", {})
    target = tmp_path / "CHAOS.json"
    with pytest.raises(TypeError):
        result.write_json(str(target))
    assert _listdir(tmp_path) == []


def test_chaos_write_failure_keeps_previous_good_file(tmp_path):
    target = tmp_path / "CHAOS.json"
    good = ChaosResult({}, [], [], 1.5, "fp", {})
    good.write_json(str(target))
    previous = target.read_bytes()
    with pytest.raises(TypeError):
        _ExplodingChaosResult({}, [], [], 1.5, "fp", {}).write_json(
            str(target))
    assert _listdir(tmp_path) == ["CHAOS.json"]
    assert target.read_bytes() == previous


def test_sweep_write_failure_leaves_no_tmp(tmp_path):
    result = _ExplodingSweepResult({}, [], [1], 1.5, "fp", {})
    (tmp_path / "results").mkdir()
    target = tmp_path / "results" / "SWEEP.json"
    with pytest.raises(TypeError):
        result.write_json(str(target))
    # The directory holds no debris.
    assert _listdir(tmp_path / "results") == []


def test_sweep_write_success_replaces_atomically(tmp_path):
    result = SweepResult({}, [], [1], 1.5, "fp", {"jobs": 0})
    target = tmp_path / "SWEEP.json"
    result.write_json(str(target))
    assert _listdir(tmp_path) == ["SWEEP.json"]


def test_checkpoint_store_atomic_write_failure_leaves_no_tmp(tmp_path):
    # CheckpointStore.save writes through write_atomic.  A payload that
    # is neither str nor bytes raises after the temp file was created;
    # the cleanup must unlink it.
    with pytest.raises(TypeError):
        write_atomic(str(tmp_path / "x.ckpt.z"), 12345)
    assert _listdir(tmp_path) == []


def test_checkpoint_store_atomic_write_success(tmp_path):
    path = str(tmp_path / "x.ckpt.z")
    write_atomic(path, zlib.compress(b"payload"))
    assert _listdir(tmp_path) == ["x.ckpt.z"]
    with open(path, "rb") as handle:
        assert zlib.decompress(handle.read()) == b"payload"


def test_scale_write_failure_leaves_no_tmp(tmp_path):
    document = {"schema": 6, "points": [{"threads": 100},
                                        {"bad": object()}]}
    with pytest.raises(TypeError):
        write_scale_json(document, str(tmp_path / "SCALE.json"))
    assert _listdir(tmp_path) == []
