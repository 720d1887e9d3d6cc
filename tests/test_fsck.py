"""Offline store verification: ``fsck_store`` and ``python -m repro fsck``.

The detection contract: entries are written in canonical compact JSON
and carry a SHA-256 digest over every semantic byte, so **any**
single-bit flip and **any** truncation must be caught (it either breaks
the parse or changes a digested value).  fsck runs the load path's own
validator, so it flags a digest-valid entry exactly when a load would
reject it.  ``--repair`` quarantines the damage, and the next warm run
recomputes bit-identically against the offline baseline.
"""

import base64
import json
import os
import subprocess
import sys

import pytest

from repro.chains.generators import M_UR
from repro.cli import main
from repro.core.queries import atom, cq, var
from repro.engine import BatchRequest, CacheStore, batch_estimate, fsck_store
from repro.engine.batch import group_seed_for
from repro.engine.store import _document_digest
from repro.workloads import figure2_database

x, y = var("x"), var("y")
SEED = 7


def fig2_requests():
    database, constraints = figure2_database()
    query = cq((x,), (atom("R", x, y),))
    return [
        BatchRequest(
            database, constraints, M_UR, query,
            answer=candidate, epsilon=0.5, delta=0.2,
        )
        for candidate in sorted(query.answers(database), key=repr)
    ]


def entry_path(cache_dir):
    (name,) = [n for n in os.listdir(cache_dir) if n.endswith(".json")]
    return os.path.join(cache_dir, name)


def restamped(document, **changes):
    """``document`` with ``changes`` applied and a freshly valid digest
    (a key set to ``None`` in ``changes`` is removed)."""
    body = {key: value for key, value in {**document, **changes}.items()
            if key != "digest" and value is not None}
    return {**body, "digest": _document_digest(body)}


def fsck_and_load(cache_dir, document):
    """Write ``document`` as the entry; ``(fsck found damage, load_error)``."""
    with open(entry_path(cache_dir), "w") as stream:
        json.dump(document, stream)
    database, constraints = figure2_database()
    seed = group_seed_for(SEED, database, constraints, M_UR)
    entry = CacheStore(str(cache_dir)).entry(database, constraints, "M_ur", seed)
    return not fsck_store(str(cache_dir)).ok, entry.load_error


@pytest.fixture
def seeded_store(tmp_path):
    """A cache dir holding one clean entry + the baseline results."""
    baseline = batch_estimate(fig2_requests(), seed=SEED, cache_dir=str(tmp_path))
    return tmp_path, [row.result for row in baseline]


class TestDetection:
    def test_clean_store_passes(self, seeded_store):
        cache_dir, _ = seeded_store
        report = fsck_store(str(cache_dir))
        assert report.ok and report.scanned == 1 and not report.damaged
        assert "PASS" in report.render()

    def test_every_single_bitflip_is_detected(self, seeded_store):
        cache_dir, _ = seeded_store
        path = entry_path(cache_dir)
        pristine = open(path, "rb").read()
        # Every bit of every byte: the acceptance bar is 100% detection.
        missed = []
        for position in range(len(pristine) * 8):
            flipped = bytearray(pristine)
            flipped[position // 8] ^= 1 << (position % 8)
            with open(path, "wb") as stream:
                stream.write(bytes(flipped))
            if fsck_store(str(cache_dir)).ok:
                missed.append(position)
        assert not missed, f"{len(missed)} undetected bitflips: {missed[:10]}"
        with open(path, "wb") as stream:
            stream.write(pristine)
        assert fsck_store(str(cache_dir)).ok

    def test_every_truncation_is_detected(self, seeded_store):
        cache_dir, _ = seeded_store
        path = entry_path(cache_dir)
        pristine = open(path, "rb").read()
        missed = []
        for length in range(len(pristine)):
            with open(path, "wb") as stream:
                stream.write(pristine[:length])
            if fsck_store(str(cache_dir)).ok:
                missed.append(length)
        assert not missed, f"{len(missed)} undetected truncations"

    def test_garbage_and_wrong_types_are_damage(self, seeded_store):
        cache_dir, _ = seeded_store
        path = entry_path(cache_dir)
        for payload in (b"\x00\xff\x00", b"[1,2,3]", b'{"version": 4}'):
            with open(path, "wb") as stream:
                stream.write(payload)
            report = fsck_store(str(cache_dir))
            assert not report.ok, payload

    def test_unknown_version_is_damage_offline(self, seeded_store):
        # A *newer* store version is not silently "fine" to an offline
        # auditor (unlike the load path, where it is a legitimate
        # recompute): fsck's job is to say this tool cannot vouch for it.
        # The one documented difference between fsck and a load.
        cache_dir, _ = seeded_store
        document = json.load(open(entry_path(cache_dir)))
        assert fsck_and_load(cache_dir, restamped(document, version=99)) == (True, None)


def _blob(document, edit):
    raw = base64.b64decode(document["samples"])
    return base64.b64encode(edit(raw)).decode("ascii")


#: Digest-valid malformed documents, built from the clean fig2 entry.
MALFORMED = {
    "batch-zero": lambda d: restamped(d, batch=0),
    "batch-true": lambda d: restamped(d, batch=True),
    "batch-string": lambda d: restamped(d, batch="x"),
    "batch-negative": lambda d: restamped(d, batch=-3),
    "words-negative": lambda d: restamped(d, words=-1),
    "words-bool": lambda d: restamped(d, words=True),
    "words-string": lambda d: restamped(d, words="1"),
    "words-zero-with-rows": lambda d: restamped(d, words=0),
    "words-misfit": lambda d: restamped(d, words=3),
    "possibility-list": lambda d: restamped(d, possibility=[]),
    "possibility-int-verdict": lambda d: restamped(d, possibility={"q|[]": 1}),
    "samples-rows": lambda d: restamped(d, samples=[[1], [2]]),
    "samples-int": lambda d: restamped(d, samples=5),
    "field-missing": lambda d: restamped(d, batch=None),
    "field-extra": lambda d: restamped(d, bounds={}),
    "blob-truncated": lambda d: restamped(d, samples=_blob(d, lambda raw: raw[:-3])),
    "blob-not-base64": lambda d: restamped(d, samples="!!!!" + d["samples"]),
    "blob-bad-padding": lambda d: restamped(d, samples=d["samples"] + "A="),
    "blob-non-ascii": lambda d: restamped(d, samples="é" + d["samples"]),
    "digest-mismatch": lambda d: {**d, "digest": "0" * 64},
    "digest-missing": lambda d: {k: v for k, v in d.items() if k != "digest"},
}


class TestFsckMatchesLoad:
    """fsck and the load path share one validator: for a digest-valid
    entry, fsck reports damage exactly when a load sets ``"corrupt"``
    (an unknown version is the one difference; see TestDetection)."""

    def test_clean_entry_passes_both(self, seeded_store):
        # The control: re-stamping alone leaves a valid entry.
        cache_dir, _ = seeded_store
        document = json.load(open(entry_path(cache_dir)))
        assert fsck_and_load(cache_dir, restamped(document)) == (False, None)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_entry_is_damage_to_both(self, seeded_store, case):
        cache_dir, baseline = seeded_store
        document = json.load(open(entry_path(cache_dir)))
        assert fsck_and_load(cache_dir, MALFORMED[case](document)) == (True, "corrupt")
        # And the warm run recomputes bit-identically.
        rerun = batch_estimate(fig2_requests(), seed=SEED, cache_dir=str(cache_dir))
        assert [row.result for row in rerun] == baseline
        assert fsck_store(str(cache_dir)).ok


class TestRepair:
    def test_repair_quarantines_and_warm_run_recomputes(self, seeded_store):
        cache_dir, baseline = seeded_store
        path = entry_path(cache_dir)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x10
        with open(path, "wb") as stream:
            stream.write(bytes(data))

        report = fsck_store(str(cache_dir), repair=True)
        assert not report.ok  # damage was found (and handled)
        assert report.quarantined == 1
        assert os.path.exists(path + ".quarantined")
        assert not os.path.exists(path)
        # The store is clean now; a warm run recomputes bit-identically.
        assert fsck_store(str(cache_dir)).ok
        recomputed = batch_estimate(
            fig2_requests(), seed=SEED, cache_dir=str(cache_dir)
        )
        assert [row.result for row in recomputed] == baseline
        assert fsck_store(str(cache_dir)).ok

    def test_repair_sweeps_orphan_temps(self, seeded_store):
        cache_dir, _ = seeded_store
        orphan = cache_dir / "deadbeef.tmp"
        orphan.write_text("torn")
        report = fsck_store(str(cache_dir))
        assert report.ok and report.orphan_temps == 1  # informational
        report = fsck_store(str(cache_dir), repair=True)
        assert report.ok and not orphan.exists()

    def test_quarantined_entries_are_ignored_by_scans(self, seeded_store):
        cache_dir, _ = seeded_store
        path = entry_path(cache_dir)
        with open(path, "wb") as stream:
            stream.write(b"junk")
        fsck_store(str(cache_dir), repair=True)
        report = fsck_store(str(cache_dir))
        assert report.ok and report.scanned == 0


class TestCli:
    def test_cli_exit_codes_and_json(self, seeded_store, tmp_path_factory, capsys):
        cache_dir, _ = seeded_store
        assert main(["fsck", str(cache_dir)]) == 0
        assert "fsck PASS" in capsys.readouterr().out

        path = entry_path(cache_dir)
        data = bytearray(open(path, "rb").read())
        data[-2] ^= 1
        with open(path, "wb") as stream:
            stream.write(bytes(data))
        artifact = tmp_path_factory.mktemp("fsck-artifacts") / "report.json"
        assert main(["fsck", str(cache_dir), "--json", str(artifact)]) == 1
        assert "fsck FAIL" in capsys.readouterr().out
        document = json.loads(artifact.read_text())
        assert document["ok"] is False and document["damaged"] == 1

        # --repair still exits 1 (damage *was* found), then a clean pass.
        assert main(["fsck", str(cache_dir), "--repair"]) == 1
        capsys.readouterr()
        assert main(["fsck", str(cache_dir)]) == 0

    def test_cli_missing_directory_is_damage(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nope")]) == 1
        assert "FAIL" in capsys.readouterr().out
