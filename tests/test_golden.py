"""Pinned record streams: the sha256 of the whole JSON-lines output of a
few fixed commands.  A change to the arithmetic or the checks that alters
one byte of any verdict, polynomial or record order fails here; a
deliberate output change updates the digest and says why.

The `toda` and `whittaker` digests were re-pinned when rat_sum began to
cancel tracked binomials: those commands print each value's num/den, and
the reduced forms are smaller.  Every changed value was checked equal to
the old one as a rational function (eq_exact after from_json); every
verdict and the `verify` stream stayed the same."""

import hashlib

import pytest

from qtoda.cli import EXIT_PASS, main

GOLDEN = [
    (["verify", "--n", "3", "--box", "2"],
     "18e4dd70dd74c9e830f842af6b7bc8c60c628ad421639fbdfbe972b497dab5d9"),
    (["toda", "--n", "3", "--box", "2"],
     "d8b42ef77516f73a9d262fce74b5fd8df175c37b278d51b8a91d26722951502a"),
    (["whittaker", "--n", "4", "--degree", "1,2,1"],
     "b3db4ef6070c0ed5bf11a2c7b68239c586cbb889424e6a0f8ad059aa2f2c6bcb"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_record_stream_digest(tmp_path, argv, digest):
    out = tmp_path / "report.jsonl"
    assert main([*argv, "--out", str(out)]) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
