"""Pinned record streams: the sha256 of the whole JSON-lines output of a
few fixed commands.  A change to the arithmetic or the checks that alters
one byte of any verdict, polynomial or record order fails here; a
deliberate output change updates the digest and says why."""

import hashlib

import pytest

from qtoda.cli import EXIT_PASS, main

GOLDEN = [
    (["verify", "--n", "3", "--box", "2"],
     "18e4dd70dd74c9e830f842af6b7bc8c60c628ad421639fbdfbe972b497dab5d9"),
    (["toda", "--n", "3", "--box", "2"],
     "3659e9da73c3c6aa70d9dc958b711d95b372a48fc348aa5bb34e59f58605619c"),
    (["whittaker", "--n", "4", "--degree", "1,2,1"],
     "a2d75494d84c7ede0be931c980826d9d88d8d4b29de2d5da9a9761f2b9ce167b"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_record_stream_digest(tmp_path, argv, digest):
    out = tmp_path / "report.jsonl"
    assert main([*argv, "--out", str(out)]) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
