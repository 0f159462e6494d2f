"""Pinned record streams: the sha256 of the whole JSON-lines output of a
few fixed commands.  A change to the arithmetic or the checks that alters
one byte of any verdict, polynomial or record order fails here; a
deliberate output change updates the digest and says why.

The `toda` and `whittaker` digests were re-pinned when rat_sum began to
cancel tracked binomials: those commands print each value's num/den, and
the reduced forms are smaller.  Every changed value was checked equal to
the old one as a rational function (eq_exact after from_json); every
verdict and the `verify` stream stayed the same.

They were re-pinned again when `--seed` became a `verify`-only flag, so
neither config echo carries a seed, and when the `toda` command began to
consume the same record generator as `verify --suite toda`: its eigen
records are named `sum-op-eigen` and `difference-op-eigen`, the
`shift-sign-calibration` record follows them, and both series are printed
after the records.  Every series line and every other field stayed
byte-equal.  The `verify` digests, the two bench workloads among them,
were taken before that change and did not move.  The third bench
workload, `verify --suite relations` at (4, 2), was pinned from the code
that still built every monomial through an exponent tuple, before keys
were built directly.  `verify --suite relations` at (5, 1) reaches wider
tracked factor sets than (4, 2); it was pinned from the code whose pairwise
sums still expanded every positive factor power the two summands share,
before those powers stayed tracked.  `verify --suite toda` at (4, 3) runs
the shift-sign calibration over every degree <= 2; it was pinned from the
code that still summed each operator's parts with rat_sum and compared the
sum with eq_exact, before one zero test of the parts decided each
eigen-equation.  `verify --suite toda` at (5, 2) is the first pinned config
whose time goes mostly to localization sums, and `toda` at (4, 2) prints
the num/den of each of those sums; both were pinned from the code that
still added the fixed points of a degree in one balanced tree in list
order, before the sums were nested by the rows of the points.
`enumerate` at (4, 2,2,2) and `characters` at (4, 2,1,2) were pinned from
the code whose subcommands each ran their own emit-and-checkpoint loop,
before every subcommand became a record generator consumed by one loop in
`main`.  `verify --suite relations` at (6, 1) is the first pinned config
with distant pairs up to |i - j| = 4; it was pinned from the code that
still typed every relation once per generator set, before each relation
was written once in a table over the plain and twisted generators.
`verify --suite summation` at (5, 0) with seed 3 is the first pinned run of
the summation suite; it was pinned from the code that still checked the
identity on a hand-typed copy of the raising-times-lowering products,
before its right side was built from the operators' own closed products.
`verify --suite whittaker` at (5, 2) is the first pinned whittaker run in
which points of different degrees share the three rows that an adjoint or
eigen identity of every row reads, and (3, 3) the first at box 3; both
were pinned from the code that still decided those identities point by
point, along every lowering edge, before each was decided once per (i,
row i - 1, row i, row i + 1).  `verify --suite whittaker` at (7, 1) is
the first pinned run with six rows of pieces in every sym factor; it was
pinned from the code that still built each sym factor from the whole
tangent character, before it became the product of the piece factors.
`toda` at (4, 3) prints J and I at every degree, so it shows any change in
which binomial divisions succeed: 970 of its 1,177 divisions fail.  It
was pinned from the code that still sorted every numerator with p(1) = 0
before its first line was checked, before the line through the least key
was summed first."""

import hashlib

import pytest

from qtoda.cli import EXIT_PASS, main

GOLDEN = [
    (["verify", "--n", "3", "--box", "2"],
     "18e4dd70dd74c9e830f842af6b7bc8c60c628ad421639fbdfbe972b497dab5d9"),
    (["verify", "--n", "4", "--box", "2", "--suite", "whittaker"],
     "09f449e574a215f8cace41af1ed8caebda30cc6f81a2262ba362c3817d75f8f9"),
    (["verify", "--n", "5", "--box", "2", "--suite", "whittaker"],
     "3dc6ce6d1a94c90555b0c4b98c8c8bbd6292a4b8c2e47ab378e54ffaecea3bfb"),
    (["verify", "--n", "3", "--box", "3", "--suite", "whittaker"],
     "b7d7ce0f9bb6edcdc59524ab0146a2a337146ea65c9866a56c0e1c8510ecb093"),
    (["verify", "--n", "7", "--box", "1", "--suite", "whittaker"],
     "1dcf4a664e11a487873368f87a9409aefd5d47415f6781bcea348f072efff2a5"),
    (["verify", "--n", "4", "--box", "2", "--suite", "relations"],
     "47280e0cc767648ca96739a12eff2d3d437a9c161af5f150965a52d387a282da"),
    (["verify", "--n", "5", "--box", "1", "--suite", "relations"],
     "016d3f9076dc7f1a1520903c7faa160c85788b540133c89850dca1918a3f52c4"),
    (["verify", "--n", "6", "--box", "1", "--suite", "relations"],
     "d31453eaa827c15bf398c5198069538225545ad0ad1060db2b14a49491fea3a9"),
    (["verify", "--n", "4", "--box", "2", "--suite", "toda"],
     "7c48f36ec91ebf3f1a226f457fa194ae8092c9faa63c5977366dfbc7c937e497"),
    (["verify", "--n", "4", "--box", "3", "--suite", "toda"],
     "9fb769060fe44e18f5d19f0f3e4bfb60f0c35868c0c1f67f268e882861ad0252"),
    (["verify", "--n", "5", "--box", "2", "--suite", "toda"],
     "254c6c005d3ffc74e5225834addfd9e622fd0917cf707f8e26cfefc1092c850f"),
    (["verify", "--n", "5", "--box", "0", "--suite", "summation",
      "--seed", "3"],
     "971a0189cc89549ff127c4fcb758a43aa2d3188df38c8309b175453e30ae69c4"),
    (["toda", "--n", "4", "--box", "2"],
     "2732db6de5134ac7a8a49c24afe2bfab0b06e54e4a1375ad06139515fa5a5119"),
    (["toda", "--n", "3", "--box", "2"],
     "c651217363b7d78bee99a295ede230084417d4862d89ba45bf88ae59b7006ec1"),
    (["toda", "--n", "4", "--box", "3"],
     "14b370b6df8211a73527e55374d0bbfdc143fb3bf3835b8f60dcdc25b9c1d117"),
    (["whittaker", "--n", "4", "--degree", "1,2,1"],
     "31df1158ab87ac4b9e45b073ab70fd292fc34320b24c2b7215b110fc57302ffb"),
    (["enumerate", "--n", "4", "--degree", "2,2,2"],
     "2c1ccb5da21c131e2bb76e0fd9a943fa2c03a6a722c51be46872831b2dad11f2"),
    (["characters", "--n", "4", "--degree", "2,1,2"],
     "8664ff3aa8676969dc15173c6e5aba3714bd11fec6533dabb9b14c5c9ec608a4"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_record_stream_digest(tmp_path, argv, digest):
    out = tmp_path / "report.jsonl"
    assert main([*argv, "--out", str(out)]) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
