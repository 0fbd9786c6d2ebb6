"""Pinned sha256 digests of outputs that every change must reproduce.

The digests were taken before entropies switched to ranking the smaller side
of each cut, so they guard that and every later speed change.  A change that
moves these bytes must say why in CHANGES.md (or name a new random stream);
it must never re-pin them silently.
"""

import hashlib

import pytest

from super_scrambler.cli import main
from super_scrambler.experiments import build_ghz_program
from super_scrambler.model import format_program

RANDOM_FIG = "random --n 120 --steps 30000 --reals 2 --seed 7 --sample-every 200 --out fig.csv"
# a 90-site cut: its entropy is ranked on the 30-site complement
RANDOM_WIDE_CUT = "random --n 120 --steps 30000 --reals 1 --seed 7 --cut 90 --sample-every 200 --out fig.csv"
ORACLE_CHECK = "random --n 12 --steps 2000 --reals 2 --seed 5 --sample-every 1 --oracle-check"
GHZ_DUMP = "ghz --n 120 --localized --dump-stabilizers"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    # the summary records the --out path as given, so run where it is fixed
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "command, csv_digest, summary_digest",
    [
        (
            RANDOM_FIG,
            "776e0168b8956b27bf6b5712607771ea02cbbe5f255754ba8a4fb18d610d5f45",
            "929bd09f15a4c2418851cd37b6d15cdcfa67684f33984fa72cee173cf46e33f5",
        ),
        (
            RANDOM_WIDE_CUT,
            "2e4ff4b6014f5443afd8e4ab4151a48ed2723eada1a8e4a256ed6c2c25ef2721",
            "8bbdbab6921a8b83837359d7615c5978779b868e65518ac1662b59e4962e2213",
        ),
    ],
    ids=["fig", "wide-cut"],
)
def test_random_outputs(in_tmp, capsys, command, csv_digest, summary_digest):
    assert main(command.split()) == 0
    capsys.readouterr()
    assert sha256((in_tmp / "fig.csv").read_bytes()) == csv_digest
    assert sha256((in_tmp / "fig.summary.json").read_bytes()) == summary_digest


@pytest.mark.parametrize(
    "command, stdout_digest",
    [
        (ORACLE_CHECK, "6c42d70e2ab1df7a5fa22ca55179557da96aad05e725848136d99059d8cbbd2f"),
        (GHZ_DUMP, "a153ceba23a49c5b8e780953672636383e4d9cb33055cee40165e19750a64bf6"),
    ],
    ids=["oracle-check", "ghz-dump"],
)
def test_stdout(capsys, command, stdout_digest):
    assert main(command.split()) == 0
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest


# The localized N=120 GHZ program: 9,440 gate lines, 198 of them distinct.
GHZ_PROGRAM_DIGEST = "8fea2b2d78a396c3e6132f0e1d059cc90c5b5e50f8146faa64daa4b66343730c"
RUN_PROGRAM_DIGEST = "d1aad5efcec1249dc716d2fde35fbbabfdcac40050195f5fdc0c2f1678c86768"


def test_localized_ghz_program_text():
    text = format_program(build_ghz_program(120, localized=True))
    assert sha256(text.encode()) == GHZ_PROGRAM_DIGEST


def test_run_program_stdout(tmp_path, capsys):
    path = tmp_path / "ghz.prog"
    path.write_bytes(format_program(build_ghz_program(120, localized=True)).encode())
    argv = ["run-program", str(path), "--entropy-cuts", "40", "--dump-stabilizers"]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == RUN_PROGRAM_DIGEST
