"""Seeded byte mutations of every CLI input: no input ends in a traceback.

Each input of a one-day demo run (feeder, loads, solar, config) and a
results file of that run is mutated CASES times: a flipped byte, a
truncation, a deleted span, a duplicated line or an inserted token.  Every
case goes through cli.main in process and must exit 0 or 2, or 3 with a
runtime error (a phca.PhcaError that is not an input error, as the README
lists exit 3), with at most one stderr line and no exception escaping.  A
mutated results file that loads must give the unmutated reports byte for
byte.
"""

import numpy as np
import pytest

import phca.errors
from phca.cli import main

#: mutated cases per input file
CASES = 60

TOKENS = (b"nan", b"inf", b"-1", b"1e309", b"1e-400", b"0", b",", b" ", b"\t", b"\n", b"\r",
          b"#", b"=", b"[", b"]", b"{", b"}", b":", b'"', b"null", b"-", b"\x00", b"\xe9",
          b"\xef\xbb\xbf", b"[regulators]", b"1 2 remote - - - -")

#: the errors that exit 3: runtime failures, every phca.PhcaError that is
#: not an input error
RUNTIME_ERRORS = {
    name for name, cls in vars(phca.errors).items()
    if isinstance(cls, type) and issubclass(cls, phca.errors.PhcaError)
    and not issubclass(cls, phca.errors.InputError)
}


def mutate(raw: bytes, rng) -> bytes:
    """One seeded mutation of raw."""
    kind = int(rng.integers(0, 5))
    at = int(rng.integers(0, len(raw)))
    if kind == 0:  # flip a byte
        return raw[:at] + bytes([raw[at] ^ int(rng.integers(1, 256))]) + raw[at + 1:]
    if kind == 1:  # truncate
        return raw[:at]
    if kind == 2:  # delete a span
        return raw[:at] + raw[at + int(rng.integers(1, 65)):]
    if kind == 3:  # duplicate a line
        lines = raw.splitlines(keepends=True)
        k = int(rng.integers(0, len(lines)))
        return b"".join(lines[: k + 1] + lines[k:])
    return raw[:at] + TOKENS[int(rng.integers(0, len(TOKENS)))] + raw[at:]


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """One-day demo inputs, a run's results file and both its reports."""
    d = tmp_path_factory.mktemp("mutations")
    assert main(["demo", "--out", str(d), "--days", "1"]) == 0
    args = {flag: d / name for flag, name in (("--feeder", "feeder.txt"), ("--loads", "loads.csv"),
                                              ("--solar", "solar.csv"), ("--config", "config.ini"))}
    cli = [str(v) for pair in args.items() for v in pair]
    assert main(["run", *cli, "--out", str(d / "r.json"), "--report", str(d / "report.txt"),
                 "--json-report", str(d / "report.json")]) == 0
    return d, args


def _outcome(capsys, argv):
    """(exit code, stdout) of main(argv), after checking that it exits 0, 2
    or 3 on a runtime error, with at most one stderr line."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert err.count("\n") <= 1, err
    if code == 3:
        assert err.startswith("phca: error: ") and err.split(":")[2].strip() in RUNTIME_ERRORS, err
    else:
        assert code in (0, 2), (code, err)
    return code, out


@pytest.mark.parametrize("flag", ["--feeder", "--loads", "--solar", "--config", "--results"])
def test_mutated_input_exits_cleanly(case, capsys, tmp_path, flag):
    d, args = case
    args = dict(args, **{"--results": d / "r.json"})
    raw = args[flag].read_bytes()
    rng = np.random.default_rng([14, sorted(args).index(flag)])
    codes = []
    for k in range(CASES):
        bad = tmp_path / f"{k}-{args[flag].name}"
        bad.write_bytes(mutate(raw, rng))
        cli = [str(v) for f, path in args.items() if f != "--results"
               for v in (f, bad if f == flag else path)]
        if flag == "--results":
            code, out = _outcome(capsys, ["stats", *cli, "--results", str(bad)])
            if code == 0:  # the file loaded: the run's reports, byte for byte
                assert out == (d / "report.txt").read_text(), k
                assert _outcome(capsys, ["stats", *cli, "--results", str(bad), "--json"]) == (
                    0, (d / "report.json").read_text()), k
        else:
            code, _ = _outcome(capsys, ["run", *cli, "--out", str(tmp_path / "r.json"),
                                        "--report", str(tmp_path / "report.txt")])
        codes.append(code)
    # the mutations are not all harmless: some are refused
    assert 2 in codes, codes
