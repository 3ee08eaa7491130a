"""run's dispatch: a command's own parser gives what the top-level parser gives.

run parses argv[1:] with the parser of the command that argv[0] names, and
sends only an argv that names no command to the top-level parser, which
would otherwise scan every argument before handing them on. For each argv
of CORPUS, run must give the same stdout, stderr and exit code, or the same
SystemExit and help text, as run with every argv sent to the top-level
parser, and the exit code CORPUS names. The module needs no pytest, so it
also runs as a plain script on an interpreter without it:

    PYTHONPATH=src python3 tests/test_dispatch.py
"""

import contextlib
import io
import sys

from zwform import cli

TUPLE = ("--tuple", "1,0,1,1,1,1,0")
SOLUTION = ("--x", "2", "--y", "1", "--z", "3", "--m", "2")
BOX = ("--bound", "3", "--m", "-2..2")
HELP = ("SystemExit", 0)

# (argv, the exit code or SystemExit it must give; None where argparse's
# answer depends on the Python version, as for a leading "--")
CORPUS = [
    # every command, valid
    (["generate", "--p", "3", *TUPLE], 0),
    (["generate", "--p", "3", *TUPLE, "--format", "json"], 0),
    (["generate", "--format=json", "--p=3", "--tuple=-1,0,2,1,1,1,0"], 0),
    (["generate", "--tup", "1,0,1,1,1,1,0", "--p", "3"], 0),
    (["decompose", "--p", "3", *SOLUTION, "--trace"], 0),
    (["decompose", "--p", "3", *SOLUTION, "--w", "2", "--tr", "--format", "json"], 0),
    (["verify", "--p", "3", *SOLUTION, "--w", "2"], 0),
    (["search", "--p", "2", *BOX], 0),
    (["search", "--p", "3", "--bound", "3", "--m", "-1..-1", "--format", "json"], 0),
    (["roundtrip", "--p", "2", *BOX, "--fuzz-count", "5", "--seed", "-4"], 0),
    # domain errors, after a clean parse
    (["generate", "--p", "2", "--tuple", "1,0,-1,1,1,1,1"], 2),
    (["decompose", "--p", "3", "--x", "2", "--y", "1", "--z", "0", "--m", "2"], 2),
    (["generate", "--p", "1009", "--tuple", "1000,1,1,1,1,1,1", "--format", "json"], 2),
    # missing required options
    (["generate"], 64),
    (["generate", "--p", "3"], 64),
    (["decompose", "--p", "3", "--x", "2"], 64),
    (["verify", "--p", "3", *SOLUTION], 64),
    (["search", "--p", "2", "--bound", "3"], 64),
    (["roundtrip"], 64),
    (["generate", "--p", "3", "--tuple"], 64),
    # a bad --p, --tuple or --m
    (["generate", "--p", "x", *TUPLE], 64),
    (["generate", "--p", "1", *TUPLE], 64),
    (["search", "--p", "-3", *BOX], 64),
    (["generate", "--p", "3", "--tuple", "1,2,3"], 64),
    (["generate", "--p", "3", "--tuple", "1,a,1,1,1,1,1"], 64),
    (["search", "--p", "2", "--bound", "3", "--m", "5"], 64),
    (["roundtrip", "--p", "2", "--bound", "3", "--m", "a..b"], 64),
    (["decompose", "--p", "3", "--x", "2", "--y", "1", "--z", "3", "--m", "x"], 64),
    (["search", "--p", "2", *BOX, "--format", "xml"], 64),
    # unrecognized arguments
    (["generate", "--p", "3", *TUPLE, "--bogus"], 64),
    (["verify", "--p", "3", *SOLUTION, "--w", "2", "extra"], 64),
    (["generate", "--p", "3", *TUPLE, "--", "--p", "5"], 64),
    (["search", "--p", "2", *BOX, "generate"], 64),
    # no command: unknown names, options first, empty argv
    (["frobnicate"], 64),
    (["Generate", "--p", "3", *TUPLE], 64),
    (["gen", "--p", "3", *TUPLE], 64),
    (["--p", "3", "generate", *TUPLE], 64),
    (["--format", "json", "generate", "--p", "3", *TUPLE], 64),
    (["--", "generate", "--p", "3", *TUPLE], None),
    ([], 64),
    # help, at the top level and per command
    (["-h"], HELP),
    (["--help"], HELP),
    (["-h", "generate"], HELP),
    (["generate", "-h"], HELP),
    (["decompose", "--help"], HELP),
    (["verify", "-h"], HELP),
    (["search", "--p", "2", "-h"], HELP),
    (["roundtrip", "--he"], HELP),
]


def outcome(argv):
    """run(argv)'s exit code, or its SystemExit, then its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def top_level_outcome(argv):
    """outcome(argv) with no command's parser known to run: the top-level parser parses argv."""
    parser, _ = cli._build_parser()
    build = cli._build_parser
    cli._build_parser = lambda: (parser, {})
    try:
        return outcome(argv)
    finally:
        cli._build_parser = build


def mismatches():
    """The CORPUS entries, with both outcomes, where the dispatch changes anything."""
    found = []
    for argv, code in CORPUS:
        got, want = outcome(argv), top_level_outcome(argv)
        if got != want or code not in (None, got[0]):
            found.append((argv, code, got, want))
    return found


def test_dispatch_matches_top_level_parser():
    assert mismatches() == []


if __name__ == "__main__":
    bad = mismatches()
    for argv, code, got, want in bad:
        print(f"MISMATCH {argv}: expected code {code}\n  dispatch:  {got!r}\n  top-level: {want!r}")
    print(f"Python {sys.version.split()[0]}: {len(CORPUS)} argv, {len(bad)} mismatches")
    sys.exit(1 if bad else 0)
