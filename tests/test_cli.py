"""Command line behavior: records, exit codes, parsing, and determinism."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import zwform
from zwform.cli import (
    EX_DOMAIN, EX_INTERNAL, EX_IOERR, EX_OK, EX_USAGE, _WRITE_RECORDS,
    TooLarge, _emit, _record, _solution_record, run,
)
from zwform import cli, oracle, parametrization
from zwform.decomposition import decompose
from zwform.errors import DegenerateE, NotTheoremGrade, ZeroZ, show
from zwform.exact_arith import MAX_POWER_BITS, _check_powers
from zwform.oracle import (
    SearchBounds, enumerate_solutions, identity_fuzz, sample_tuples, stream_solutions,
)
from zwform.parametrization import (
    ParameterTuple, Solution, generate, generate_reference, theorem_grade_flags,
)


def run_lines(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def json_records(lines):
    return [json.loads(line) for line in lines]


def run_child(args, timeout):
    """Run a fresh interpreter on args with this checkout's zwform importable.

    The child and every process it starts are capped at 2 GiB of address
    space and at timeout seconds of CPU each, so that a power the package
    ought to refuse ends in MemoryError rather than in the host's memory,
    and a pool worker left behind by a timed-out child does not run on.
    """
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(zwform.__file__))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (timeout, timeout))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=limit)


def search_report(stats):
    """The report record search writes: the four scan counters, in this order."""
    keys = ("instances_checked", "solutions_found", "filtered_zero_m", "filtered_zero_w")
    return _record("report", counts={key: str(getattr(stats, key)) for key in keys})


class TestGenerate:
    def test_text_frozen(self, capsys):
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "2", "--tuple", "1,1,2,1,1,1,1"]
        )
        assert code == EX_OK
        assert out == [
            "tuple p=2 e=1 f=1 g=2 l=1 q=1 n=1 r=1",
            "solution p=2 x=-1 y=2 z=5 m=-1 w=1",
        ]

    def test_json_frozen(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["generate", "--p", "2", "--tuple", "1,1,2,1,1,1,1", "--format", "json"],
        )
        assert code == EX_OK
        tup, sol = json_records(out)
        assert tup == {"kind": "tuple", "p": "2", "e": "1", "f": "1", "g": "2",
                       "l": "1", "q": "1", "n": "1", "r": "1"}
        assert sol == {"kind": "solution", "p": "2", "x": "-1", "y": "2",
                       "z": "5", "m": "-1", "w": "1"}
        assert list(sol) == ["kind", "p", "x", "y", "z", "m", "w"]

    def test_negative_components_parse(self, capsys):
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "3", "--tuple", "-1,1,1,-1,1,1,0"]
        )
        assert code == EX_OK

    def test_composite_p_frozen(self, capsys):
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "4", "--tuple", "1,1,2,1,1,1,1"]
        )
        assert code == EX_OK
        assert out == [
            "tuple p=4 e=1 f=1 g=2 l=1 q=1 n=1 r=1",
            "solution p=4 x=-13 y=2 z=17 m=-1 w=1681",
        ]

    def test_p_below_2_is_usage_error(self, capsys):
        for p in ("1", "0", "-3"):
            code, out, err = run_lines(
                capsys, ["generate", "--p", p, "--tuple", "1,1,2,1,1,1,1"]
            )
            assert code == EX_USAGE
            assert out == []
            assert f"must be >= 2, got {p}" in err

    def test_zero_q_is_domain_error(self, capsys):
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "2", "--tuple", "1,1,2,1,0,1,1"]
        )
        assert code == EX_DOMAIN
        assert out == ["error ValueError"]

    def test_zero_z_is_domain_error(self, capsys):
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "2", "--tuple", "1,0,-1,1,1,1,0"]
        )
        assert code == EX_DOMAIN
        assert out[0].startswith("tuple ")
        assert out[1] == "error ZeroZ"

    def test_common_factor_is_domain_error(self, capsys):
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "2", "--tuple", "2,1,1,1,2,1,1"]
        )
        assert code == EX_DOMAIN
        assert out[-1] == "error NotCoprime"

    def test_malformed_tuple(self, capsys):
        code, _, _ = run_lines(capsys, ["generate", "--p", "2", "--tuple", "1,2,3"])
        assert code == EX_USAGE


class TestDecompose:
    def test_text_frozen_with_trace(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "2", "--x", "-1", "--y", "2", "--z", "5",
             "--m", "-1", "--trace"],
        )
        assert code == EX_OK
        assert out == [
            "solution p=2 x=-1 y=2 z=5 m=-1 w=1",
            "tuple p=2 e=1 f=2 g=5 l=0 q=-1 n=-2 r=-1",
            "trace e=1 f=2 g=5 l=0 q=-1 n=-2 r=-1 a=-1 b=0 c=-2 d=-1 h=1 u=-2",
        ]

    def test_w_recomputed_when_omitted(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "2", "--x", "3", "--y", "1", "--z", "5", "--m", "4"],
        )
        assert code == EX_OK
        assert out[0] == "solution p=2 x=3 y=1 z=5 m=4 w=1"
        assert out[1] == "tuple p=2 e=-3 f=2 g=0 l=1 q=2 n=1 r=-1"

    def test_inconsistent_w(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "2", "--x", "3", "--y", "1", "--z", "5",
             "--m", "4", "--w", "9"],
        )
        assert code == EX_DOMAIN
        assert out == ["error InconsistentW"]

    def test_zero_z(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "2", "--x", "3", "--y", "2", "--z", "0", "--m", "1"],
        )
        assert code == EX_DOMAIN
        assert out == ["error NotTheoremGrade"]

    def test_not_divisible(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "2", "--x", "2", "--y", "1", "--z", "5", "--m", "1"],
        )
        assert code == EX_DOMAIN
        assert out == ["error NotDivisible"]

    def test_degenerate(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "2", "--x", "3", "--y", "2", "--z", "1", "--m", "1"],
        )
        assert code == EX_DOMAIN
        assert out == ["error DegenerateE"]

    def test_bigint_roundtrip_through_cli(self, capsys):
        x = 10 ** 200 + 3
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "2", "--x", str(x), "--y", "2", "--z", "1",
             "--m", "7", "--format", "json"],
        )
        assert code == EX_OK
        sol_rec, tup_rec = json_records(out)
        assert sol_rec["x"] == str(x)
        assert sol_rec["w"] == str(x * x - 28)
        assert len(sol_rec["w"]) >= 400
        assert tup_rec["r"] == str(2 - x)

        tuple_arg = ",".join(tup_rec[k] for k in ("e", "f", "g", "l", "q", "n", "r"))
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "2", "--tuple", tuple_arg, "--format", "json"]
        )
        assert code == EX_OK
        assert json_records(out)[1] == sol_rec


class TestVerify:
    def test_theorem_grade_solution(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["verify", "--p", "2", "--x", "1", "--y", "2", "--z", "5",
             "--m", "-1", "--w", "1"],
        )
        assert code == EX_OK
        assert out == ["report identity=1 nonzero=1 pairwise_coprime=1 theorem_grade=1"]

    def test_identity_failure_exits_2(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["verify", "--p", "2", "--x", "1", "--y", "1", "--z", "1",
             "--m", "1", "--w", "5"],
        )
        assert code == EX_DOMAIN
        assert out == ["report identity=0 nonzero=1 pairwise_coprime=1 theorem_grade=0"]

    def test_identity_without_grade_exits_0(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["verify", "--p", "2", "--x", "2", "--y", "1", "--z", "3",
             "--m", "4", "--w", "0"],
        )
        assert code == EX_OK
        assert out == ["report identity=1 nonzero=0 pairwise_coprime=1 theorem_grade=0"]


class TestTheoremGradeParity:
    """verify, theorem_grade_flags and decompose read the same three hypotheses.

    The CLI outcomes are pinned byte for byte. A broken identity never reaches
    decompose through the CLI, which rejects an inconsistent --w itself, so its
    NotTheoremGrade message is checked through the library call.
    """

    @pytest.mark.parametrize("fields, flags, code, out, err, library_error", [
        ((1, 2, 5, -1, 1), "identity=1 nonzero=1 pairwise_coprime=1 theorem_grade=1", EX_OK,
         ["solution p=2 x=1 y=2 z=5 m=-1 w=1", "tuple p=2 e=1 f=-2 g=5 l=0 q=1 n=2 r=-1"],
         "", None),
        ((2, 1, 3, 4, 0), "identity=1 nonzero=0 pairwise_coprime=1 theorem_grade=0", EX_DOMAIN,
         ["error NotTheoremGrade"],
         "error: x, y, z, m, w must all be nonzero, got Solution(p=2, x=2, y=1, z=3, m=4, w=0)\n",
         "x, y, z, m, w must all be nonzero, got Solution(p=2, x=2, y=1, z=3, m=4, w=0)"),
        ((3, 6, 1, 1, -27), "identity=1 nonzero=1 pairwise_coprime=0 theorem_grade=0", EX_DOMAIN,
         ["error NotTheoremGrade"],
         "error: x, y, z must be pairwise coprime, got Solution(p=2, x=3, y=6, z=1, m=1, w=-27)\n",
         "x, y, z must be pairwise coprime, got Solution(p=2, x=3, y=6, z=1, m=1, w=-27)"),
        ((1, 2, 5, -1, 2), "identity=0 nonzero=1 pairwise_coprime=1 theorem_grade=0", EX_DOMAIN,
         ["error InconsistentW"], "error: z*w = 10 but x**p - m*y**p = 5\n",
         "x**p - m*y**p != z*w for Solution(p=2, x=1, y=2, z=5, m=-1, w=2)"),
        # x and z share a factor, and x, y and y, z do not.
        ((2, 1, 2, 2, 1), "identity=1 nonzero=1 pairwise_coprime=0 theorem_grade=0", EX_DOMAIN,
         ["error NotTheoremGrade"],
         "error: x, y, z must be pairwise coprime, got Solution(p=2, x=2, y=1, z=2, m=2, w=1)\n",
         "x, y, z must be pairwise coprime, got Solution(p=2, x=2, y=1, z=2, m=2, w=1)"),
    ], ids=["theorem_grade", "zero_field", "not_coprime", "broken_identity", "x_z_not_coprime"])
    def test_one_predicate(self, capsys, fields, flags, code, out, err, library_error):
        argv = ["--p", "2"]
        for name, value in zip("xyzmw", fields):
            argv += [f"--{name}", str(value)]
        identity = flags.startswith("identity=1")
        assert run_lines(capsys, ["verify"] + argv) == (
            EX_OK if identity else EX_DOMAIN, [f"report {flags}"], "")
        sol = Solution(2, *fields)
        library = theorem_grade_flags(sol)
        assert [f"{name}={int(ok)}" for name, ok in library.items()] == flags.split()[:3]
        assert all(library.values()) == flags.endswith("theorem_grade=1")
        assert run_lines(capsys, ["decompose"] + argv) == (code, out, err)
        if library_error is None:
            decompose(sol)
        else:
            with pytest.raises(NotTheoremGrade) as caught:
                decompose(sol)
            assert str(caught.value) == library_error


class TestHugeP:
    VERIFY_ONES = ["--x", "1", "--y", "1", "--z", "1", "--m", "1", "--w", "0"]

    def test_large_prime_is_accepted_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_lines(capsys, ["verify", "--p", "1000000000000000003"] + self.VERIFY_ONES)
        assert time.perf_counter() - start < 2
        assert code == EX_OK
        assert out == ["report identity=1 nonzero=0 pairwise_coprime=1 theorem_grade=0"]

    def test_large_composite_is_accepted_quickly(self, capsys):
        # The exponent need not be prime: a semiprime and a power of 2 pass too.
        for p in ((10**9 + 7) * (10**9 + 9), 2**89):
            start = time.perf_counter()
            code, out, _ = run_lines(capsys, ["verify", "--p", str(p)] + self.VERIFY_ONES)
            assert time.perf_counter() - start < 2
            assert code == EX_OK
            assert out == ["report identity=1 nonzero=0 pairwise_coprime=1 theorem_grade=0"]

    @pytest.mark.parametrize("argv", [
        ["generate", "--tuple", "1,2,1,1,1,1,1"],
        ["generate", "--tuple", "2,0,1,0,1,1,1"],
        ["decompose", "--x", "2", "--y", "1", "--z", "1", "--m", "1"],
        ["decompose", "--x", "1", "--y", "-2", "--z", "1", "--m", "1", "--trace"],
        ["verify", "--x", "1", "--y", "2", "--z", "1", "--m", "1", "--w", "0"],
        ["search", "--bound", "2", "--m", "1..1"],
        ["search", "--bound", "2", "--m", "-1..1", "--jobs", "2"],
        ["roundtrip", "--bound", "2", "--m", "1..1", "--fuzz-count", "0"],
    ], ids=["generate", "generate_e_only", "decompose", "decompose_y", "verify", "search",
            "search_jobs", "roundtrip"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_power_is_refused_first(self, capsys, argv, fmt):
        # Every subcommand refuses a p-th power it cannot hold before taking
        # any, and writes no record but the error.
        start = time.perf_counter()
        code, out, err = run_lines(
            capsys, argv[:1] + ["--p", "1000000000000000003", "--format", fmt] + argv[1:])
        assert time.perf_counter() - start < 2
        assert code == EX_DOMAIN
        assert out == (["error TooLarge"] if fmt == "text"
                       else ['{"kind":"error","error":"TooLarge"}'])
        assert "MAX_POWER_BITS" in err

    def test_search_out_is_not_created(self, capsys, tmp_path):
        path = tmp_path / "never.txt"
        code, out, _ = run_lines(capsys, ["search", "--p", "1000000000000000003", "--bound", "2",
                                          "--m", "1..1", "--out", str(path)])
        assert code == EX_DOMAIN
        assert out == ["error TooLarge"]
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["decompose", "--p", "1000000000000000003", "--x", "1", "--y", "1", "--z", "1",
         "--m", "3"],
        ["roundtrip", "--p", "1000000000000000003", "--bound", "1", "--m", "3..3",
         "--fuzz-count", "0"],
        ["roundtrip", "--p", "1000000000000000003", "--bound", "1", "--m", "3..4",
         "--fuzz-count", "0", "--jobs", "2"],
        ["decompose", "--p", "1009", "--x", "2", "--y", "1", "--z", str(2**1009 - 1),
         "--m", "1"],
    ], ids=["decompose", "roundtrip", "roundtrip_jobs", "decompose_large_z"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_residual_is_refused(self, argv, fmt):
        # The inputs' own powers pass the check, but decompose's residuals e
        # and f do not: the pipeline raises e to p - 2 and f to p.
        done = run_child(["-m", "zwform", *argv, "--format", fmt], timeout=5)
        assert done.returncode == EX_DOMAIN, done.stderr
        assert done.stdout == ("error TooLarge\n" if fmt == "text"
                               else '{"kind":"error","error":"TooLarge"}\n')
        assert "MAX_POWER_BITS" in done.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_fuzz_reference_is_refused(self, fmt):
        # At bound 1 every power passes MAX_POWER_BITS and the box round-trips,
        # but the fuzz's reference sums have p terms of about p**2 bits.
        argv = ["roundtrip", "--p", "1000000000000000003", "--bound", "1", "--m", "1..1"]
        done = run_child(["-m", "zwform", *argv, "--format", fmt], timeout=5)
        assert done.returncode == EX_DOMAIN, done.stderr
        assert done.stdout == ("error TooLarge\n" if fmt == "text"
                               else '{"kind":"error","error":"TooLarge"}\n')
        assert "MAX_REFERENCE_BITS" in done.stderr

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_line_coefficient_is_refused(self, fmt):
        # x**p has 100,900 bits and passes the check, but the recovered q
        # has 100,701 bits, and residual_e raises u and q to p before any e
        # exists. z = x**(p-1) + ... + 1 has 30,344 digits.
        x, p = 2**100, 1009
        z = (x ** p - 1) // (x - 1)
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            argv = ["decompose", "--p", str(p), "--x", str(x), "--y", "1", "--z", str(z),
                    "--m", "1"]
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        done = run_child(["-m", "zwform", *argv, "--format", fmt], timeout=5)
        assert done.returncode == EX_DOMAIN, done.stderr
        assert done.stdout == ("error TooLarge\n" if fmt == "text"
                               else '{"kind":"error","error":"TooLarge"}\n')
        assert "MAX_POWER_BITS" in done.stderr

    @pytest.mark.parametrize("fmt, out", [
        ("text", ["solution p=1000000000000000003 x=1 y=1 z=1 m=2 w=-1",
                  "tuple p=1000000000000000003 e=-1 f=1 g=1 l=0 q=1 n=1 r=0"]),
        ("json", ['{"kind":"solution","p":"1000000000000000003","x":"1","y":"1","z":"1",'
                  '"m":"2","w":"-1"}',
                  '{"kind":"tuple","p":"1000000000000000003","e":"-1","f":"1","g":"1",'
                  '"l":"0","q":"1","n":"1","r":"0"}']),
    ])
    def test_unit_residual_passes(self, capsys, fmt, out):
        # At m == 2 the residual e is -1, whose powers are +-1 for any p.
        assert run_lines(capsys, ["decompose", "--p", "1000000000000000003", "--x", "1",
                                  "--y", "1", "--z", "1", "--m", "2", "--format", fmt]) == (
            EX_OK, out, "")

    def test_power_bits_boundary(self):
        # p * (bit_length - 1) may reach MAX_POWER_BITS but not pass it. A
        # caller passes the OR of the magnitudes it raises to p.
        half = MAX_POWER_BITS // 2
        _check_powers(2, (1 << half) | 3)
        with pytest.raises(TooLarge):
            _check_powers(2, 3 | (1 << (half + 1)))
        _check_powers(1000000000000000003, 1)
        _check_powers(1000000000000000003, 0)
        # At p = 17 the bound moves one bit at a time: 17 * 61,681 == 2**20 + 1.
        _check_powers(17, 1 << 61680)
        with pytest.raises(TooLarge, match="61682-bit input has at least 1048577 bits"):
            _check_powers(17, 1 << 61681)

    def test_huge_p_meets_the_power_budgets(self, capsys):
        # A p of any size is a valid exponent; what it cannot hold is
        # refused as a domain error at once, never as a usage error.
        for p in (2**89 - 1, 2**89):
            for argv, error in (
                (["generate", "--tuple", "1,1,2,1,1,1,1"], "TooLarge"),
                (["decompose", "--x", "1", "--y", "1", "--z", "1", "--m", "1"],
                 "NotTheoremGrade"),
                (["roundtrip", "--bound", "5", "--m", "1..1"], "TooLarge"),
            ):
                start = time.perf_counter()
                code, out, _ = run_lines(capsys, argv[:1] + ["--p", str(p)] + argv[1:])
                assert time.perf_counter() - start < 2
                assert (code, out) == (EX_DOMAIN, [f"error {error}"]), (p, argv)

    def test_huge_output_power_is_refused(self):
        # Every input of the tuple passes the power budget, but x and y
        # have over 10,000 bits, and w takes their 1009th powers. Unrefused,
        # the command runs for minutes, so it runs in a child.
        start = time.perf_counter()
        done = run_child(["-m", "zwform", "generate", "--p", "1009",
                          "--tuple", "1000,1,1,1,1,1,1"], timeout=5)
        assert time.perf_counter() - start < 2
        assert (done.returncode, done.stdout) == (EX_DOMAIN, "error TooLarge\n"), done.stderr
        assert "MAX_POWER_BITS" in done.stderr


class TestSearch:
    def test_finds_known_solution(self, capsys):
        code, out, _ = run_lines(
            capsys, ["search", "--p", "2", "--bound", "5", "--m", "-1..-1"]
        )
        assert code == EX_OK
        assert "solution p=2 x=1 y=2 z=5 m=-1 w=1" in out
        assert out[-1].startswith("report ")
        assert "solutions_found=256" in out[-1]

    def test_json_report_counts(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["search", "--p", "2", "--bound", "3", "--m", "-2..2",
             "--format", "json"],
        )
        assert code == EX_OK
        records = json_records(out)
        report = records[-1]
        assert report["kind"] == "report"
        solutions = [r for r in records if r["kind"] == "solution"]
        assert report["counts"]["solutions_found"] == str(len(solutions))

    def test_usage_errors(self, capsys):
        for argv, err_part in (
            (["search", "--p", "2", "--bound", "0", "--m", "1..1"], "bound must be >= 1"),
            (["search", "--p", "2", "--bound", "5", "--m", "1..x"], "malformed m range"),
            (["search", "--p", "2", "--bound", "5", "--m", "5"], "expected lo..hi"),
            (["search", "--p", "2", "--bound", "5", "--m", "5..1"], "empty m range"),
            (["search", "--p", "1", "--bound", "5", "--m", "1..1"], "must be >= 2, got 1"),
            (["search", "--p", "-3", "--bound", "5", "--m", "1..1"], "must be >= 2, got -3"),
            (["search", "--p", "2", "--bound", "5", "--m", "1..1", "--jobs", "0"],
             "--jobs must be >= 1"),
            (["roundtrip", "--p", "2", "--bound", "0", "--m", "1..1"], "bound must be >= 1"),
            (["roundtrip", "--p", "2", "--bound", "5", "--m", "5..1"], "empty m range"),
            (["roundtrip", "--p", "2", "--bound", "5", "--m", "1..1", "--jobs", "0"],
             "--jobs must be >= 1"),
            (["roundtrip", "--p", "0", "--bound", "5", "--m", "1..1"], "must be >= 2, got 0"),
            # A usage error is reported before a box past the power budget.
            (["search", "--p", "1000000000000000003", "--bound", "2", "--m", "1..1",
              "--jobs", "0"], "--jobs must be >= 1"),
            (["roundtrip", "--p", "1000000000000000003", "--bound", "2", "--m", "1..1",
              "--jobs", "0"], "--jobs must be >= 1"),
            (["roundtrip", "--p", "1000000000000000003", "--bound", "2", "--m", "1..1",
              "--fuzz-count", "-1"], "--fuzz-count must be >= 0"),
            (["decompose", "--p", "1", "--x", "1", "--y", "1", "--z", "1", "--m", "1"],
             "must be >= 2, got 1"),
            (["verify", "--p", "-3", "--x", "1", "--y", "1", "--z", "1", "--m", "1", "--w", "0"],
             "must be >= 2, got -3"),
        ):
            code, out, err = run_lines(capsys, argv)
            assert code == EX_USAGE, argv
            assert out == []
            assert err_part in err, argv

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "solutions.jsonl"
        code, out, _ = run_lines(
            capsys,
            ["search", "--p", "2", "--bound", "4", "--m", "-2..2",
             "--format", "json", "--out", str(target)],
        )
        assert code == EX_OK
        assert out == []
        records = json_records(target.read_text().splitlines())
        assert records[-1]["kind"] == "report"

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "solutions.jsonl"
        code, out, err = run_lines(
            capsys,
            ["search", "--p", "2", "--bound", "4", "--m", "-1..1",
             "--out", str(target)],
        )
        assert code == EX_IOERR
        assert out == []

    def test_jobs_output_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path, jobs in zip(paths, ("1", "4")):
            code, _, _ = run_lines(
                capsys,
                ["search", "--p", "3", "--bound", "6", "--m", "-5..5",
                 "--format", "json", "--jobs", jobs, "--out", str(path)],
            )
            assert code == EX_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_stdout_matches_record_serializer(self, capsys, fmt, jobs):
        # The m range holds 0, so the report's filtered_zero_m is nonzero.
        bounds = SearchBounds(3, 5, -4, 3)
        expected = io.StringIO()
        for sol in enumerate_solutions(bounds):
            _emit(_solution_record(sol), fmt, expected)
        stats = stream_solutions(bounds, lambda sol: None)
        assert stats.filtered_zero_m > 0
        _emit(search_report(stats), fmt, expected)
        code = run(["search", "--p", "3", "--bound", "5", "--m", "-4..3",
                    "--format", fmt, "--jobs", str(jobs)])
        assert code == EX_OK
        assert capsys.readouterr().out == expected.getvalue()

    def test_writes_are_bounded(self):
        # m = -1 has more than _WRITE_RECORDS solutions in this box, so its
        # records take several writes, and the stream stays the same. A
        # pooled search writes each worker's strings as they are.
        bounds = SearchBounds(2, 8, -2, 0)
        expected = io.StringIO()
        for sol in enumerate_solutions(bounds):
            _emit(_solution_record(sol), "text", expected)
        stats = stream_solutions(bounds, lambda sol: None)
        _emit(search_report(stats), "text", expected)
        assert expected.getvalue().count(" m=-1 ") > _WRITE_RECORDS

        for jobs in ("1", "2"):
            writes = []
            recorder = type("Recorder", (), {"write": staticmethod(writes.append),
                                             "flush": staticmethod(lambda: None)})()
            with contextlib.redirect_stdout(recorder):
                code = run(["search", "--p", "2", "--bound", "8", "--m", "-2..0", "--jobs", jobs])
            assert code == EX_OK
            assert "".join(writes) == expected.getvalue()
            assert max(text.count("\n") for text in writes) == _WRITE_RECORDS

    @pytest.mark.parametrize("fmt, digest", [
        ("text", "da43788fb2b4b785132cfaeba812032d834096b5440b2adfc4562dd699ecb6db"),
        ("json", "0df75c7433f6c5c929c8beef7899eb376b7b41c7ea125059dbcd6bc4f5b63d5a"),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bench_scale_bytes(self, capsys, fmt, digest, jobs):
        # The benchmark's search box at one seed: 100,868 records. The
        # digests were taken from the instance-by-instance scan, which wrote
        # every record from one %-template.
        code = run(["search", "--p", "3", "--bound", "16", "--m", "-25..15",
                    "--format", fmt, "--jobs", str(jobs)])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert out.endswith("report instances_checked=366080 solutions_found=100868 "
                            "filtered_zero_m=9152 filtered_zero_w=192\n" if fmt == "text"
                            else '"filtered_zero_w":"192"}}\n')
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic_stdout(self, capsys):
        argv = ["search", "--p", "2", "--bound", "4", "--m", "-3..3"]
        first = run_lines(capsys, argv)
        second = run_lines(capsys, argv)
        assert first == second


class TestRoundtrip:
    def test_clean_box_exits_0(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["roundtrip", "--p", "2", "--bound", "5", "--m", "-3..3",
             "--fuzz-count", "100", "--format", "json"],
        )
        assert code == EX_OK
        (report,) = json_records(out)
        counts = report["counts"]
        assert counts["failures"] == "0"
        assert counts["fuzz_failures"] == "0"
        assert int(counts["solutions_found"]) > 0
        assert counts["fuzz_instances_checked"] == "100"

    def test_deterministic_for_fixed_seed(self, capsys):
        argv = ["roundtrip", "--p", "3", "--bound", "4", "--m", "-2..2",
                "--fuzz-count", "50", "--seed", "5"]
        code_a, out_a, _ = run_lines(capsys, argv)
        code_b, out_b, _ = run_lines(capsys, argv)
        assert code_a == code_b == EX_OK
        assert out_a == out_b

    def test_failures_exit_1_and_are_listed(self, capsys, monkeypatch):
        # An injected TRACE failure on every box solution with x, y, z > 0
        # that decomposes, and a REFERENCE failure on every fuzzed tuple with
        # z != 0. The report is written all the same; stderr lists the first
        # 20 failures, the box's in (m, x, y, z) order, then the fuzz's.
        m_relations = oracle.m_relations

        def failing_m_relations(p, fields, prefix, found):
            if min(fields[:3]) > 0:
                return ("residual_g",)
            return m_relations(p, fields, prefix, found)

        def wrong_y(*args):
            x, y, z, m, w = parametrization.closed_forms(*args)
            return x, y + 1, z, m, w

        monkeypatch.setattr(oracle, "m_relations", failing_m_relations)
        monkeypatch.setattr(oracle, "closed_forms", wrong_y)
        box = []
        for sol in enumerate_solutions(SearchBounds(2, 2, -2, 2)):
            if min(sol.x, sol.y, sol.z) > 0:
                try:
                    decompose(sol)
                except DegenerateE:
                    continue
                box.append(f"failure: TRACE: {sol}: residual_g")
        fuzz = []
        for t in sample_tuples(2, 2, 30, 0):
            try:
                generate_reference(t)
            except ZeroZ:
                continue
            fuzz.append(f"failure: REFERENCE: {t}: differs in y")
        assert 0 < len(box) < 20 < len(box) + len(fuzz)
        code, out, err = run_lines(capsys, ["roundtrip", "--p", "2", "--bound", "2",
                                            "--m", "-2..2", "--fuzz-count", "30",
                                            "--format", "json"])
        assert code == EX_INTERNAL
        (report,) = json_records(out)
        assert report["kind"] == "report"
        assert report["counts"]["failures"] == str(len(box))
        assert report["counts"]["fuzz_failures"] == str(len(fuzz))
        assert err.splitlines() == (box + fuzz)[:20]

    def test_negative_fuzz_count_is_usage_error(self, capsys):
        code, _, _ = run_lines(
            capsys,
            ["roundtrip", "--p", "2", "--bound", "4", "--m", "-1..1",
             "--fuzz-count", "-3"],
        )
        assert code == EX_USAGE


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_blocks(lang):
    """The fenced code blocks of README.md in language lang, each as its lines."""
    blocks, block = [], None
    with open(README, encoding="utf-8") as f:
        for line in f.read().splitlines():
            if block is None:
                if line == "```" + lang:
                    block = []
            elif line == "```":
                blocks.append(block)
                block = None
            else:
                block.append(line)
    return blocks


def readme_examples():
    """Each `$ zwform ...` example of README.md that shows its output, as
    (argv, the output shown): the lines up to the next `$` or the block's end."""
    examples = []
    for block in readme_blocks("sh"):
        for j, line in enumerate(block):
            if line.startswith("$ zwform "):
                shown = []
                for out in block[j + 1:]:
                    if out.startswith("$"):
                        break
                    shown.append(out)
                if shown:
                    examples.append((line[len("$ zwform "):].split(), shown))
    return examples


class TestReadme:
    """The README's examples give the output that it shows."""

    EXAMPLES = readme_examples()

    def test_examples_found(self):
        assert [argv[0] for argv, _ in self.EXAMPLES] == [
            "generate", "decompose", "verify", "roundtrip"]

    @pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
    def test_example_output(self, capsys, argv, shown):
        # An example whose shown output ends in "..." is compared up to there.
        code = run(argv)
        out = capsys.readouterr().out
        assert code == EX_OK
        expected = "".join(line + "\n" for line in shown)
        if expected.endswith("...\n"):
            expected = expected[:-len("...\n")]
            assert out.startswith(expected) and len(out) > len(expected)
        else:
            assert out == expected

    def test_library_snippet(self):
        # The snippet asserts its own round trip, and a comment line shows sol's repr.
        (snippet,) = readme_blocks("python")
        namespace = {}
        exec("\n".join(snippet), namespace)
        assert "# " + repr(namespace["sol"]) in snippet


class TestJsonLayout:
    """The raw JSON bytes of every record kind: key order, separators, strings."""

    @pytest.mark.parametrize("argv, stdout", [
        (["generate", "--p", "2", "--tuple", "1,1,2,1,1,1,1"],
         '{"kind":"tuple","p":"2","e":"1","f":"1","g":"2","l":"1","q":"1","n":"1","r":"1"}\n'
         '{"kind":"solution","p":"2","x":"-1","y":"2","z":"5","m":"-1","w":"1"}\n'),
        (["decompose", "--p", "2", "--x", "-1", "--y", "2", "--z", "5", "--m", "-1", "--trace"],
         '{"kind":"solution","p":"2","x":"-1","y":"2","z":"5","m":"-1","w":"1"}\n'
         '{"kind":"tuple","p":"2","e":"1","f":"2","g":"5","l":"0","q":"-1","n":"-2","r":"-1"}\n'
         '{"kind":"trace","e":"1","f":"2","g":"5","l":"0","q":"-1","n":"-2","r":"-1",'
         '"a":"-1","b":"0","c":"-2","d":"-1","h":"1","u":"-2"}\n'),
        (["generate", "--p", "2", "--tuple", "1,1,2,1,0,1,1"],
         '{"kind":"error","error":"ValueError"}\n'),
        (["verify", "--p", "2", "--x", "1", "--y", "2", "--z", "5", "--m", "-1", "--w", "1"],
         '{"kind":"report","counts":{"identity":"1","nonzero":"1","pairwise_coprime":"1",'
         '"theorem_grade":"1"}}\n'),
        (["search", "--p", "2", "--bound", "1", "--m", "0..1"],
         '{"kind":"report","counts":{"instances_checked":"8","solutions_found":"0",'
         '"filtered_zero_m":"8","filtered_zero_w":"8"}}\n'),
        (["roundtrip", "--p", "2", "--bound", "3", "--m", "-2..2", "--fuzz-count", "10"],
         '{"kind":"report","counts":{"instances_checked":"416","solutions_found":"296",'
         '"decompose_success":"216","degenerate_e":"80","failures":"0","filtered_zero_m":"104",'
         '"filtered_zero_w":"24","fuzz_instances_checked":"10","fuzz_solutions_found":"9",'
         '"fuzz_decompose_success":"9","fuzz_degenerate_e":"0","fuzz_failures":"0",'
         '"fuzz_filtered_zero_m":"0","fuzz_filtered_zero_w":"0"}}\n'),
    ], ids=["generate", "decompose_trace", "error", "verify", "search", "roundtrip"])
    def test_stdout_bytes(self, capsys, argv, stdout):
        run(argv + ["--format", "json"])
        assert capsys.readouterr().out == stdout


class TestBigIntegers:
    """Integers past CPython's 4300-digit int/str limit, in and out."""

    def test_generate_large_output(self, capsys):
        code, out, _ = run_lines(
            capsys, ["generate", "--p", "101", "--tuple", "1000,1,1,1,1,1,1"]
        )
        assert code == EX_OK
        assert out[0] == "tuple p=101 e=1000 f=1 g=1 l=1 q=1 n=1 r=1"
        assert out[1].startswith("solution p=101 ")
        assert len(out) == 2
        assert max(len(field) for field in out[1].split()) > 4300

    def test_decompose_large_g(self, capsys):
        code, out, _ = run_lines(
            capsys,
            ["decompose", "--p", "31", "--x=-381520416090430974070915870276",
             "--y", "-931322574615478515625", "--z", "381520424472334145610222510901",
             "--m", "-4611686018427387908", "--format", "json"],
        )
        assert code == EX_OK
        sol_rec, tup_rec = json_records(out)
        assert sol_rec["kind"] == "solution"
        assert tup_rec["kind"] == "tuple"
        assert len(tup_rec["g"].lstrip("-")) > 4300

    def test_verify_large_input(self, capsys):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        # Written out by hand: str() of these ints is itself over the limit.
        x = "1" + "0" * 4998 + "1"  # 10**4999 + 1
        w = "1" + "0" * 4998 + "2" + "0" * 4999  # x**2 - 1
        code, out, _ = run_lines(
            capsys,
            ["verify", "--p", "2", "--x", x, "--y", "1", "--z", "1", "--m", "1", "--w", w],
        )
        assert code == EX_OK
        assert out == ["report identity=1 nonzero=1 pairwise_coprime=1 theorem_grade=1"]
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pooled_search_large_output(self, method):
        # The workers render the records, so each lifts the digit limit
        # itself; a spawned worker starts with the interpreter's default.
        script = ("import multiprocessing, sys\n"
                  "from zwform import cli\n"
                  "multiprocessing.set_start_method(sys.argv[1])\n"
                  "sys.exit(cli.run(sys.argv[2:]))\n")
        argv = ["search", "--p", "14303", "--bound", "2", "--m", "1..2"]
        serial, pooled = (run_child(["-c", script, method, *argv, "--jobs", jobs], timeout=120)
                          for jobs in ("1", "2"))
        assert serial.returncode == pooled.returncode == EX_OK, pooled.stderr
        assert max(len(field) for field in serial.stdout.split()) > 4300
        assert pooled.stdout == serial.stdout


@pytest.fixture
def digit_limit():
    """CPython's default int/str digit limit, in force for the test.

    A test may have lifted it for the process (an in-process search worker
    does); interpreters older than the limit have none to set.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestMessagesPastDigitLimit:
    """A domain error keeps its class when its message names an int past the limit."""

    def test_generate_zero_z(self, digit_limit):
        with pytest.raises(ZeroZ, match=r"q=1, n=<16610-bit int>, r=1\)$"):
            generate(ParameterTuple(2, 1, 0, -1, 1, 1, 10**5000, 1))

    def test_decompose_not_theorem_grade(self, digit_limit):
        with pytest.raises(NotTheoremGrade, match=r"got Solution\(p=2, x=<16610-bit int>, y=2,"):
            decompose(Solution(2, 10**5000, 2, 3, 0, 5))

    def test_identity_fuzz_too_large(self, digit_limit):
        with pytest.raises(TooLarge, match=r"p = 2, limit <131073-bit int> add up"):
            identity_fuzz(2, 2**131073 - 1, 1, 0)

    def test_show(self, digit_limit):
        assert show(-10**5000) == "-<16610-bit int>"
        assert show(-10**4000) == str(-10**4000)
        assert show(Solution(2, 3, -10**5000, 1, 1, 1)) == (
            "Solution(p=2, x=3, y=-<16610-bit int>, z=1, m=1, w=1)")
        assert show(Solution(2, 3, -10**4000, 1, 1, 1)) == repr(Solution(2, 3, -10**4000, 1, 1, 1))

    def test_cli_names_the_decimal(self, capsys, digit_limit):
        # run lifts the limit, so the message is the one str() would give.
        n = "1" + "0" * 5000
        code, out, err = run_lines(
            capsys, ["generate", "--p", "2", "--tuple", f"1,0,-1,1,1,{n},1"])
        assert code == EX_DOMAIN
        assert out == [f"tuple p=2 e=1 f=0 g=-1 l=1 q=1 n={n} r=1", "error ZeroZ"]
        assert err == ("error: z evaluates to 0 for "
                       f"ParameterTuple(p=2, e=1, f=0, g=-1, l=1, q=1, n={n}, r=1)\n")
        if hasattr(sys, "get_int_max_str_digits"):
            assert sys.get_int_max_str_digits() == 4300


class TestColdStart:
    def test_pool_is_not_imported(self):
        # The child checks its own modules and prints what it finds: this
        # process may have imported the pool modules itself.
        script = ("import runpy, sys\n"
                  "POOL = ('multiprocessing', 'concurrent.futures.process')\n"
                  "import zwform.cli\n"
                  "print([name for name in POOL if name in sys.modules])\n"
                  "sys.argv[0] = 'zwform'\n"
                  "try:\n"
                  "    runpy.run_module('zwform', run_name='__main__')\n"
                  "except SystemExit as exc:\n"
                  "    print(exc.code)\n"
                  "print([name for name in POOL if name in sys.modules])\n")
        done = run_child(["-c", script, "generate", "--p", "3", "--tuple", "2,1,1,1,1,1,1"],
                         timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "[]",
            "tuple p=3 e=2 f=1 g=1 l=1 q=1 n=1 r=1",
            "solution p=3 x=-5 y=3 z=14 m=-1 w=-7",
            str(EX_OK),
            "[]",
        ]


class TestParsing:
    def test_no_command(self, capsys):
        code, _, _ = run_lines(capsys, [])
        assert code == EX_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run_lines(capsys, ["frobnicate"])
        assert code == EX_USAGE

    def test_bad_format(self, capsys):
        code, _, _ = run_lines(
            capsys,
            ["generate", "--p", "2", "--tuple", "1,1,2,1,1,1,1", "--format", "xml"],
        )
        assert code == EX_USAGE

    def test_internal_codes_are_distinct(self):
        assert len({EX_OK, EX_INTERNAL, EX_DOMAIN, EX_USAGE, EX_IOERR}) == 5


class TestLastResort:
    """run maps what a command lets escape: an OSError to 74, any other exception to 1."""

    ARGV = ["generate", "--p", "2", "--tuple", "1,1,1,1,1,1,1"]

    def test_broken_stdout_is_io_error(self, capsys, monkeypatch):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        assert run(self.ARGV) == EX_IOERR
        assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(t):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "generate", broken)
        assert run(self.ARGV) == EX_INTERNAL
        assert capsys.readouterr() == ("", "internal error: RuntimeError: injected\n")
