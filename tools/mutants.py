"""Mutation gate: each listed one-edit mutant of src/ must be killed by its tests.

A gate is live only if breaking the code it guards makes it fail. Each
mutant below names a file, an exact old text that must occur exactly once
in it, the new text, and the tests expected to kill it. The script copies
the whole checkout (README and all) to a temporary directory, runs the
union of the named tests there on the unmutated copy and requires them to
pass, then applies each mutant in turn and runs only its own tests.

A mutant is killed when its tests fail (pytest exit code 1) or run past
the timeout. The run fails, with exit code 1, when a mutant survives, when
an old text does not occur exactly once, when the baseline fails, or when
pytest ends a mutant's run any other way (a collection or usage error).
Standard library only.

Run it from the checkout's root:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# A mutant whose named tests run longer than this is counted as killed: the
# gate it breaks stops the run rather than passing it.
TIMEOUT_S = 300

# Each pytest run, and each process it starts, gets at most this much
# address space, so a mutant that lifts a power budget fails with
# MemoryError instead of taking the host's memory.
MAX_ADDRESS_SPACE = 4 << 30


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("bezout_tie_sign", "src/zwform/decomposition.py",
           "(2 * a == mod and z < 0)", "(2 * a == mod and z > 0)",
           ("tests/test_decomposition.py::TestBezoutAgainstExtgcd",)),
    Mutant("bezout_zero_a_kept", "src/zwform/decomposition.py",
           "    if a == 0:\n        a, b = a + z, b + v\n    return a, b\n",
           "    return a, b\n",
           ("tests/test_decomposition.py::TestBezoutNonzero",)),
    Mutant("regenerate_not_compared", "src/zwform/decomposition.py",
           "    if regen != (x, y, z, m, w):", "    if False:",
           ("tests/test_oracle.py::TestFailureCategories::"
            "test_injected_failure_reaches_its_gate[regenerate]",)),
    Mutant("residual_g_not_reported", "src/zwform/decomposition.py",
           "    if f ** p - m != e * g:", "    if False:",
           ("tests/test_decomposition.py::TestTraceIdentities::test_m_relations_name_what_fails",)),
    Mutant("power_budget_one_bit_late", "src/zwform/exact_arith.py",
           "    if bits > MAX_POWER_BITS:", "    if bits > MAX_POWER_BITS + 1:",
           ("tests/test_cli.py::TestHugeP::test_power_bits_boundary",)),
    Mutant("closed_forms_xy_unchecked", "src/zwform/parametrization.py",
           "    _check_powers(p, abs(x) | abs(y))\n", "",
           ("tests/test_cli.py::TestHugeP::test_huge_output_power_is_refused",)),
    Mutant("m_fields_budget_unchecked", "src/zwform/decomposition.py",
           "    _check_powers(p, abs(e) | abs(f))\n", "",
           ("tests/test_cli.py::TestHugeP::test_huge_residual_is_refused",)),
    Mutant("constraints_skip_gcd_n_r", "src/zwform/parametrization.py",
           "gcd(l, q) == 1 and gcd(n, r) == 1", "gcd(l, q) == 1",
           ("tests/test_decomposition.py::TestDecompose::test_m_fields_takes_three_gcds",)),
    Mutant("row_walk_stops_one_m_early", "src/zwform/oracle.py",
           "for m in range(start, top + 1, k):", "for m in range(start, top, k):",
           ("tests/test_oracle.py::TestResidueScan::test_matches_naive_scan",)),
    Mutant("fuzz_ignores_y", "src/zwform/oracle.py",
           "        if got == want:", "        if got[:1] + got[2:] == want[:1] + want[2:]:",
           ("tests/test_oracle.py::TestIdentityFuzz::test_wrong_y_alone_is_a_reference_failure",)),
    Mutant("show_never_abbreviates", "src/zwform/errors.py",
           "    try:\n        return str(value)\n    except ValueError:\n        pass\n",
           "    return str(value)\n",
           ("tests/test_cli.py::TestMessagesPastDigitLimit::test_generate_zero_z",)),
    Mutant("bounds_door_open", "src/zwform/oracle.py",
           "        _check_powers(self.p, self.bound)\n", "",
           ("tests/test_oracle.py::TestRefusalOrder",)),
    Mutant("roundtrip_failures_exit_0", "src/zwform/cli.py",
           "{detail}\", file=sys.stderr)\n        return EX_INTERNAL\n",
           "{detail}\", file=sys.stderr)\n        return EX_OK\n",
           ("tests/test_cli.py::TestRoundtrip::test_failures_exit_1_and_are_listed",)),
    Mutant("theorem_grade_skips_gcd_x_z", "src/zwform/parametrization.py",
           "gcd(sol.x, sol.y) == gcd(sol.x, sol.z) == gcd(sol.y, sol.z) == 1",
           "gcd(sol.x, sol.y) == gcd(sol.y, sol.z) == 1",
           ("tests/test_cli.py::TestTheoremGradeParity",)),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MAX_ADDRESS_SPACE, MAX_ADDRESS_SPACE))


def run_tests(copy: Path, tests) -> tuple[int | None, float, str]:
    """pytest's exit code on tests in copy (None past TIMEOUT_S), its seconds, its output tail.

    pytest runs in a session of its own, so that on a timeout the worker
    processes it started are killed with it.
    """
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, start_new_session=True,
                          preexec_fn=_limit_memory) as proc:
        try:
            output, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, time.perf_counter() - start, ""
    tail = "\n".join(output.strip().splitlines()[-15:])
    return proc.returncode, time.perf_counter() - start, tail


def main() -> int:
    bad = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            bad.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    if bad:
        print("\n".join(bad))
        return 1

    with tempfile.TemporaryDirectory(prefix="zwform-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        baseline = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        code, seconds, tail = run_tests(copy, baseline)
        if code != 0:
            print(f"baseline: FAILED (exit {code}, {seconds:.1f} s); no mutant was run\n{tail}")
            return 1
        print(f"baseline: passed ({seconds:.1f} s)")
        failed = 0
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code, seconds, tail = run_tests(copy, mutant.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if code == 1:
                print(f"{mutant.name}: killed ({seconds:.1f} s)")
            elif code is None:
                print(f"{mutant.name}: killed (timed out after {seconds:.1f} s)")
            elif code == 0:
                failed += 1
                print(f"{mutant.name}: SURVIVED ({seconds:.1f} s)")
            else:
                failed += 1
                print(f"{mutant.name}: ERROR (pytest exit {code}, {seconds:.1f} s)\n{tail}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
