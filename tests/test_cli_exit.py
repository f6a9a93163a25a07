#!/usr/bin/env python3
"""ctest tier1 check of the binaries' command-line exit contract.

Every bench and example main runs through util::run_main, so a bad command
line ends in a diagnostic and a non-zero exit, never std::terminate:

  * --help             usage on stdout, exit 0
  * an unknown flag    the flag named plus usage on stderr, exit 2
  * a malformed flag   (a bare "--") usage on stderr, exit 2

Usage: test_cli_exit.py BINARY [BINARY ...]
"""

import subprocess
import sys
import unittest

BINARIES = []


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=60, check=False)


class ExitContract(unittest.TestCase):
    def test_help_exits_zero_with_usage_on_stdout(self):
        for binary in BINARIES:
            with self.subTest(binary=binary):
                proc = run(binary, "--help")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertIn("usage:", proc.stdout)
                self.assertIn("flags:", proc.stdout)

    def test_unknown_flag_exits_two_with_usage_on_stderr(self):
        for binary in BINARIES:
            with self.subTest(binary=binary):
                proc = run(binary, "--no-such-flag", "1")
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("unknown flag --no-such-flag", proc.stderr)
                self.assertIn("usage:", proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_malformed_flag_exits_two(self):
        for binary in BINARIES:
            with self.subTest(binary=binary):
                proc = run(binary, "--")
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("usage:", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    BINARIES.extend(sys.argv[1:])
    unittest.main(argv=sys.argv[:1])
