"""End-to-end checks of the benchmark's own gates.

    python3 -m unittest discover -s carbench/tests

These run carbench/run.py (building carbench/ on first use) with the
smallest time budget, so each test costs a few seconds.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        proc, result = bench("--workload", "rebuild-rolling-faults",
                             "--seed", "3", "--seconds", "0", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {name for name, _ in run.END_TO_END})

    def test_corrupted_chunk_is_a_failed_op(self):
        for workload in ("rebuild-rolling-faults", "meta-rack-1m"):
            with self.subTest(workload=workload):
                proc, result = bench("--workload", workload, "--seed", "3",
                                     "--seconds", "0", "--trace", "0",
                                     "--corrupt-one")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertIn("recovered chunk bit-exact: 1 of", proc.stderr)

    def test_memory_refusal_names_the_workload(self):
        argv = ["run.py", "--workload", "real-rack-20x20", "--seed", "1",
                "--seconds", "0"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(run, "mem_available_bytes",
                               return_value=64 << 20), \
                mock.patch.object(sys, "argv", argv), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run.main()
        self.assertNotEqual(code, 0)
        self.assertIn("workload real-rack-20x20 refused", stderr.getvalue())
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])

    def test_known_oom_shape_is_refused_on_16_gib(self):
        # A real-byte 4,000-stripe, 256 KiB rolling rebuild on 10x10 racks
        # with RS(6,3) was OOM-killed on a 16 GiB host.
        shape = dict(run.WORKLOADS["rebuild-rolling-faults"],
                     stripes=4000, metadata_only=False)
        self.assertIsNotNone(
            run.memory_refusal("oom-shape", shape, 16 * (1 << 30)))

    def test_without_sources_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = bench("--workload", "meta-rack-1m", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=tmp,
                                 script=Path(tmp) / HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


# Three events in `EventLog::to_json` form: one intra-rack and one cross-rack
# completed transfer, then the run's end.
LOG = (
    '[\n'
    '  {"seq":0,"t":"0.000655360","kind":"transfer-complete","step":0,'
    '"attempt":1,"node":22,"bytes":65536,"detail":"intra-rack, slice 1/4"},\n'
    '  {"seq":1,"t":"0.003276800","kind":"transfer-complete","step":1,'
    '"attempt":1,"node":27,"bytes":4096,"detail":"cross-rack, slice 1/4"},\n'
    '  {"seq":2,"t":"408.693302004","kind":"run-complete","step":-1,'
    '"attempt":-1,"node":27,"bytes":69632,"detail":"1 chunks rebuilt"}\n'
    ']\n')


class CrossCheckTest(unittest.TestCase):
    def test_log_totals_are_exact(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.json"
            path.write_text(LOG)
            self.assertEqual(run.log_totals(path),
                             {"makespan_s": "408.693302004",
                              "cross_rack_bytes": "4096"})

    def test_event_logs_compare_byte_for_byte(self):
        with tempfile.TemporaryDirectory() as tmp:
            cli, ours = Path(tmp) / "cli.json", Path(tmp) / "ours.json"
            cli.write_text(LOG)
            ours.write_text(LOG)
            self.assertIsNone(run.compare_event_logs(cli, ours))
            ours.write_text(LOG.replace('"bytes":4096', '"bytes":4097'))
            self.assertIn("at line 3", run.compare_event_logs(cli, ours))
            ours.unlink()
            self.assertIn("missing", run.compare_event_logs(cli, ours))


if __name__ == "__main__":
    unittest.main()
