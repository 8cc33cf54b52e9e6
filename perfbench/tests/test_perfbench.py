"""Tests of the benchmark itself, on tiny inputs.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout; the first test builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The figures each workload prints under the names of the README.
NAMED_FIGURES = {
    "characterize": ["char_wall_s", "char_accuracy"],
    "predict": ["predict_per_s", "predict_mt_per_s"],
    "serve": ["serve_per_s", "serve_closed_p50_ms", "serve_p50_ms",
              "serve_p99_ms"],
    "dvfs": ["dvfs_cycles_per_s", "dvfs_gain"],
}

# Per-layer metrics of layers each workload runs, which must not read 0.
LAYERS_RUN = {
    "characterize": ["sim.events"] + [
        "sim.us_per_cycle." + fu
        for fu in ("int_add", "int_mul", "fp_add", "fp_mul")],
    "predict": ["ml.traverse_ns_per_row", "tevot.encode_ns_per_row"],
    "serve": ["serve.rtt_us", "serve.server_p50_ms", "serve.residual_us",
              "serve.p50_from_due_ms"],
    "dvfs": ["sim.events", "sim.us_per_cycle.int_add",
             "sim.us_per_cycle.int_mul", "dvfs.truth_us_per_window"],
}


def run(workload, trace, seed=1, corrupt="", cwd=ROOT, script=RUN):
    command = [sys.executable, script, "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    if corrupt:
        command += ["--corrupt", corrupt]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, done.stdout, result


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


class TinyRunTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]),
                                  (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, stdout, result = run(workload, trace)
                    self.assertEqual(code, 0, stdout)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in listed})
                    self.assertIn("fail_frac", stdout)
                    self.assertIn("meta: ", stdout)
                    if trace == 0:
                        for value in values(result).values():
                            self.assertGreater(value, 0)
                        for figure in NAMED_FIGURES[workload]:
                            self.assertIn(figure, stdout)
                    else:
                        for name in LAYERS_RUN[workload]:
                            self.assertGreater(values(result)[name], 0, name)


class DeterminismTest(unittest.TestCase):
    def repeat(self, workload, trace, names):
        first = values(run(workload, trace, seed=7)[2])
        second = values(run(workload, trace, seed=7)[2])
        for name in names:
            self.assertEqual(first[name], second[name], name)

    def test_characterize_counts_repeat(self):
        # tevot.accuracy is char_accuracy on this workload.
        self.repeat("characterize", 1,
                    ["tevot.accuracy", "sim.events", "ml.nodes",
                     "verify.box_evals"])

    def test_dvfs_counts_repeat(self):
        # dvfs.gain is dvfs_gain.
        self.repeat("dvfs", 1, ["dvfs.gain", "dvfs.replays", "sim.events"])


class CorruptionTest(unittest.TestCase):
    def test_corrupted_output_trips_its_check(self):
        for workload, check in (("characterize", "sim"),
                                ("characterize", "certify"),
                                ("predict", "batch"),
                                ("serve", "serve"),
                                ("dvfs", "dvfs")):
            with self.subTest(check=check):
                code, stdout, result = run(workload, 0, corrupt=check)
                self.assertEqual(code, 1, stdout)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, stdout, result = run(
                "predict", 0, cwd=bare,
                script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
