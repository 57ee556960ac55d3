"""Self-test of the benchmark on shrunken inputs.

    python3 bench/selftest.py

Checks that a run prints every metric BENCHMARK.json names, with its unit,
in both modes; that the correctness gate trips when the program writes a
different byte, when a wrapper is bypassed, or when the sources are gone;
and that the scored ride never shares its seed with the training ride.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# Same commands and layers as the full workloads on far less data: 8 frame
# pairs, 15 reference descriptors, 3-minute mode rides. The quality floors
# belong to the full-size inputs, so they are off here.
SMALL = {
    "ride_busy": dict(fps=1.0, items_per_level=5),
    "ride_quiet": dict(fps=1.0, items_per_level=5),
    "modes_long": dict(ride="walk:60,bike:60,motor:60",
                       train_ride="walk:60,bike:60,motor:60", clip=(70.0, 11),
                       items_per_level=5),
}


def small(name: str) -> run.Workload:
    return dataclasses.replace(
        run.WORKLOADS[name], cycle=("train", "label", "analyze"),
        min_level_agreement=0.0, min_mode_accuracy=0.0, **SMALL[name])


class BenchSelfTest(unittest.TestCase):

    def setUp(self):
        self._cwd = os.getcwd()
        self._tmp = tempfile.TemporaryDirectory()
        os.chdir(self._tmp.name)
        patcher = mock.patch.dict(run.WORKLOADS, {n: small(n) for n in SMALL})
        patcher.start()
        self.addCleanup(patcher.stop)

    def tearDown(self):
        os.chdir(self._cwd)
        self._tmp.cleanup()

    def bench(self, workload: str, trace: int) -> tuple[int, dict, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", workload, "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)])
        text = out.getvalue()
        return code, json.loads(text.splitlines()[-1]), text, err.getvalue()

    def test_every_metric_printed_with_its_unit(self):
        for workload in SMALL:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, text, _ = self.bench(workload, trace)
                    self.assertEqual(code, 0, text)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertIn(f"{name} = ", text)
                        self.assertIsInstance(result["metrics"][name]["value"], float)
                        if key == "end_to_end":
                            self.assertGreater(result["metrics"][name]["value"], 0.0)

    def test_gate_trips_on_a_changed_output_byte(self):
        from cyclerisk import fileio
        original = fileio.write_report_geojson
        calls = []

        def drifting(path, segments):
            original(path, segments)
            calls.append(path)
            if len(calls) > 1:
                with open(path, "ab") as fh:
                    fh.write(b" ")

        with mock.patch.object(fileio, "write_report_geojson", drifting):
            code, result, _, err = self.bench("ride_busy", 0)
        self.assertEqual(code, 1)
        self.assertIn("report.geojson differs from the first run", err)
        self.assertFalse(result["correct"])
        self.assertEqual(result["metrics"], {})

    def test_bypassed_wrapper_fails_loudly(self):
        from cyclerisk import pipeline
        original = pipeline.lk_flow
        # a reference the tracer cannot find, as a closure would hold it
        with mock.patch.object(pipeline, "lk_flow",
                               lambda *a, **k: original(*a, **k)):
            code, result, _, err = self.bench("ride_quiet", 1)
        self.assertEqual(code, 1)
        self.assertIn("lk_flow ran 0 times", err)
        self.assertFalse(result["correct"])

    def test_unrecorded_setup_layer_fails_loudly(self):
        wrap = run.tr.Tracer.wrap

        def wrap_all_but_render(tracer, name, layer, fn):
            if name == "cyclerisk.synth.render_ride_frames":
                return fn
            return wrap(tracer, name, layer, fn)

        with mock.patch.object(run.tr.Tracer, "wrap", wrap_all_but_render):
            code, result, _, err = self.bench("ride_quiet", 1)
        self.assertEqual(code, 1)
        self.assertIn("render_ride_frames not seen in a traced setup", err)
        self.assertFalse(result["correct"])

    def test_scored_ride_is_never_the_training_ride(self):
        for wl in run.WORKLOADS.values():
            for seed in (wl.train_seed - 1, wl.train_seed, wl.train_seed + 1):
                if wl.ride == wl.train_ride:
                    self.assertNotEqual(wl.ride_seed(seed), wl.train_seed)
        wl = run.WORKLOADS["modes_long"]
        self.assertEqual(len({wl.ride_seed(s) for s in range(-3, 3000)}), 3003)

    def test_no_result_without_sources(self):
        out = io.StringIO()
        with mock.patch.object(run, "SRC_DIR", Path(self._tmp.name) / "src"), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "ride_busy", "--seed", "1",
                             "--seconds", "1", "--trace", "0"])
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
