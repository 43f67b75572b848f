"""Unit tests of tools/perf_gate.py's comparison rule, on canned result lines.

    python3 -m unittest discover -s tools -p "perf_gate_test.py"

No benchmark runs: each case builds the result lines perfbench/run.py would
print and hands them to judge().
"""
import unittest

import perf_gate

END_TO_END = [
    {"name": "frames_per_s", "better": "higher", "bound": 0.25},
    {"name": "frame_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "ok_share", "better": "higher", "bound": 0.01},
]
BASE = {"frames_per_s": 40.0, "frame_ms_p50": 25.0, "ok_share": 1.0}
# Per-seed content factors: the raw values spread by 30 % across seeds.
CONTENT = (1.0, 1.3, 0.8, 1.1, 0.9)
# A little per-run noise on each side, well under the 0.10 floor.
NOISE = (1.01, 0.99, 1.02, 0.98, 1.0)


def run(values, correct=True, exit_code=0):
    metrics = {k: {"value": v, "unit": ""} for k, v in values.items()}
    return {"exit": exit_code,
            "result": {"correct": correct, "attempted": 100, "failed": 0,
                       "metrics": metrics if correct else {}}}


def seed_values(seed_index, scale=None, noise=1.0):
    """BASE at one seed's content, with metric -> factor overrides."""
    scale = scale or {}
    c = CONTENT[seed_index]
    return {"frames_per_s": BASE["frames_per_s"] / c * noise
            * scale.get("frames_per_s", 1.0),
            "frame_ms_p50": BASE["frame_ms_p50"] * c * noise
            * scale.get("frame_ms_p50", 1.0),
            "ok_share": BASE["ok_share"] * scale.get("ok_share", 1.0)}


def pairs(change_scale=None, change_noise=NOISE):
    return [(i + 1, run(seed_values(i)),
             run(seed_values(i, change_scale, change_noise[i])))
            for i in range(len(CONTENT))]


class PerfGateRule(unittest.TestCase):
    def test_aa_run_passes(self):
        verdict = perf_gate.judge(END_TO_END, {"w": pairs(), "v": pairs()})
        self.assertTrue(verdict["pass"], verdict["regressions"])
        e = verdict["metrics"]["w"]["frame_ms_p50"]
        self.assertEqual(e["status"], "ok")
        self.assertAlmostEqual(e["threshold"], 0.10)

    def test_slowdown_on_one_workload_is_flagged(self):
        verdict = perf_gate.judge(END_TO_END, {
            "w": pairs({"frame_ms_p50": 1.2}), "v": pairs()})
        self.assertFalse(verdict["pass"])
        self.assertEqual(verdict["regressions"], ["w frame_ms_p50"])
        self.assertAlmostEqual(
            verdict["metrics"]["w"]["frame_ms_p50"]["median_ratio"], 1.2)

    def test_higher_is_better_drop_is_flagged(self):
        verdict = perf_gate.judge(END_TO_END,
                                  {"w": pairs({"frames_per_s": 1 / 1.2})})
        self.assertEqual(verdict["regressions"], ["w frames_per_s"])
        # A rise of the same size is not a regression.
        verdict = perf_gate.judge(END_TO_END,
                                  {"w": pairs({"frames_per_s": 1.2})})
        self.assertTrue(verdict["pass"])

    def test_ok_share_uses_its_own_smaller_bound(self):
        # ok_share's bound (0.01) is below the 0.10 floor, so it rules.
        verdict = perf_gate.judge(END_TO_END, {"w": pairs({"ok_share": 0.98})})
        self.assertEqual(verdict["regressions"], ["w ok_share"])
        self.assertAlmostEqual(
            verdict["metrics"]["w"]["ok_share"]["threshold"], 0.01)
        verdict = perf_gate.judge(END_TO_END,
                                  {"w": pairs({"ok_share": 0.995})})
        self.assertTrue(verdict["pass"])

    def test_scattered_metric_widens_its_threshold(self):
        scattered = (1.25, 0.8, 1.3, 0.85, 1.0)
        verdict = perf_gate.judge(END_TO_END, {
            "w": pairs({"frame_ms_p50": 1.15}, change_noise=scattered)})
        e = verdict["metrics"]["w"]["frame_ms_p50"]
        self.assertGreater(e["median_ratio"] - 1.0, 0.10)
        self.assertAlmostEqual(e["threshold"], 3 * e["mad"])
        self.assertGreater(e["threshold"], e["median_ratio"] - 1.0)
        self.assertEqual(e["status"], "ok")

    def test_incorrect_run_on_either_side_fails(self):
        for side in (1, 2):
            runs = pairs()
            seed, base, change = runs[2]
            broken = [seed, base, change]
            broken[side] = run({}, correct=False, exit_code=1)
            runs[2] = tuple(broken)
            verdict = perf_gate.judge(END_TO_END, {"w": runs, "v": pairs()})
            self.assertFalse(verdict["pass"])
            self.assertEqual(len(verdict["failures"]), 1)
            self.assertIn("seed 3", verdict["failures"][0])
            self.assertNotIn("w", verdict["metrics"])
        # correct: false fails even with exit 0, and a non-zero exit fails
        # even with correct: true.
        for bad in (run(BASE, correct=False), run(BASE, exit_code=1)):
            runs = pairs()
            runs[0] = (1, runs[0][1], bad)
            self.assertFalse(perf_gate.judge(END_TO_END, {"w": runs})["pass"])

    def test_metric_on_one_side_only_is_informational(self):
        runs = []
        for seed, base, change in pairs():
            base["result"]["metrics"].pop("frames_per_s")
            runs.append((seed, base, change))
        spec = END_TO_END + [{"name": "new_metric", "better": "lower",
                              "bound": 0.25}]
        verdict = perf_gate.judge(spec, {"w": runs})
        self.assertTrue(verdict["pass"])
        e = verdict["metrics"]["w"]["frames_per_s"]
        self.assertEqual(e["status"], "informational")
        self.assertEqual(e["note"], "reported by change")
        self.assertEqual(verdict["metrics"]["w"]["new_metric"]["note"],
                         "reported by neither side")


if __name__ == "__main__":
    unittest.main()
