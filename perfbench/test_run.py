"""Tests of the benchmark's output check.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def recorded(workload, seed=2017):
    with open(run.expected_path(workload, seed)) as f:
        return json.load(f)["points"]


def observed(points):
    """A run's facts for `points`, with every in-process check passing."""
    return [dict(copy.deepcopy(p), error=None, reference_ok=True, problems=[]) for p in points]


class RecordedValues(unittest.TestCase):
    def test_every_workload_has_both_seeds_recorded(self):
        points = {"adaptive-margin": 20, "permanent-faults": 20}
        for w in run.WORKLOADS:
            for seed in (2017, run.HELD_OUT_SEED):
                self.assertEqual(len(recorded(w, seed)), points[w], (w, seed))

    def test_recorded_values_pass_their_own_check(self):
        for w in run.WORKLOADS:
            rec = recorded(w)
            self.assertEqual(run.check(observed(rec), rec), {}, w)

    def test_a_perturbed_recorded_value_is_caught(self):
        rec = recorded("adaptive-margin")
        i = 7
        perturbations = {
            "cycles": lambda p: p.update(cycles=p["cycles"] + 1),
            "rf.avf_ace": lambda p: p["rf"].update(avf_ace=p["rf"]["avf_ace"] * (1 + 1e-12)),
            "lds.occupancy": lambda p: p["lds"].update(occupancy=p["lds"]["occupancy"] + 1e-9),
            "rf.avf_fi": lambda p: p["rf"].update(avf_fi=p["rf"]["avf_fi"] + 1e-9),
            "rf.tally": lambda p: p["rf"]["tally"].__setitem__(1, p["rf"]["tally"][1] + 1),
            "adaptive.rounds": lambda p: p["adaptive"][0].update(rounds=p["adaptive"][0]["rounds"] + 1),
            "adaptive.replayed": lambda p: p["adaptive"][0].update(
                replayed=p["adaptive"][0]["replayed"] - 1),
        }
        for name, perturb in perturbations.items():
            bad = copy.deepcopy(rec)
            perturb(bad[i])
            failures = run.check(observed(rec), bad)
            self.assertEqual(list(failures), [i], name)
            self.assertTrue(any(name.split(".")[-1] in r for r in failures[i]), failures[i])

    def test_untraced_runs_skip_only_the_adaptive_fields(self):
        rec = recorded("adaptive-margin")
        points = observed(rec)
        for p in points:
            del p["adaptive"]
        self.assertEqual(run.check(points, rec), {})

    def test_a_missing_point_fails_the_study(self):
        rec = recorded("permanent-faults")
        self.assertIn(-1, run.check(observed(rec)[1:], rec))


class InProcessChecks(unittest.TestCase):
    def test_each_in_process_failure_counts_without_recorded_values(self):
        points = observed(recorded("permanent-faults"))
        points[0]["reference_ok"] = False
        points[1]["error"] = "launch failed"
        points[2]["problems"] = ["study 1 differs from study 0"]
        del points[3]["reference_ok"]
        self.assertEqual(sorted(run.check(points, None)), [0, 1, 2, 3])


if __name__ == "__main__":
    unittest.main()
