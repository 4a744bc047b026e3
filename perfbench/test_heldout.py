"""Both recorded seeds deliver on every workload.

Builds the harness and runs each workload once per seed (about five minutes
on the current event core):

    python3 perfbench/test_heldout.py
"""

import json
import os
import subprocess
import sys
import unittest

import benchlib

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class BothSeedsDeliver(unittest.TestCase):
    def test_every_workload_delivers_on_both_seeds(self):
        for seed in (benchlib.DEV_SEED, benchlib.HELDOUT_SEED):
            ratios = {}
            for workload in benchlib.WORKLOADS:
                with self.subTest(workload=workload, seed=seed):
                    res = run(workload, seed)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    m = {k: v["value"] for k, v in res["metrics"].items()}
                    self.assertGreater(m["delivery_ratio"], 0)
                    self.assertGreater(m["goodput_bps"], 0)
                    ratios[workload] = m["delivery_ratio"]
            # The nominal city answers at least half its resolved echoes; the
            # overloaded one answers some, but a smaller share.
            self.assertGreaterEqual(ratios["city"], 0.5)
            self.assertLess(ratios["city_overload"], ratios["city"])


if __name__ == "__main__":
    unittest.main()
