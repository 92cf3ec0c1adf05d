"""Recovery of the synthetic ground truth through the library's own ledgers.

The paper's premise is that analysts carry significant individual biases
that their earlier records reveal. On S-sized synth panels (50 firms x 200
analysts x 40 quarters, one estimate per analyst and quarter), the
(identity, firm) bias that `BiasTracker` reads for each kept estimate must
approach the planted bias of its pair plus the mean common shift as the
pair's prior records accumulate.
"""

import numpy as np
import pytest

from conftest import load_synth
from estagg.bias import BiasTracker
from estagg.ingest import FilterConfig, build_panel
from estagg.synth import SynthSpec

# Bins of a pair's prior-record count, and the bounds on the mean absolute
# gap (cents) between the tracker's bias and the planted one in each bin.
# Seeds 11-25 gave 3.24-4.34, 1.27-1.45 and 0.80-1.01. A record's error
# around its pair's mean has sd sqrt(5**2 + 3**2) cents (common shift and
# noise), so the mean of k records misses by about 4.65 / sqrt(k). The
# lower bounds fail a tracker that reads a pair's later records: the mean
# of all of a pair's records misses by 0.71 in every bin on seed 1.
BINS = {(1, 2): (2.5, 5.0), (9, 16): (0.9, 1.7), (17, 40): (0.5, 1.2)}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_identity_firm_bias_approaches_the_planted_bias(seed):
    estimates, actuals, truth = load_synth(SynthSpec(seed=seed))
    panel = build_panel(estimates, actuals, FilterConfig(), identity="analyst")
    tracker = BiasTracker("identity_firm")
    tracker.record(panel.stream, panel.stream.error_cents)
    prior = panel.stream.index("identity_firm").counts[panel.records]
    firm = np.repeat(panel.events.firm, np.diff(panel.bounds))
    pairs = zip(firm.tolist(), panel.analyst.tolist())
    planted = [truth["biases"][panel.events.firm_ids[f]][panel.analyst_ids[a]] for f, a in pairs]
    gap = np.abs(tracker.bias(panel.records) - (np.array(planted) + truth["common_shift_mu"]))
    means = []
    for (fewest, most), (low, high) in BINS.items():
        in_bin = (fewest <= prior) & (prior <= most)
        assert np.count_nonzero(in_bin) >= 800
        means.append(float(gap[in_bin].mean()))
        assert low < means[-1] < high, (fewest, most)
    assert means == sorted(means, reverse=True)
