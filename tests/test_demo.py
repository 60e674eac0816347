"""The demo's stages, bit for bit against the inclusion-exclusion sums and
the synchronous update written out by hand on the fixture's table."""

import numpy as np

from coalattn.demo import FIXTURE, render_demo, run_demo
from coalattn.games import Extensions, TabularGame


def _hand_marginals():
    table, bit = np.array(FIXTURE.table), 1 << FIXTURE.target_token
    c = np.array(FIXTURE.sampled_masks) & ~bit  # each coalition without the token
    return table[c | bit] - table[c]


def _hand_pair_deltas():
    table = np.array(FIXTURE.table)
    bi, bj = (1 << t for t in FIXTURE.pair)
    c = np.array(FIXTURE.pair_contexts)
    return table[c | bi | bj] - table[c | bi] - table[c | bj] + table[c]


def test_marginals_and_pair_deltas_are_the_hand_sums(monkeypatch):
    differences = []
    evaluate = TabularGame.values_by_mask

    def recording(self, masks):
        values = evaluate(self, masks)
        if isinstance(masks, Extensions):
            differences.append(values[1])
        return values

    monkeypatch.setattr(TabularGame, "values_by_mask", recording)
    report = run_demo()
    marginals, pair_deltas = differences
    np.testing.assert_array_equal(marginals, [_hand_marginals()])
    np.testing.assert_array_equal(pair_deltas, [_hand_pair_deltas()])
    weights = np.array(report["weights"]["engine"])
    assert report["shapley_estimate"]["engine"] == float(np.dot(weights, _hand_marginals()))
    assert report["interaction_estimate"]["engine"] == float(np.dot(weights, _hand_pair_deltas()))


def test_iterations_are_the_hand_updates_from_zero():
    report = run_demo()
    fields, couplings = np.array(report["fields"]), np.array(FIXTURE.couplings)
    spins = np.zeros(FIXTURE.n)
    for name in ("iteration_1", "iteration_2"):
        spins = np.tanh((fields + couplings @ spins) / FIXTURE.gamma)
        np.testing.assert_array_equal(report[name]["engine"], spins)


def test_dropping_a_stage_from_the_report_drops_exactly_its_row():
    report = run_demo()
    stages = [key for key, block in report.items() if isinstance(block, dict) and "delta" in block]
    assert len(stages) == 7
    for dropped in stages:
        rows = render_demo({key: block for key, block in report.items() if key != dropped}).splitlines()
        # the header and the coalitions, a row per stage left, the three fixed-point rows
        assert len(rows) == 11
        assert [row.split()[0] for row in rows[2:8]] == [stage for stage in stages if stage != dropped]
