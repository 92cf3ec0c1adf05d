import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import constant_bias_panel
from estagg.aggregate import ModeConfig
from estagg.bias import BiasTracker, ErrorLedger, HistoryLedger, blended_bias
from estagg.ingest import FilterConfig, build_panel
from estagg.replay import run_mode


def replayed(offset):
    """Scored outcomes of a panel where all eight analysts miss the actual
    (100 cents) by the same offset every quarter."""
    ests, acts = constant_bias_panel([offset] * 8)
    return run_mode(build_panel(ests, acts, FilterConfig()), ModeConfig()).outcomes


class TestSignedError:
    # the replay records prediction minus actual, so subtracting the learned
    # bias lands exactly on the actual whatever the sign of the miss
    def test_positive(self):
        outcomes = replayed(5)
        assert outcomes and all(o.simple_consensus == 105.0 and o.improved == 100.0 for o in outcomes)

    def test_negative(self):
        outcomes = replayed(-5)
        assert outcomes and all(o.simple_consensus == 95.0 and o.improved == 100.0 for o in outcomes)

    def test_identity(self):
        outcomes = replayed(0)
        assert outcomes and all(o.simple_consensus == o.improved == 100.0 for o in outcomes)


class TestErrorLedger:
    def test_no_history_is_zero(self):
        assert ErrorLedger().bias("A", "F") == 0.0

    def test_mean_of_history(self):
        ledger = ErrorLedger()
        for err in (2, -1, 5):
            ledger.record("A", "F", err)
        assert ledger.bias("A", "F") == 2.0

    def test_incremental_update(self):
        ledger = ErrorLedger()
        ledger.record("A", "F", 3)
        ledger.record("A", "F", 7)
        assert ledger.bias("A", "F") == 5.0

    def test_single_record(self):
        ledger = ErrorLedger()
        ledger.record("A", "F", 4)
        assert ledger.bias("A", "F") == 4.0

    def test_key_isolation(self):
        pair = ErrorLedger("identity_firm")
        pair.record("A", "F1", 10)
        assert pair.bias("A", "F2") == 0.0
        ident = ErrorLedger("identity")
        ident.record("A", "F1", 10)
        assert ident.bias("A", "F2") == 10.0

    def test_granularities(self):
        for gran, expect in [
            ("identity_firm", 0.0),
            ("identity", 10.0),
            ("firm", 0.0),
            ("global", 10.0),
        ]:
            ledger = ErrorLedger(gran)
            ledger.record("A", "F1", 10)
            assert ledger.bias("A", "F2") == expect, gran

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_incremental_equals_batch(self, errs):
        # exact equality: integer sums keep the division identical
        ledger = ErrorLedger()
        for e in errs:
            ledger.record("A", "F", e)
        assert ledger.bias("A", "F") == sum(errs) / len(errs)


class TestBlendedBias:
    def test_half_half(self):
        assert blended_bias(4.0, 2.0, 0.5) == 3.0

    def test_identity(self):
        for lam in (0.0, 0.3, 1.0):
            assert blended_bias(7.0, 7.0, lam) == 7.0

    def test_one_sided(self):
        assert blended_bias(6.0, 0.0, 0.5) == 3.0


class TestBiasTracker:
    def test_half_mode_blends_firm_and_identity(self):
        tr = BiasTracker("half")
        tr.record("A", "F", 4)  # firm bias 4, identity bias 4
        tr.record("B", "F", 0)  # firm bias 2
        assert tr.bias("A", "F") == 0.5 * 2.0 + 0.5 * 4.0

    def test_plain_mode_delegates(self):
        tr = BiasTracker("identity_firm")
        tr.record("A", "F", 8)
        assert tr.bias("A", "F") == 8.0
        assert tr.bias("A", "G") == 0.0


class TestHistoryLedger:
    def test_experience_counts_records(self):
        h = HistoryLedger()
        assert h.experience("A", "F") == 0
        h.record("A", "F", 3.0)
        h.record("A", "F", 5.0)
        assert h.experience("A", "F") == 2
        assert h.mean_abs_error("A", "F") == 4.0

    def test_empty_history_raises(self):
        import pytest

        with pytest.raises(RuntimeError):
            HistoryLedger().mean_abs_error("A", "F")
