"""Unit tests for the energy ledger and run metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.congest import EnergyLedger, RunMetrics

# One ledger operation: ("charge", node, rounds), ("charge_many", nodes,
# rounds) or ("ensure", nodes, 0), over node ids 0..19 (ids >= 10 start
# untracked, so charging one before ``ensure`` raises KeyError).
_NODE = st.integers(0, 19)
_OPERATION = st.one_of(
    st.tuples(st.just("charge"), _NODE, st.integers(0, 5)),
    st.tuples(st.just("charge_many"), st.lists(_NODE, max_size=8),
              st.integers(0, 5)),
    st.tuples(st.just("ensure"), st.lists(_NODE, max_size=4), st.just(0)),
)


class TestEnergyLedger:
    def test_starts_at_zero(self):
        ledger = EnergyLedger([1, 2, 3])
        assert ledger.max_energy() == 0
        assert ledger.total_energy() == 0

    def test_charge_accumulates(self):
        ledger = EnergyLedger([1, 2])
        ledger.charge(1)
        ledger.charge(1, 2)
        assert ledger.awake_rounds(1) == 3
        assert ledger.awake_rounds(2) == 0

    def test_max_energy_is_max_over_nodes(self):
        ledger = EnergyLedger([1, 2, 3])
        ledger.charge(1, 5)
        ledger.charge(2, 2)
        assert ledger.max_energy() == 5

    def test_average_energy(self):
        ledger = EnergyLedger([1, 2, 3, 4])
        ledger.charge(1, 4)
        assert ledger.average_energy() == pytest.approx(1.0)

    def test_charge_many(self):
        ledger = EnergyLedger(range(10))
        ledger.charge_many(range(5), 2)
        assert ledger.total_energy() == 10

    def test_negative_charge_rejected(self):
        ledger = EnergyLedger([1])
        with pytest.raises(ValueError):
            ledger.charge(1, -1)

    def test_unknown_node_rejected(self):
        ledger = EnergyLedger([1])
        with pytest.raises(KeyError):
            ledger.charge(99)

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger([])

    @given(st.lists(_OPERATION, max_size=40))
    def test_aggregates_match_a_recount(self, operations):
        """The kept total and maximum equal a recount of the per-node
        values after any sequence of charges and node additions,
        including charges that fail part-way on an unknown node."""
        ledger = EnergyLedger(range(10))
        for kind, target, rounds in operations:
            try:
                if kind == "charge":
                    ledger.charge(target, rounds)
                elif kind == "charge_many":
                    ledger.charge_many(iter(target), rounds)
                else:
                    ledger.ensure_nodes(target)
            except KeyError:
                pass
            values = ledger.snapshot().values()
            assert ledger.total_energy() == sum(values)
            assert ledger.max_energy() == max(values)
            assert ledger.average_energy() == sum(values) / len(values)

    def test_snapshot_is_a_copy(self):
        ledger = EnergyLedger([1])
        snap = ledger.snapshot()
        snap[1] = 100
        assert ledger.awake_rounds(1) == 0


class TestRunMetrics:
    def test_from_ledger(self):
        ledger = EnergyLedger([1, 2])
        ledger.charge(1, 3)
        metrics = RunMetrics.from_ledger(rounds=10, ledger=ledger)
        assert metrics.rounds == 10
        assert metrics.max_energy == 3
        assert metrics.average_energy == pytest.approx(1.5)

    def test_combine_sequential_sums_rounds(self):
        a = RunMetrics(rounds=5, max_energy=2, average_energy=1.0, total_energy=4)
        b = RunMetrics(rounds=7, max_energy=3, average_energy=2.0, total_energy=8)
        combined = RunMetrics.combine_sequential({"p1": a, "p2": b})
        assert combined.rounds == 12
        assert combined.phases["p1"] is a

    def test_combine_without_ledger_upper_bounds_energy(self):
        a = RunMetrics(rounds=1, max_energy=2, average_energy=1.0, total_energy=4)
        b = RunMetrics(rounds=1, max_energy=3, average_energy=2.0, total_energy=8)
        combined = RunMetrics.combine_sequential({"p1": a, "p2": b})
        assert combined.max_energy == 5

    def test_combine_with_shared_ledger_uses_true_max(self):
        ledger = EnergyLedger([1, 2])
        ledger.charge(1, 2)  # phase 1 charged node 1
        a = RunMetrics.from_ledger(rounds=1, ledger=ledger)
        ledger.charge(2, 3)  # phase 2 charged node 2
        b = RunMetrics.from_ledger(rounds=1, ledger=ledger)
        combined = RunMetrics.combine_sequential({"a": a, "b": b}, ledger=ledger)
        # True combined max is 3 (node 2), not 2 + 3.
        assert combined.max_energy == 3

    def test_combine_aggregates_message_counters(self):
        a = RunMetrics(
            rounds=1, max_energy=0, average_energy=0, total_energy=0,
            messages_sent=4, max_message_bits=8,
        )
        b = RunMetrics(
            rounds=1, max_energy=0, average_energy=0, total_energy=0,
            messages_sent=6, max_message_bits=16,
        )
        combined = RunMetrics.combine_sequential({"a": a, "b": b})
        assert combined.messages_sent == 10
        assert combined.max_message_bits == 16

    def test_duplicate_phase_name_rejected(self):
        a = RunMetrics(rounds=1, max_energy=0, average_energy=0, total_energy=0)
        a.add_phase("x", a)
        with pytest.raises(ValueError):
            a.add_phase("x", a)
