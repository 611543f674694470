"""Tests for repro.dram.commands."""

from repro.dram.commands import Activate, Refresh


class TestEquality:
    def test_commands_are_value_types(self):
        assert Activate(0, 0, 0, 5) == Activate(0, 0, 0, 5)
        assert Activate(0, 0, 0, 5) != Activate(0, 0, 0, 6)
        assert hash(Refresh(1, 1)) == hash(Refresh(1, 1))
