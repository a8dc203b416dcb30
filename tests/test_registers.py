import itertools
import re

import numpy as np
import pytest

from qamp import ParameterError, ValidationError
from qamp.registers import basis_index, layout_for

# independent slice-offset computation from the documented canonical order
ORDER = ("M1", "M2", "R1", "C1", "R2", "C2", "K1", "K2", "B", "BT")


def independent_offsets(n):
    widths = {name: (n if name in ("R1", "C1", "R2", "C2") else 1) for name in ORDER}
    offsets = {}
    cursor = 0
    for name in ORDER:
        offsets[name] = cursor
        cursor += widths[name]
    return offsets, cursor


class TestLayoutFor:
    def test_n1_examples(self):
        layout = layout_for(1)
        assert layout.total_qubits == 10
        assert layout.start("R1") == 2

    def test_n2_total(self):
        assert layout_for(2).total_qubits == 14

    def test_rejects_n_below_one(self):
        with pytest.raises(ParameterError):
            layout_for(0)

    @pytest.mark.parametrize(
        "n", [True, np.True_, 2.0, None], ids=["True", "numpy-True", "float", "None"]
    )
    def test_n_must_be_an_integer_not_a_bool(self, n):
        with pytest.raises(ParameterError, match=f"got {re.escape(repr(n))}$"):
            layout_for(n)

    @pytest.mark.parametrize("by_keyword", [False, True])
    def test_repeated_calls_give_equal_layouts(self, by_keyword):
        def call(n):
            return layout_for(n=n) if by_keyword else layout_for(n)

        assert call(3) == layout_for(3)
        assert call(3) != layout_for(4)

    def test_one_instance_per_n(self):
        # however n is passed, a process builds each layout once
        assert layout_for(3) is layout_for(n=3) is layout_for(np.int64(3))

    def test_shared_layouts_are_read_only(self):
        # layout_for's layouts are shared by every caller, and derived ones
        # are read-only too
        for layout in (layout_for(2), layout_for(2).without("B", "BT")):
            with pytest.raises(TypeError):
                layout.slices["M1"] = range(5, 6)
            with pytest.raises(TypeError):
                del layout.slices["M1"]
        assert layout_for(2).qubits("M1") == range(0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("via_without", [False, True])
    def test_slices_disjoint_and_cover(self, n, via_without):
        # removing no subsystem gives the same map
        layout = layout_for(n).without() if via_without else layout_for(n)
        seen = set()
        for r in layout.slices.values():
            overlap = seen & set(r)
            assert not overlap
            seen |= set(r)
        expected = 4 * n + 6
        assert seen == set(range(expected))
        assert layout.total_qubits == expected
        for name in ("R1", "C1", "R2", "C2"):
            assert layout.width(name) == n
        for name in ("M1", "M2", "K1", "K2", "B", "BT"):
            assert layout.width(name) == 1


class TestWithout:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_drops_ancillae_and_packs_the_rest_in_order(self, n, reverse):
        # the order in which the removed subsystems are named does not matter
        layout = layout_for(n)
        working = layout.without(*(("BT", "B") if reverse else ("B", "BT")))
        assert working.total_qubits == layout.total_qubits - 2
        assert "B" not in working.slices and "BT" not in working.slices
        offsets, _total = independent_offsets(n)
        kept = [name for name in sorted(offsets, key=offsets.get) if name not in ("B", "BT")]
        assert list(working.slices) == kept
        cursor = 0
        for name in kept:
            assert working.qubits(name) == range(cursor, cursor + layout.width(name))
            cursor += layout.width(name)
        assert working.n == n

    def test_unknown_subsystem(self):
        layout = layout_for(1)
        with pytest.raises(ParameterError):
            layout.without("Q1")
        with pytest.raises(ParameterError):
            layout.without("B", "Q1")

    def test_repeated_subsystem(self):
        layout = layout_for(1)
        with pytest.raises(ParameterError):
            layout.without("B", "B")


class TestBasisIndex:
    def test_all_zero(self):
        assert basis_index(layout_for(2), {}) == 0

    def test_m1_is_qubit_zero(self):
        assert basis_index(layout_for(1), {"M1": 1}) == 1

    def test_k1_offset_n1(self):
        assert basis_index(layout_for(1), {"K1": 1}) == 64

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_independent_offsets(self, n):
        layout = layout_for(n)
        offsets, total = independent_offsets(n)
        rng = np.random.default_rng(71 + n)
        for _ in range(50):
            assignment = {
                "M1": int(rng.integers(0, 2)),
                "M2": int(rng.integers(0, 2)),
                "R1": int(rng.integers(0, 1 << n)),
                "C1": int(rng.integers(0, 1 << n)),
                "R2": int(rng.integers(0, 1 << n)),
                "C2": int(rng.integers(0, 1 << n)),
                "K1": int(rng.integers(0, 2)),
                "K2": int(rng.integers(0, 2)),
                "B": int(rng.integers(0, 2)),
                "BT": int(rng.integers(0, 2)),
            }
            expected = sum(v << offsets[k] for k, v in assignment.items())
            assert basis_index(layout, assignment) == expected

    def test_bijection_exhaustive_n1(self):
        layout = layout_for(1)
        names = list(layout.slices)
        seen = set()
        for values in itertools.product((0, 1), repeat=len(names)):
            seen.add(basis_index(layout, dict(zip(names, values))))
        assert seen == set(range(1 << layout.total_qubits))

    @pytest.mark.parametrize("value", [1.9, "1", True, np.True_], ids=["float", "str", "True", "numpy-True"])
    def test_values_must_be_integers_not_bools(self, value):
        # int() would floor 1.9 to 1, parse "1" and take True for 1
        layout = layout_for(1)
        with pytest.raises(ParameterError, match=f"^value of R1 must be an integer, not a bool, got {re.escape(repr(value))}$"):
            basis_index(layout, {"R1": value})
        assert basis_index(layout, {"R1": np.int64(1)}) == basis_index(layout, {"R1": 1}) == 4

    def test_value_overflow(self):
        with pytest.raises(ValidationError):
            basis_index(layout_for(1), {"M1": 2})

    def test_unknown_subsystem(self):
        with pytest.raises(ParameterError):
            basis_index(layout_for(1), {"Q1": 1})  # no such subsystem
