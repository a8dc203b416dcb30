import itertools

import pytest

from qamp import ParameterError, ValidationError, basis_index, layout_for
from qamp.registers import RegisterLayout

# independent slice-offset computation from the documented canonical order
ORDER = ("M1", "M2", "R1", "C1", "R2", "C2", "K1", "K2", "B", "BT", "Q1", "Q2", "Q3")


def independent_offsets(n, with_controls=False):
    widths = {name: (n if name in ("R1", "C1", "R2", "C2") else 1) for name in ORDER}
    names = ORDER if with_controls else ORDER[:10]
    offsets = {}
    cursor = 0
    for name in names:
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

    def test_n3_with_controls(self):
        assert layout_for(3, with_controls=True).total_qubits == 21

    def test_rejects_n_below_one(self):
        with pytest.raises(ParameterError):
            layout_for(0)

    @pytest.mark.parametrize("with_controls", [False, True])
    def test_repeated_calls_give_equal_layouts(self, with_controls):
        assert layout_for(3, with_controls) == layout_for(3, with_controls)
        assert layout_for(3, with_controls) != layout_for(4, with_controls)

    def test_one_instance_per_argument_pair(self):
        # however the arguments are passed, a process derives each layout once
        assert layout_for(3, True) is layout_for(3, with_controls=True)
        assert layout_for(3) is layout_for(3, False) is layout_for(n=3, with_controls=0)
        assert layout_for(3).without("B") is layout_for(3, False).without("B")

    def test_shared_layouts_are_read_only(self):
        # layout_for and the derived layouts are shared by every caller
        for layout in (layout_for(2), layout_for(2).without("B", "BT")):
            with pytest.raises(TypeError):
                layout.slices["M1"] = range(5, 6)
            with pytest.raises(TypeError):
                del layout.slices["M1"]
        assert layout_for(2).qubits("M1") == range(0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("with_controls", [False, True])
    def test_slices_disjoint_and_cover(self, n, with_controls):
        layout = layout_for(n, with_controls)
        seen = set()
        for r in layout.slices.values():
            overlap = seen & set(r)
            assert not overlap
            seen |= set(r)
        expected = 4 * n + 6 + (3 if with_controls else 0)
        assert seen == set(range(expected))
        assert layout.total_qubits == expected
        for name in ("R1", "C1", "R2", "C2"):
            assert layout.width(name) == n
        for name in ("M1", "M2", "K1", "K2", "B", "BT"):
            assert layout.width(name) == 1


class TestWithout:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("with_controls", [False, True])
    def test_drops_ancillae_and_packs_the_rest_in_order(self, n, with_controls):
        layout = layout_for(n, with_controls)
        working = layout.without("B", "BT")
        assert working.total_qubits == layout.total_qubits - 2
        assert "B" not in working.slices and "BT" not in working.slices
        offsets, _total = independent_offsets(n, with_controls)
        kept = [name for name in sorted(offsets, key=offsets.get) if name not in ("B", "BT")]
        assert list(working.slices) == kept
        cursor = 0
        for name in kept:
            assert working.qubits(name) == range(cursor, cursor + layout.width(name))
            cursor += layout.width(name)
        assert working.n == n and working.control_flags_present == with_controls

    def test_unknown_subsystem(self):
        layout = layout_for(1)
        for _ in range(2):  # also once the valid derivations are kept
            layout.without("B", "BT")
            with pytest.raises(ParameterError):
                layout.without("Q1")
            with pytest.raises(ParameterError):
                layout.without("B", "Q1")

    def test_repeated_subsystem(self):
        layout = layout_for(1)
        layout.without("B")
        with pytest.raises(ParameterError):
            layout.without("B", "B")

    @pytest.mark.parametrize("with_controls", [False, True])
    def test_kept_derivations_equal_fresh_ones(self, with_controls):
        layout = layout_for(2, with_controls)
        fresh = RegisterLayout(layout.n, dict(layout.slices), with_controls)
        for names in (("B", "BT"), ("BT", "B"), ("C1",), ()):
            assert layout.without(*names) is layout.without(*names)
            assert layout.without(*names) == fresh.without(*names)


class TestBasisIndex:
    def test_all_zero(self):
        assert basis_index(layout_for(2), {}) == 0

    def test_m1_is_qubit_zero(self):
        assert basis_index(layout_for(1), {"M1": 1}) == 1

    def test_k1_offset_n1(self):
        assert basis_index(layout_for(1), {"K1": 1}) == 64

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_independent_offsets(self, n):
        import numpy as np

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

    def test_value_overflow(self):
        with pytest.raises(ValidationError):
            basis_index(layout_for(1), {"M1": 2})

    def test_unknown_subsystem(self):
        with pytest.raises(ParameterError):
            basis_index(layout_for(1), {"Q1": 1})  # no control flags allocated
