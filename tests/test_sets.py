import pytest

from fplab.errors import DomainError, SetFileError
from fplab.sets import (Interval, SplitMix64, initial_interval, mix_seed,
                        random_subset, residue_set, set_from_file,
                        shifted_interval)


def test_initial_interval(ctx):
    c = ctx(7)
    assert initial_interval(3, c).elements().tolist() == [1, 2, 3]
    assert initial_interval(6, c).elements().tolist() == [1, 2, 3, 4, 5, 6]
    with pytest.raises(DomainError):
        initial_interval(7, c)
    with pytest.raises(DomainError):
        initial_interval(0, c)


def test_shifted_interval(ctx):
    c11 = ctx(11)
    assert shifted_interval(2, 3, c11).elements().tolist() == [3, 4, 5]
    assert shifted_interval(0, 4, c11).elements().tolist() == \
        initial_interval(4, c11).elements().tolist()
    wrap = shifted_interval(11 - 2, 3, c11)
    assert wrap.contains_zero
    assert 0 in wrap.elements().tolist()
    with pytest.raises(DomainError):
        wrap.units()
    # reduction of L mod p happens first
    assert shifted_interval(13, 3, c11).elements().tolist() == [3, 4, 5]


def test_interval_zero_detection_matches_elements(ctx):
    c = ctx(31)
    for L in range(0, 31):
        for H in (1, 5, 30):
            iv = Interval(L, H, 31)
            assert iv.contains_zero == (0 in iv.elements().tolist())


def test_residue_set_validation(ctx):
    c = ctx(7)
    s = residue_set([3, 1, 2], c)
    assert s.elems.tolist() == [1, 2, 3] and s.M == 3
    with pytest.raises(DomainError):
        residue_set([0, 1], c)
    with pytest.raises(DomainError):
        residue_set([1, 7], c)
    with pytest.raises(DomainError):
        residue_set([], c)


def test_random_subset_determinism(ctx):
    c = ctx(101)
    a = random_subset(10, 42, c)
    b = random_subset(10, 42, c)
    assert a.elems.tolist() == b.elems.tolist()
    other = random_subset(10, 43, c)
    assert a.elems.tolist() != other.elems.tolist()


def test_random_subset_full_and_singleton(ctx):
    c = ctx(13)
    full = random_subset(12, 7, c)
    assert full.elems.tolist() == list(range(1, 13))
    single = random_subset(1, 99, c)
    assert single.M == 1 and 1 <= single.elems[0] <= 12
    with pytest.raises(DomainError):
        random_subset(13, 1, c)
    with pytest.raises(DomainError):
        random_subset(0, 1, c)


def test_random_subset_is_unbiased_enough(ctx):
    # every element of a small field shows up across many seeds
    c = ctx(11)
    seen = set()
    for seed in range(200):
        seen.update(random_subset(3, seed, c).elems.tolist())
    assert seen == set(range(1, 11))


def test_splitmix_reference_values():
    # first outputs for seed 1234567, from the published SplitMix64 recurrence
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_mix_seed_varies():
    assert mix_seed(1, 0) != mix_seed(1, 1)
    assert mix_seed(1, 0) == mix_seed(1, 0)


def test_set_from_file(tmp_path, ctx):
    c = ctx(7)
    path = tmp_path / "set.txt"
    path.write_text("1\n3\n2\n")
    assert set_from_file(path, c).elems.tolist() == [1, 2, 3]
    path.write_text("# comment\n2\n\n2\n5 # trailing\n")
    assert set_from_file(path, c).elems.tolist() == [2, 5]

    path.write_text("0\n")
    with pytest.raises(SetFileError, match="line 1"):
        set_from_file(path, c)
    path.write_text("1\n8\n")
    with pytest.raises(SetFileError, match="line 2"):
        set_from_file(path, c)
    path.write_text("1\nxyz\n")
    with pytest.raises(SetFileError, match="line 2"):
        set_from_file(path, c)
