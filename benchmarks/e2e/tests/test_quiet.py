"""``workloads.quiet_repeat``: the repeat a quiet machine would have run."""

import workloads


def test_each_segment_takes_its_fastest_repeat():
    # the same three segments of work, three times; a burst of noise hit a
    # different segment each time, so no whole repeat was quiet
    repeats = [
        [1.0, 2.5, 3.0],
        [1.4, 2.0, 3.0],
        [1.0, 2.0, 3.9],
    ]
    quiet = workloads.quiet_repeat(repeats)
    assert quiet.tolist() == [1.0, 2.0, 3.0]
    assert quiet.sum() < min(sum(r) for r in repeats)


def test_one_repeat_is_returned_as_it_is():
    assert workloads.quiet_repeat([[0.5, 0.25]]).tolist() == [0.5, 0.25]
