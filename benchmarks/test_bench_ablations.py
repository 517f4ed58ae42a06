"""Ablation benchmarks: in situ frequency, SST queue policy, node ratio.

These are the design-choice sweeps DESIGN.md calls out beyond the
paper's own figures.  They run the *real* stack (small scale).
"""

from conftest import MEASURE_KWARGS, emit

from repro.bench import ablations


def test_insitu_frequency_sweep(benchmark, pb146_measured, results_dir):
    table = benchmark.pedantic(
        lambda: ablations.insitu_frequency(measure_kwargs=MEASURE_KWARGS),
        rounds=3, iterations=1,
    )
    emit(results_dir, "ablation_frequency", table)

    rows = table.as_dicts()
    overheads = [row["overhead vs original [%]"] for row in rows]
    # rendering 10x more often costs more
    assert overheads[0] > overheads[-1]
    images = [row["images"] for row in rows]
    assert images == sorted(images, reverse=True)


def test_sst_queue_policies(benchmark, results_dir):
    table = benchmark.pedantic(
        lambda: ablations.sst_queue(queue_limits=(1, 2), total_ranks=3, steps=4),
        rounds=1, iterations=1,
    )
    emit(results_dir, "ablation_sst_queue", table)

    rows = table.as_dicts()
    # Block policy never drops; Discard may
    for row in rows:
        if row["policy"] == "Block":
            assert row["steps dropped"] == 0, row
        assert row["steps received"] > 0


def test_data_reduction_spectrum(benchmark, results_dir):
    table = benchmark.pedantic(
        lambda: ablations.data_reduction(error_bounds=(1e-2, 1e-5), steps=4),
        rounds=1, iterations=1,
    )
    emit(results_dir, "ablation_data_reduction", table)

    rows = table.as_dicts()
    raw = rows[0]["bytes/dump"]
    compressed = [r["bytes/dump"] for r in rows
                  if r["representation"].startswith("delta-rle")]
    assert len(compressed) == 2
    # compressed dumps sit strictly below raw checkpoints
    assert max(compressed) < raw
    # looser bounds compress harder
    assert compressed == sorted(compressed)


def test_strong_scaling_limit(benchmark, pb146_measured, results_dir):
    table = benchmark.pedantic(
        lambda: ablations.strong_scaling_limit(measure_kwargs=MEASURE_KWARGS),
        rounds=3, iterations=1,
    )
    emit(results_dir, "ablation_strong_scaling", table)

    rows = table.as_dicts()
    # compute share falls, collective share rises: a crossover exists
    compute = [r["compute share [%]"] for r in rows]
    coll = [r["collective share [%]"] for r in rows]
    assert compute == sorted(compute, reverse=True)
    assert coll == sorted(coll)
    assert compute[0] > coll[0] and compute[-1] < coll[-1]
    # efficiency decays monotonically with rank count
    eff = [r["parallel efficiency [%]"] for r in rows]
    assert eff == sorted(eff, reverse=True)


def test_partition_strategy(benchmark, results_dir):
    table = benchmark.pedantic(
        lambda: ablations.partition_strategy(rank_counts=(2, 4, 8)),
        rounds=1, iterations=1,
    )
    emit(results_dir, "ablation_partition", table)

    rows = table.as_dicts()
    # Morton bricks never exchange more than slabs at higher rank counts
    assert rows[-1]["morton/slab"] <= 1.0
    # and strictly win somewhere in the sweep
    assert any(row["morton/slab"] < 0.95 for row in rows)


def test_endpoint_ratio_sweep(benchmark, results_dir):
    table = benchmark.pedantic(
        lambda: ablations.endpoint_ratio(ratios=(2, 4), steps=4),
        rounds=1, iterations=1,
    )
    emit(results_dir, "ablation_ratio", table)

    rows = table.as_dicts()
    assert [row["ratio"] for row in rows] == ["2:1", "4:1"]
    for row in rows:
        assert row["sim ms/step"] > 0
        assert row["endpoint ms/step"] > 0
