"""Regenerate Figure 2: pb146 time-to-solution at 280/560/1120 ranks.

Paper shape asserted, at every rank count: Original < Checkpointing,
Original < Catalyst, Catalyst < 1.25 x Checkpointing (the paper's
"slight" Catalyst-vs-Checkpointing gap) and a Catalyst overhead under
40 %.  The paper's Checkpointing <= Catalyst is not asserted here; it
belongs with the modeled figures' claim assertions (ROADMAP item 2(c)).
"""

from conftest import MEASURE_KWARGS, emit

from repro.bench import fig2


def test_fig2_time_to_solution(benchmark, pb146_measured, results_dir):
    table = benchmark.pedantic(
        lambda: fig2.run(measure_kwargs=MEASURE_KWARGS),
        rounds=3, iterations=1,
    )
    emit(results_dir, "fig2_time_to_solution", table)

    for row in table.as_dicts():
        original = row["original [s]"]
        ckpt = row["checkpointing [s]"]
        catalyst = row["catalyst [s]"]
        assert original < ckpt, f"checkpointing must cost more: {row}"
        assert original < catalyst, f"catalyst must cost more: {row}"
        # in situ overhead "almost mirrors" checkpointing (paper wording):
        # catalyst within ~25% of checkpointing
        assert catalyst < 1.25 * ckpt, f"catalyst overhead too large: {row}"
        assert row["catalyst overhead [%]"] < 40.0


def test_fig2_strong_scaling_direction(pb146_measured, results_dir):
    """More ranks -> less wall time for the fixed-size pb146 problem."""
    table = fig2.run(measure_kwargs=MEASURE_KWARGS)
    originals = [row["original [s]"] for row in table.as_dicts()]
    assert originals == sorted(originals, reverse=True)
