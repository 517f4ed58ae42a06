"""Microbenchmarks of the performance-critical kernels.

These are classic pytest-benchmark timings of the operations the
profiling-driven design cares about: SEM operator application,
gather-scatter, a full solver step, spectral resampling, rendering,
PNG encoding, BP marshaling, and the batched RBP3 codec round trip.
"""

import numpy as np
import pytest

from repro.adios.marshal import StepPayload, marshal_step
from repro.catalyst import RenderPipeline, RenderSpec
from repro.catalyst.contour import marching_tetrahedra
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case
from repro.parallel import SerialCommunicator
from repro.sem import BoxMesh, SEMOperators
from repro.sem.interp import resample_field
from repro.util.png import encode_png
from repro.vtkdata import DataArray, ImageData


@pytest.fixture(scope="module")
def ops():
    mesh = BoxMesh((4, 4, 4), order=7)
    return SEMOperators(mesh, SerialCommunicator())


@pytest.fixture(scope="module")
def field(ops):
    rng = np.random.default_rng(0)
    return rng.normal(size=ops.mesh.field_shape())


def test_stiffness_apply(benchmark, ops, field):
    benchmark(ops.stiffness_apply, field)


def test_gather_scatter(benchmark, ops, field):
    benchmark(ops.gs, field)


def test_physical_gradient(benchmark, ops, field):
    benchmark(ops.grad, field)


def test_spectral_resample(benchmark, ops, field):
    benchmark(resample_field, ops.mesh, field, 8)


def test_solver_step(benchmark):
    case = lid_cavity_case(reynolds=100, elements=2, order=5, dt=5e-3)
    solver = NekRSSolver(case, SerialCommunicator())
    solver.run(2)  # warm caches / ramp BDF order
    benchmark(solver.step)


def test_marching_tetrahedra(benchmark):
    g = np.linspace(-1, 1, 24)
    Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
    vol = np.sqrt(X**2 + Y**2 + Z**2) - 0.6
    benchmark(marching_tetrahedra, vol, 0.0)


def test_render_pipeline(benchmark):
    n = 16
    img = ImageData((n, n, n), spacing=(1 / (n - 1),) * 3)
    g = np.linspace(0, 1, n)
    Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
    img.add_array(DataArray("phi", (np.sqrt(
        (X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2
    )).ravel()))
    pipe = RenderPipeline(
        specs=[RenderSpec(kind="contour", array="phi", isovalue=0.3),
               RenderSpec(kind="slice", array="phi", axis="y")],
        width=256, height=256,
    )
    benchmark(pipe.render, img, 0, 0.0)


def test_png_encode(benchmark):
    rng = np.random.default_rng(0)
    ramp = np.linspace(0, 255, 512).astype(np.uint8)
    image = np.stack([np.tile(ramp, (512, 1))] * 3, axis=2)
    image += rng.integers(0, 8, size=image.shape, dtype=np.uint8)
    benchmark(encode_png, image)


def test_bp_marshal(benchmark):
    rng = np.random.default_rng(0)
    payload = StepPayload(
        step=1, time=0.1, rank=0,
        variables={f"f{i}": rng.normal(size=(64, 6, 6, 6)) for i in range(4)},
    )
    benchmark(marshal_step, payload)


@pytest.mark.perf
def test_rbp3_codec_roundtrip(benchmark):
    """One in transit step at the `rbc_intransit` payload shape: 64
    per-element 216-value fields through the temporal delta-rle codec,
    marshal + unmarshal (one batched encode / decode per frame)."""
    from repro.adios.marshal import unmarshal_step
    from repro.codec import CodecContext, CodecSpec

    x = np.linspace(-1.0, 1.0, 216)
    spec = CodecSpec.from_cli("delta-rle", "1e-3", temporal=True)
    enc, dec = CodecContext(), CodecContext()
    step = [0]

    def roundtrip():
        step[0] += 1
        t = 1e-3 * step[0]
        payload = StepPayload(
            step=step[0], time=t, rank=0,
            variables={
                f"block{b}/array/temperature": np.sin(3.0 * x + 0.1 * b + t)
                for b in range(64)
            },
        )
        return unmarshal_step(marshal_step(payload, codec=spec, context=enc),
                              context=dec)

    out = benchmark(roundtrip)
    assert len(out.variables) == 64
