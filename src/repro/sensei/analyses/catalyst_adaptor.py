"""The Catalyst AnalysisAdaptor: in situ image rendering.

The paper's in situ configuration: "data is copied from the GPU to the
CPU and subsequently passed to SENSEI, which employs the Catalyst
Adaptor for rendering tasks."  Here the adaptor

1. requests the ``uniform`` mesh (spectrally resampled ImageData
   fragments, one per element) and the arrays its pipeline needs —
   the step that pulls data across the device boundary,
2. gathers the fragments to rank 0 and assembles the global volume
   (the paper's endpoint renders a global view the same way),
3. runs the render pipeline — a "pythonscript" file, exactly like
   ParaView Catalyst, or a declarative :class:`RenderPipeline` —
4. writes the resulting PNGs and accounts their bytes (the
   storage-economy numerator).

``residency="device"`` is the same four steps with the copy moved to
the end: step 1 takes raw views of device buffers from
``data.device_uniform_fragments`` (nothing crosses PCIe), steps 2–3 run
the same render code with the device's arena lending every buffer, and
the finished frame is the one metered D→H before step 4.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.catalyst.pipeline import RenderPipeline, RenderSpec, load_pipeline_script
from repro.observe.session import get_telemetry
from repro.occa.device import DeviceMemory
from repro.parallel.comm import Communicator
from repro.perf.arena import get_arena
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor
from repro.util.png import encode_png
from repro.vtkdata.arrays import DataArray
from repro.vtkdata.dataset import ImageData


def local_uniform_fragments(
    data: DataAdaptor,
    mesh_name: str,
    arrays: tuple[str, ...],
) -> tuple[tuple, np.ndarray, np.ndarray, list]:
    """This rank's uniform-mesh fragments plus the global grid metadata.

    Returns ``(global_dims, global_origin, global_spacing, fragments)``
    with fragments as ``(origin, dims, {name: volume})`` — the unit of
    work both the gather path and the sort-last compositor consume.
    """
    meta = None
    for i in range(data.get_number_of_meshes()):
        m = data.get_mesh_metadata(i)
        if m.name == mesh_name:
            meta = m
            break
    if meta is None:
        raise KeyError(f"data adaptor provides no mesh named {mesh_name!r}")
    gdims = tuple(meta.extra["global_dims"])
    gorigin = np.asarray(meta.extra["origin"], dtype=float)
    gspacing = np.asarray(meta.extra["spacing"], dtype=float)

    mesh = data.get_mesh(mesh_name)
    for name in arrays:
        data.add_array(mesh, mesh_name, "point", name)

    fragments = []
    for block in mesh.local_blocks():
        if not isinstance(block, ImageData):
            raise TypeError(
                f"mesh {mesh_name!r} blocks must be ImageData fragments"
            )
        payload = {
            name: block.as_volume(name) for name in arrays
        }
        fragments.append((block.origin, block.dims, payload))
    return gdims, gorigin, gspacing, fragments


def assemble_uniform_volume(
    comm: Communicator,
    arrays: tuple[str, ...],
    gdims,
    gorigin,
    gspacing,
    fragments,
    arena=None,
) -> tuple[ImageData | None, list]:
    """Gather every rank's fragments and assemble the global volume.

    Takes what :func:`local_uniform_fragments` returns; gives ``(image,
    borrowed)`` on rank 0 and ``(None, [])`` elsewhere.  With an `arena`
    the volumes are borrowed from it and `borrowed` is what the caller
    releases once it is done with `image`; without one they are fresh,
    caller-owned arrays.  Lattice points no fragment covers are zero
    either way.
    """
    gathered = comm.gather(fragments)
    if not comm.is_root:
        return None, []

    shape = tuple(gdims)[::-1]  # volumes are [z, y, x]
    volumes = {
        name: np.zeros(shape) if arena is None else arena.borrow(shape)
        for name in arrays
    }
    borrowed = [] if arena is None else list(volumes.values())
    for vol in borrowed:
        vol.fill(0.0)
    for chunk in gathered:
        for origin, dims, payload in chunk:
            off = np.rint((np.asarray(origin) - gorigin) / gspacing).astype(int)
            ox, oy, oz = off
            fx, fy, fz = dims
            for name, vol in payload.items():
                volumes[name][oz : oz + fz, oy : oy + fy, ox : ox + fx] = vol
    image = ImageData(dims=gdims, origin=tuple(gorigin), spacing=tuple(gspacing))
    for name, vol in volumes.items():
        image.add_array(DataArray(name, vol.ravel()))
    return image, borrowed


def gather_uniform_volume(
    comm: Communicator,
    data: DataAdaptor,
    mesh_name: str,
    arrays: tuple[str, ...],
) -> ImageData | None:
    """Assemble the global uniform volume on rank 0 (None elsewhere).

    Expects the mesh's metadata ``extra`` to carry ``global_dims``,
    ``origin`` and ``spacing``, and its blocks to be ImageData
    fragments whose origins locate them in the global grid.  The
    returned arrays are fresh and the caller's to keep.
    """
    image, _ = assemble_uniform_volume(
        comm, arrays, *local_uniform_fragments(data, mesh_name, arrays)
    )
    return image


def _check_options(compositing: str, residency: str, declarative: bool) -> None:
    """Validate a catalyst analysis's ``compositing`` and ``residency``."""
    if compositing not in ("gather", "sort_last"):
        raise ValueError(
            f"compositing must be gather|sort_last, got {compositing!r}"
        )
    if residency not in ("host", "device"):
        raise ValueError(f"residency must be host|device, got {residency!r}")
    if compositing != "gather" and not declarative:
        raise ValueError(
            "sort-last compositing requires a declarative RenderPipeline "
            "(the builtin pipeline; pythonscript renders the assembled "
            "volume only)"
        )
    if residency == "device" and not declarative:
        raise ValueError(
            "residency='device' requires a declarative RenderPipeline "
            "(the builtin pipeline; pythonscript pipelines expect host "
            "arrays)"
        )


class CatalystAnalysisAdaptor(AnalysisAdaptor):
    """Render images from the simulation's uniform mesh."""

    def __init__(
        self,
        comm: Communicator,
        render,                      # callable(image, step, time) -> [(name, rgb)]
        arrays: tuple[str, ...],
        mesh_name: str = "uniform",
        output_dir: Path | str = ".",
        compositing: str = "gather",
        residency: str = "host",
    ):
        _check_options(compositing, residency, isinstance(render, RenderPipeline))
        self.comm = comm
        if isinstance(render, RenderPipeline):
            self.pipeline: RenderPipeline | None = render
            self.render = render.render
        else:
            self.pipeline = None
            self.render = render
        self.compositing = compositing
        self.residency = residency
        self.arrays = tuple(arrays)
        self.mesh_name = mesh_name
        self.output_dir = Path(output_dir)
        self.images_written = 0
        self.image_bytes = 0
        metrics = get_telemetry().metrics
        metrics.counter(
            "repro_catalyst_images_total", "PNG images rendered in situ",
            read=lambda: self.images_written,
        )
        metrics.counter(
            "repro_catalyst_image_bytes_total", "PNG bytes written in situ",
            read=lambda: self.image_bytes,
        )
        self.peak_staging_bytes = 0
        #: optional live-serving hook, ``publisher(name, step, time,
        #: png_bytes)`` — called with the *exact* bytes written to disk
        #: (encode-once), so streamed frames are byte-identical to the
        #: files.  Set by :func:`repro.serve.attach_serving`.
        self.publisher = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_xml_attributes(cls, comm: Communicator, attrs: dict, output_dir: Path):
        """Build from <analysis type="catalyst" .../> attributes.

        ``pipeline="pythonscript" filename="script.py"`` loads a
        ParaView-Catalyst-style script; otherwise a declarative
        pipeline is built from `array`, `isovalue`, `slice_axis`, ...
        """
        mesh_name = attrs.get("mesh", "uniform")
        pipeline_kind = attrs.get("pipeline", "builtin")
        compositing = attrs.get("compositing", "gather")
        residency = attrs.get("residency", "host")
        if pipeline_kind == "pythonscript":
            # checked before the script is loaded, with what the
            # constructor is handed below
            _check_options(compositing, residency, declarative=False)
            filename = attrs.get("filename")
            if not filename:
                raise ValueError("pythonscript pipeline needs filename=...")
            render = load_pipeline_script(filename)
            arrays = tuple(
                a.strip()
                for a in attrs.get("arrays", "pressure").split(",")
                if a.strip()
            )
            return cls(
                comm, render, arrays, mesh_name, output_dir,
                compositing=compositing, residency=residency,
            )

        array = attrs.get("array", "pressure")
        color_array = attrs.get("color_array", array)
        specs = []
        if "isovalue" in attrs:
            specs.append(
                RenderSpec(
                    kind="contour",
                    array=array,
                    isovalue=float(attrs["isovalue"]),
                    color_array=color_array,
                    colormap=attrs.get("colormap", "viridis"),
                )
            )
        specs.append(
            RenderSpec(
                kind="slice",
                array=color_array,
                axis=attrs.get("slice_axis", "y"),
                position=float(attrs["slice_position"])
                if "slice_position" in attrs
                else None,
                colormap=attrs.get("colormap", "viridis"),
            )
        )
        pipeline = RenderPipeline(
            specs=specs,
            width=int(attrs.get("width", "512")),
            height=int(attrs.get("height", "512")),
            name=attrs.get("name", "catalyst"),
        )
        arrays = tuple(dict.fromkeys([array, color_array]))
        return cls(
            comm, pipeline, arrays, mesh_name, output_dir,
            compositing=compositing, residency=residency,
        )

    # -- execution -----------------------------------------------------------
    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        time = data.get_data_time()
        tel = get_telemetry()
        # the staging of the data — local fragments for sort-last
        # compositing, else the volume gathered to rank 0 — is what the
        # live timeline calls the `composite` stage
        sort_last = self.compositing == "sort_last" and self.comm.size > 1
        with tel.tracer.span(
            "catalyst.fragments" if sort_last else "catalyst.gather",
            step=step, stage="composite", residency=self.residency,
        ):
            # residency picks where the fragments live and which pool
            # lends every buffer rendered from them; the render code
            # below is the same either way
            if self.residency == "device":
                device = getattr(data, "device", None)
                fetch = getattr(data, "device_uniform_fragments", None)
                if device is None or fetch is None:
                    raise TypeError(
                        "residency='device' requires a device-capable data "
                        "adaptor (one exposing its OCCA device and "
                        "device_uniform_fragments)"
                    )
                gdims, gorigin, gspacing, fragments = fetch(self.arrays)
                arena = device.raw_view()
            else:
                device = None
                gdims, gorigin, gspacing, fragments = local_uniform_fragments(
                    data, self.mesh_name, self.arrays
                )
                arena = get_arena()
            if sort_last:
                staged_bytes = sum(
                    vol.nbytes
                    for _origin, _dims, payload in fragments
                    for vol in payload.values()
                )
            else:
                # a pythonscript render is handed fresh arrays it may
                # keep, and allocates for itself; the pipeline borrows
                lend = {} if self.pipeline is None else {"arena": arena}
                image, volumes = assemble_uniform_volume(
                    self.comm, self.arrays, gdims, gorigin, gspacing,
                    fragments, **lend,
                )
                if image is None:
                    return True  # only the root holds the volume and renders
                staged_bytes = image.nbytes
        if device is None:
            # host residency stages the resampled working set in
            # host memory; device residency keeps it on the GPU
            self.peak_staging_bytes = max(self.peak_staging_bytes, staged_bytes)
        tel.memory.observe("catalyst.framebuffer", staged_bytes)
        if sort_last:
            # render local fragments, composite the framebuffers
            from repro.catalyst.compositor import render_composited

            with tel.tracer.span(
                "catalyst.render", step=step, stage="render",
                compositing=self.compositing,
            ):
                outputs = render_composited(
                    self.comm,
                    self.pipeline,
                    fragments,
                    gdims,
                    gorigin,
                    gspacing,
                    step,
                    time,
                    arena=arena,
                )
        else:
            try:
                with tel.tracer.span("catalyst.render", step=step, stage="render"):
                    outputs = self.render(image, step, time, **lend)
            finally:
                arena.release(*volumes)
        if outputs is not None:
            self.output_dir.mkdir(parents=True, exist_ok=True)
            with tel.tracer.span("catalyst.write", step=step):
                written = 0
                for name, rgb in outputs:
                    rgb = self._to_host_frame(rgb, device, step, tel)
                    with tel.tracer.span("catalyst.encode", step=step, stage="encode"):
                        data = encode_png(rgb)
                    with tel.tracer.span("catalyst.deliver", step=step, stage="deliver"):
                        path = self.output_dir / f"{name}_{step:06d}.png"
                        path.write_bytes(data)
                        written += len(data)
                        self.images_written += 1
                        if self.publisher is not None:
                            self.publisher(name, step, time, data)
                self.image_bytes += written
        return True

    def _to_host_frame(self, rgb: np.ndarray, device, step: int, tel) -> np.ndarray:
        """Materialize one frame on the host for encoding.

        Host residency (`device` is None): the frame already is a host
        array.  Device residency: `rgb` is device memory, and copying
        it out is the *single* metered D2H of the step — the composited
        tile, a few hundred KB, where the host path shipped the full
        resampled working set — traced as ``catalyst.d2h``.
        """
        if device is None:
            return rgb
        frame = DeviceMemory(device, rgb)
        with tel.tracer.span("catalyst.d2h", step=step, nbytes=frame.nbytes):
            host = frame.copy_to_host()
        self.peak_staging_bytes = max(self.peak_staging_bytes, host.nbytes)
        return host
