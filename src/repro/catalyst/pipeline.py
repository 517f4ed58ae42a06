"""Render pipelines and the "pythonscript" hook.

ParaView Catalyst drives rendering from a user-supplied Python script;
``load_pipeline_script`` reproduces that: the script either defines a
``render(image_data, step, time) -> [(name, rgb_array), ...]``
function, or assigns a :class:`RenderPipeline` to a module-level
``PIPELINE`` variable.  :class:`RenderPipeline` is the declarative
path: a list of :class:`RenderSpec` passes (isosurfaces and slices)
composited into one image per spec group.
"""

from __future__ import annotations

import runpy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.catalyst.camera import Camera
from repro.catalyst.colormaps import apply_colormap
from repro.catalyst.contour import marching_tetrahedra
from repro.catalyst.rasterizer import Rasterizer
from repro.catalyst.slicefilter import axis_slice
from repro.perf.arena import get_arena
from repro.vtkdata.dataset import ImageData


@dataclass(frozen=True)
class RenderSpec:
    """One visualization pass.

    kind "contour": isosurface of `array` at `isovalue`, colored by
    `color_array` (default: the same array).
    kind "slice": axis-aligned plane `axis` = `position`, pseudocolored.
    The colour range is the data's: the colored array's min and max.
    """

    kind: str
    array: str
    isovalue: float | None = None
    axis: str = "y"
    position: float | None = None
    color_array: str | None = None
    colormap: str = "viridis"

    def __post_init__(self):
        if self.kind not in ("contour", "slice"):
            raise ValueError(f"RenderSpec kind must be contour|slice, got {self.kind}")
        if self.kind == "contour" and self.isovalue is None:
            raise ValueError("contour spec requires an isovalue")


#: the direction the camera looks from until a steering command orbits it
VIEW_DIRECTION = (1.0, -1.6, 0.9)


@dataclass
class RenderPipeline:
    """Declarative multi-pass renderer for ImageData volumes.

    Every frame carries step/time labels and a colorbar, as production
    in situ imagery does (the state is gone afterwards).
    """

    specs: list[RenderSpec]
    width: int = 512
    height: int = 512
    name: str = "render"
    view_direction: tuple[float, float, float] = field(
        default=VIEW_DIRECTION, init=False
    )

    def render(
        self, image: ImageData, step: int, time: float, arena=None
    ) -> list[tuple[str, np.ndarray]]:
        """Produce [(image_name, (H, W, 3) uint8), ...] for this state.

        `arena` lends the framebuffers (default: this rank's host
        arena; a device's ``raw_view()`` when `image` lives there).
        """
        outputs: list[tuple[str, np.ndarray]] = []
        contours = [s for s in self.specs if s.kind == "contour"]
        slices = [s for s in self.specs if s.kind == "slice"]
        if contours:
            frame = self._render_contours(
                image, contours, get_arena() if arena is None else arena
            )
            self._annotate(frame, image, contours[0], step, time)
            outputs.append((f"{self.name}_surface", frame))
        for i, spec in enumerate(slices):
            frame = self._render_slice(image, spec)
            self._annotate(frame, image, spec, step, time)
            outputs.append((f"{self.name}_slice{i}_{spec.array}", frame))
        return outputs

    def _annotate(
        self,
        frame: np.ndarray,
        image: ImageData,
        spec: RenderSpec,
        step: int,
        time: float,
    ) -> None:
        values = image.point_data[spec.color_array or spec.array].values
        draw_annotations(
            frame, spec, float(np.nanmin(values)), float(np.nanmax(values)),
            step, time,
        )

    # -- passes -------------------------------------------------------------
    def _bounds(self, image: ImageData) -> np.ndarray:
        dims = np.asarray(image.dims, dtype=float)
        org = np.asarray(image.origin, dtype=float)
        sp = np.asarray(image.spacing, dtype=float)
        hi = org + (dims - 1) * sp
        return np.stack([org, hi], axis=1)

    def _render_contours(
        self, image: ImageData, specs: list[RenderSpec], arena
    ) -> np.ndarray:
        camera = Camera.fit_bounds(
            self._bounds(image),
            direction=self.view_direction,
            width=self.width,
            height=self.height,
        )
        raster = Rasterizer(self.width, self.height, arena=arena)
        for spec in specs:
            vol = image.as_volume(spec.array)
            aux = (
                image.as_volume(spec.color_array)
                if spec.color_array and spec.color_array != spec.array
                else None
            )
            verts, faces, vals = marching_tetrahedra(
                vol,
                spec.isovalue,
                origin=image.origin,
                spacing=image.spacing,
                aux=aux,
            )
            if len(faces) == 0:
                continue
            colors = apply_colormap(vals, name=spec.colormap)
            raster.draw_mesh(camera, verts, faces, colors)
        raster.draw_background_gradient()
        # the frame escapes with the caller; the z-buffer goes back to
        # the arena pool (no full-frame copy)
        frame = raster.image()
        raster.close(keep_image=True)
        return frame

    def _render_slice(self, image: ImageData, spec: RenderSpec) -> np.ndarray:
        bounds = self._bounds(image)
        world_axis = {"x": 0, "y": 1, "z": 2}[spec.axis]
        position = (
            spec.position
            if spec.position is not None
            else float(bounds[world_axis].mean())
        )
        plane = axis_slice(
            image.as_volume(spec.array),
            spec.axis,
            position,
            origin=image.origin,
            spacing=image.spacing,
        )
        rgb = apply_colormap(plane, name=spec.colormap)
        # orient: rows are the slower world axis (z for x/y slices);
        # flip so "up" in the image is +axis
        rgb = rgb[::-1]
        return _resize_nearest(rgb, self.height, self.width)


def draw_annotations(
    frame: np.ndarray,
    spec: RenderSpec,
    vmin: float,
    vmax: float,
    step: int,
    time: float,
) -> None:
    """Burn the step label and colorbar into a finished frame.

    The value range is passed in explicitly so distributed renderers
    (``repro.catalyst.compositor``) can supply globally reduced bounds
    and still produce byte-identical annotations.
    """
    from repro.catalyst.annotations import draw_colorbar, draw_step_label

    draw_step_label(frame, step, time)
    if frame.shape[1] >= 64:
        draw_colorbar(frame, vmin, vmax, spec.colormap)


def _resize_nearest(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor resize to the pipeline's output resolution."""
    h, w = img.shape[:2]
    rows = np.clip((np.arange(height) * h) // height, 0, h - 1)
    cols = np.clip((np.arange(width) * w) // width, 0, w - 1)
    # columns first, on the small image; then whole output rows are
    # copied at once (an ``np.ix_`` gather is ~25x slower at 128²)
    return img.take(cols, axis=1).take(rows, axis=0)


def load_pipeline_script(path):
    """Load a Catalyst "pythonscript" pipeline.

    The script must define ``render(image_data, step, time)`` or a
    module-level ``PIPELINE`` RenderPipeline.  Returns a callable with
    the ``render`` signature.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"pipeline script not found: {path}")
    namespace = runpy.run_path(str(path))
    if "render" in namespace and callable(namespace["render"]):
        return namespace["render"]
    pipeline = namespace.get("PIPELINE")
    if isinstance(pipeline, RenderPipeline):
        return pipeline.render
    raise ValueError(
        f"{path} must define render(image_data, step, time) or PIPELINE"
    )
