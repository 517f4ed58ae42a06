"""Catalyst-style software visualization pipeline.

The paper's Catalyst AnalysisAdaptor renders images with ParaView
(OSPRay backend); this package is the from-scratch equivalent: filters
(isosurface via marching tetrahedra, plane slices) feeding
a z-buffered triangle rasterizer with diffuse shading and perceptual
colormaps, writing real PNG files.

Everything operates on plain NumPy volumes/vertex arrays so it can run
at the endpoint of either the in situ or the in transit workflow.
"""

from repro.catalyst.colormaps import apply_colormap, colormap_names
from repro.catalyst.camera import Camera
from repro.catalyst.rasterizer import Rasterizer
from repro.catalyst.contour import marching_tetrahedra
from repro.catalyst.slicefilter import axis_slice
from repro.catalyst.pipeline import RenderPipeline, RenderSpec, load_pipeline_script
from repro.catalyst.annotations import draw_colorbar, draw_step_label, draw_text

__all__ = [
    "apply_colormap",
    "colormap_names",
    "Camera",
    "Rasterizer",
    "marching_tetrahedra",
    "axis_slice",
    "RenderPipeline",
    "RenderSpec",
    "load_pipeline_script",
    "draw_text",
    "draw_colorbar",
    "draw_step_label",
]
