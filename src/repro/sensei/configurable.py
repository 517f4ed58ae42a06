"""XML-configured analysis dispatch (paper Listing 1).

A SENSEI run is configured by an XML document::

    <sensei>
      <analysis type="catalyst" pipeline="pythonscript"
                filename="analysis.py" frequency="100" />
      <analysis type="histogram" mesh="mesh" array="pressure"
                bins="32" frequency="10" />
    </sensei>

``ConfigurableAnalysis`` parses this, instantiates the requested
back-end adaptors from a registry, and at each ``execute`` invokes the
ones whose frequency divides the current step.  Swapping analyses is an
XML edit — no recompilation of the simulation, the paper's key
flexibility claim.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from repro.parallel.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor


class ConfigError(ValueError):
    """Malformed SENSEI XML configuration."""


@dataclass(frozen=True)
class AnalysisSpec:
    """One <analysis .../> element."""

    type: str
    frequency: int
    enabled: bool
    attributes: dict

    @classmethod
    def from_element(cls, elem: ET.Element) -> "AnalysisSpec":
        attrs = dict(elem.attrib)
        atype = attrs.pop("type", None)
        if not atype:
            raise ConfigError("<analysis> element missing required 'type'")
        try:
            frequency = int(attrs.pop("frequency", "1"))
        except ValueError as exc:
            raise ConfigError(f"bad frequency on analysis {atype!r}") from exc
        if frequency < 1:
            raise ConfigError(f"frequency must be >= 1 on analysis {atype!r}")
        enabled = attrs.pop("enabled", "1") not in ("0", "false", "no")
        return cls(type=atype, frequency=frequency, enabled=enabled, attributes=attrs)


def parse_analysis_xml(source: str) -> list[AnalysisSpec]:
    """Parse XML text (or a path to an .xml file) into analysis specs."""
    text = source
    if not source.lstrip().startswith("<"):
        text = Path(source).read_text()
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"invalid SENSEI XML: {exc}") from exc
    if root.tag != "sensei":
        raise ConfigError(f"root element must be <sensei>, got <{root.tag}>")
    return [AnalysisSpec.from_element(e) for e in root.findall("analysis")]


class ConfigurableAnalysis(AnalysisAdaptor):
    """AnalysisAdaptor that fans out to XML-configured back ends."""

    def __init__(
        self,
        comm: Communicator,
        config: str,
        output_dir: str | Path = ".",
        extra_factories: dict | None = None,
    ):
        from repro.sensei.analyses import default_factories

        self.comm = comm
        self.output_dir = Path(output_dir)
        self.specs = [s for s in parse_analysis_xml(config) if s.enabled]
        factories = dict(default_factories())
        if extra_factories:
            factories.update(extra_factories)
        self.adaptors: list[tuple[AnalysisSpec, AnalysisAdaptor]] = []
        for spec in self.specs:
            factory = factories.get(spec.type)
            if factory is None:
                raise ConfigError(
                    f"unknown analysis type {spec.type!r}; known: "
                    f"{sorted(factories)}"
                )
            adaptor = factory(comm, spec.attributes, self.output_dir)
            self.adaptors.append((spec, adaptor))

    def execute(self, data: DataAdaptor) -> bool:
        """Run every due analysis; returns False if any requests stop."""
        step = data.get_data_time_step()
        keep_going = True
        for spec, adaptor in self.adaptors:
            if step % spec.frequency == 0:
                keep_going = adaptor.execute(data) and keep_going
        return keep_going

    def finalize(self) -> None:
        for _, adaptor in self.adaptors:
            adaptor.finalize()
