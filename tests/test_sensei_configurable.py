"""Tests for SENSEI metadata, XML configuration, and dispatch."""

import pytest

from repro.parallel import SerialCommunicator
from repro.sensei import ConfigurableAnalysis, MeshMetadata, parse_analysis_xml
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.configurable import ConfigError
from repro.sensei.metadata import ArrayMetadata

PAPER_LISTING_1 = """
<sensei>
 <analysis type="catalyst" pipeline="pythonscript" filename="analysis.py"
  frequency="100" />
</sensei>
"""


class TestMetadata:
    def test_array_lookup(self):
        md = MeshMetadata(
            name="mesh", num_blocks=4, local_block_ids=(1,),
            num_points_local=10, num_cells_local=2,
            arrays=(ArrayMetadata("pressure", "point"),),
        )
        assert md.array("pressure").components == 1
        assert md.array_names == ("pressure",)
        with pytest.raises(KeyError):
            md.array("nope")

    def test_bad_association(self):
        with pytest.raises(ValueError):
            ArrayMetadata("x", "face")

    def test_bad_components(self):
        with pytest.raises(ValueError):
            ArrayMetadata("x", "point", 0)


class TestParseXML:
    def test_paper_listing_1_parses(self):
        specs = parse_analysis_xml(PAPER_LISTING_1)
        assert len(specs) == 1
        assert specs[0].type == "catalyst"
        assert specs[0].frequency == 100
        assert specs[0].attributes["pipeline"] == "pythonscript"
        assert specs[0].attributes["filename"] == "analysis.py"

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.xml"
        path.write_text(PAPER_LISTING_1)
        assert parse_analysis_xml(str(path))[0].type == "catalyst"

    def test_default_frequency(self):
        specs = parse_analysis_xml('<sensei><analysis type="histogram"/></sensei>')
        assert specs[0].frequency == 1

    def test_enabled_flag(self):
        specs = parse_analysis_xml(
            '<sensei><analysis type="histogram" enabled="0"/></sensei>'
        )
        assert not specs[0].enabled

    def test_missing_type_raises(self):
        with pytest.raises(ConfigError):
            parse_analysis_xml('<sensei><analysis frequency="5"/></sensei>')

    def test_bad_frequency_raises(self):
        with pytest.raises(ConfigError):
            parse_analysis_xml(
                '<sensei><analysis type="x" frequency="soon"/></sensei>'
            )

    def test_zero_frequency_raises(self):
        with pytest.raises(ConfigError):
            parse_analysis_xml('<sensei><analysis type="x" frequency="0"/></sensei>')

    def test_wrong_root_raises(self):
        with pytest.raises(ConfigError):
            parse_analysis_xml("<catalyst/>")

    def test_invalid_xml_raises(self):
        with pytest.raises(ConfigError):
            parse_analysis_xml("<sensei><analysis></sensei>")

    def test_empty_config_ok(self):
        assert parse_analysis_xml("<sensei></sensei>") == []


class _RecordingAnalysis(AnalysisAdaptor):
    def __init__(self):
        self.steps = []
        self.finalized = False

    def execute(self, data):
        self.steps.append(data.get_data_time_step())
        return True

    def finalize(self):
        self.finalized = True


class _StopAnalysis(AnalysisAdaptor):
    def execute(self, data):
        return False


class _FakeData:
    """Minimal DataAdaptor stand-in for dispatch tests."""

    def __init__(self, step):
        self._step = step

    def get_data_time_step(self):
        return self._step

    def get_data_time(self):
        return float(self._step)


def _factories(recorder=None):
    recorder = recorder or _RecordingAnalysis()
    return recorder, {
        "recorder": lambda comm, attrs, outdir: recorder,
        "stopper": lambda comm, attrs, outdir: _StopAnalysis(),
    }


class TestConfigurableAnalysis:
    def test_frequency_gating(self, comm):
        rec, factories = _factories()
        ca = ConfigurableAnalysis(
            comm,
            '<sensei><analysis type="recorder" frequency="3"/></sensei>',
            extra_factories=factories,
        )
        for step in range(1, 10):
            ca.execute(_FakeData(step))
        assert rec.steps == [3, 6, 9]

    def test_disabled_analysis_never_runs(self, comm):
        rec, factories = _factories()
        ca = ConfigurableAnalysis(
            comm,
            '<sensei><analysis type="recorder" enabled="no"/></sensei>',
            extra_factories=factories,
        )
        ca.execute(_FakeData(1))
        assert rec.steps == []
        assert ca.active_types == []

    def test_unknown_type_raises(self, comm):
        with pytest.raises(ConfigError, match="unknown analysis"):
            ConfigurableAnalysis(
                comm, '<sensei><analysis type="warp-drive"/></sensei>'
            )

    @pytest.mark.parametrize("atype", [
        "autocorrelation", "binning", "slice", "history_points",
        "sst", "vtkposthocio",
    ])
    def test_one_type_name_per_analysis(self, comm, atype):
        """Deleted analyses and the two alias names are unknown types,
        and the error lists the eight that remain."""
        with pytest.raises(ConfigError) as err:
            ConfigurableAnalysis(
                comm, f'<sensei><analysis type="{atype}"/></sensei>'
            )
        known = ["PosthocIO", "adios", "catalyst", "compressed_io",
                 "divergence_guard", "histogram", "particles", "steady_state"]
        assert str(err.value) == (
            f"unknown analysis type {atype!r}; known: {known}"
        )

    def test_stop_request_propagates(self, comm):
        _, factories = _factories()
        ca = ConfigurableAnalysis(
            comm,
            '<sensei><analysis type="stopper"/></sensei>',
            extra_factories=factories,
        )
        assert ca.execute(_FakeData(1)) is False

    def test_finalize_fans_out(self, comm):
        rec, factories = _factories()
        ca = ConfigurableAnalysis(
            comm,
            '<sensei><analysis type="recorder"/></sensei>',
            extra_factories=factories,
        )
        ca.finalize()
        assert rec.finalized

    def test_multiple_analyses_dispatch_independently(self, comm):
        rec1, rec2 = _RecordingAnalysis(), _RecordingAnalysis()
        factories = {
            "a1": lambda c, a, o: rec1,
            "a2": lambda c, a, o: rec2,
        }
        ca = ConfigurableAnalysis(
            comm,
            '<sensei><analysis type="a1" frequency="2"/>'
            '<analysis type="a2" frequency="3"/></sensei>',
            extra_factories=factories,
        )
        for step in range(1, 7):
            ca.execute(_FakeData(step))
        assert rec1.steps == [2, 4, 6]
        assert rec2.steps == [3, 6]

    def test_runtime_swappability(self, comm):
        """The paper's headline: swap the analysis by editing XML only."""
        rec, factories = _factories()
        for xml_type in ("recorder", "stopper"):
            ca = ConfigurableAnalysis(
                comm,
                f'<sensei><analysis type="{xml_type}"/></sensei>',
                extra_factories=factories,
            )
            assert ca.active_types == [xml_type]
