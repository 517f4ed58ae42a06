"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.case == "cavity"
        assert args.ranks == 2
        assert args.device == "cuda-sim"

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig9"])

    def test_render_requires_case(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "some.fld"])


class TestInfo:
    def test_prints_machines(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Polaris" in out
        assert "JUWELS Booster" in out
        assert "A100" in out


class TestRun:
    def test_cavity_run_with_config(self, tmp_path, capsys):
        config = tmp_path / "sensei.xml"
        config.write_text(
            '<sensei><analysis type="histogram" array="pressure" '
            'bins="4" frequency="2"/></sensei>'
        )
        rc = main([
            "run", "--case", "cavity", "--ranks", "1", "--steps", "2",
            "--order", "3", "--config", str(config),
            "--output", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cavity" in out
        assert (tmp_path / "out" / "histogram_pressure.txt").exists()

    def test_inject_compositing_targets_catalyst_only(self):
        from repro.cli import _inject_compositing

        xml = (
            '<sensei>'
            '<analysis type="catalyst" array="pressure" isovalue="0.1"/>'
            '<analysis type="histogram" array="pressure" bins="4"/>'
            '</sensei>'
        )
        out = _inject_compositing(xml, "sort_last")
        assert out.count('compositing="sort_last"') == 1
        assert 'type="histogram" array="pressure" bins="4" compositing' not in out

    def test_run_with_compositing_flag(self, tmp_path, capsys):
        config = tmp_path / "sensei.xml"
        config.write_text(
            '<sensei><analysis type="catalyst" mesh="uniform" '
            'array="velocity_magnitude" isovalue="0.2" slice_axis="y" '
            'width="64" height="64" frequency="2"/></sensei>'
        )
        rc = main([
            "run", "--case", "cavity", "--ranks", "2", "--steps", "2",
            "--order", "3", "--config", str(config),
            "--compositing", "sort_last",
            "--output", str(tmp_path / "out"),
        ])
        assert rc == 0
        pngs = list((tmp_path / "out").glob("*.png"))
        assert len(pngs) == 2  # surface + slice at step 2

    def test_inject_residency_targets_catalyst_only(self):
        from repro.cli import _inject_residency

        xml = (
            '<sensei>'
            '<analysis type="catalyst" array="pressure" isovalue="0.1"/>'
            '<analysis type="histogram" array="pressure" bins="4"/>'
            '</sensei>'
        )
        out = _inject_residency(xml, "device")
        assert out.count('residency="device"') == 1
        assert 'type="histogram" array="pressure" bins="4" residency' not in out

    def test_insitu_alias_with_device_residency(self, tmp_path, capsys):
        config = tmp_path / "sensei.xml"
        config.write_text(
            '<sensei><analysis type="catalyst" mesh="uniform" '
            'array="velocity_magnitude" isovalue="0.2" slice_axis="y" '
            'width="64" height="64" frequency="2"/></sensei>'
        )
        rc = main([
            "insitu", "--case", "cavity", "--ranks", "2", "--steps", "2",
            "--order", "3", "--config", str(config),
            "--compositing", "sort_last", "--residency", "device",
            "--output", str(tmp_path / "out"),
        ])
        assert rc == 0
        pngs = list((tmp_path / "out").glob("*.png"))
        assert len(pngs) == 2  # surface + slice at step 2

    @pytest.mark.parametrize("scheme", ["binary_swap", "direct_send"])
    def test_rejects_a_compositing_algorithm(self, capsys, scheme):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--compositing", scheme])
        err = capsys.readouterr().err
        assert "--compositing" in err and "gather" in err and "sort_last" in err

    def test_rejects_unknown_residency(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--residency", "gpu"])
        err = capsys.readouterr().err
        assert "--residency" in err and "host" in err and "device" in err

    def test_run_with_par_override(self, tmp_path, capsys):
        par = tmp_path / "case.par"
        par.write_text("[GENERAL]\nnumSteps = 1\npolynomialOrder = 2\n")
        rc = main([
            "run", "--case", "cavity", "--ranks", "1",
            "--par", str(par), "--output", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert "1 steps" in capsys.readouterr().out


class TestRenderCommand:
    def test_render_checkpoint(self, tmp_path, capsys):
        from repro.cli import _build_case
        from repro.nekrs import NekRSSolver
        from repro.nekrs.checkpoint import write_checkpoint
        from repro.parallel import SerialCommunicator

        # default cavity case so `render --case cavity` rebuilds the
        # exact same mesh
        case = _build_case("cavity", None, None, None)
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(1)
        path, _ = write_checkpoint(
            tmp_path, case.name, 1, solver.time, 0, 1,
            {"velocity_x": solver.u, "velocity_y": solver.v,
             "velocity_z": solver.w, "pressure": solver.p},
        )
        rc = main([
            "render", str(path), "--case", "cavity",
            "--array", "pressure", "--size", "96",
            "--output", str(tmp_path / "imgs"),
        ])
        assert rc == 0
        pngs = list((tmp_path / "imgs").glob("*.png"))
        assert len(pngs) == 1
        assert "wrote" in capsys.readouterr().out

    def test_render_shape_mismatch_exits(self, tmp_path):
        from repro.cli import _build_case
        from repro.nekrs import NekRSSolver
        from repro.nekrs.checkpoint import write_checkpoint
        from repro.parallel import SerialCommunicator

        case = _build_case("cavity", 1, 2, None)  # order 2
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(1)
        path, _ = write_checkpoint(
            tmp_path, case.name, 1, solver.time, 0, 1,
            {"velocity_x": solver.u, "velocity_y": solver.v,
             "velocity_z": solver.w, "pressure": solver.p},
        )
        with pytest.raises(SystemExit, match="does not match"):
            main([
                "render", str(path), "--case", "cavity",
                "--array", "pressure", "--output", str(tmp_path / "i"),
            ])


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.case == "cavity"
        assert args.port is None          # loopback mode by default
        assert args.history == 32
        assert args.max_clients is None

    def test_loopback_smoke(self, tmp_path, capsys):
        """`repro serve` without --port runs the case against an
        in-process loopback viewer and reports the hub accounting."""
        rc = main([
            "serve", "--case", "cavity", "--ranks", "2", "--steps", "3",
            "--order", "3", "--output", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "case cavity-re100: 3 steps" in out
        assert "loopback client received 3 frames" in out
        assert "3 frames published" in out
        assert "0 stalls" in out

    def test_http_smoke(self, tmp_path, capsys):
        """`repro serve --port 0` binds an ephemeral HTTP port, runs,
        and shuts the server down cleanly."""
        rc = main([
            "serve", "--case", "cavity", "--ranks", "1", "--steps", "2",
            "--order", "3", "--port", "0",
            "--output", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving on http://127.0.0.1:" in out
        assert "POST /steer" in out
        assert "case cavity-re100: 2 steps" in out


class TestInTransit:
    _SMALL = ["--steps", "2", "--elements", "2", "--size", "32",
              "--mode", "checkpoint"]

    def test_fleet_switch_is_gone(self, capsys):
        """There is one endpoint topology, so nothing selects it."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["intransit", "--fleet"])
        assert "unrecognized arguments: --fleet" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--relays", "2"],
        ["intransit", "--autoscale"],
        ["intransit", "--initial-active", "1"],
    ])
    def test_elasticity_flags_are_gone(self, argv, capsys):
        """One serving hub and a fixed endpoint fleet: nothing sizes
        either at run time."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_default_run_prints_the_fleet_summary(self, tmp_path, capsys):
        rc = main(["intransit", "--ranks", "3", *self._SMALL,
                   "--output", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "in transit: 2 sim ranks + 1 endpoint ranks" in out
        assert "2 steps committed" in out and "0 crash(es) detected" in out
        assert len(list((tmp_path / "checkpoint").glob("*.vtu"))) == 4

    def test_fleet_flags_apply_on_their_own(self, tmp_path, capsys, monkeypatch):
        """--lease-timeout used to be read only when --fleet was also
        given."""
        import repro.insitu
        from repro.fleet import FleetConfig

        runners = []

        class Recording(repro.insitu.InTransitRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

        monkeypatch.setattr(repro.insitu, "InTransitRunner", Recording)
        rc = main(["intransit", "--ranks", "6", "--ratio", "2", *self._SMALL,
                   "--lease-timeout", "1.5", "--output", str(tmp_path)])
        assert rc == 0
        (runner,) = runners
        assert runner.fleet == FleetConfig(lease_timeout=1.5)
        coord = runner.last_coordinator
        assert coord.membership.lease_timeout == 1.5
        out = capsys.readouterr().out
        assert "in transit: 4 sim ranks + 2 endpoint ranks" in out
        assert "2 steps committed" in out
