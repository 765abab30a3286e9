"""Unit tests for figure-series extraction and the CLI."""

import numpy as np
import pytest

from repro.analysis.figures import (
    CriterionSweep,
    fig2_series,
    fig3_series,
    fig4_composition,
    render_series,
    to_csv,
)
from repro.cli import build_parser, main
from repro.core.pruning import PruningConfig, instrument_model
from repro.core.training import fit
from repro.models import VGG


@pytest.fixture(scope="module")
def handle_and_loader(tiny_dataset):
    from repro.nn.data import DataLoader

    train, test = tiny_dataset.splits()
    train_loader = DataLoader(train, batch_size=16, shuffle=True, seed=3)
    test_loader = DataLoader(test, batch_size=16)
    model = VGG(num_classes=4, width_multiplier=0.06, seed=0)
    fit(model, train_loader, epochs=5, lr=0.05)
    return instrument_model(model, PruningConfig.disabled(5)), test_loader


class TestFig2Series:
    def test_structure(self, handle_and_loader):
        handle, loader = handle_and_loader
        sweep = fig2_series(handle, loader, ratios=[0.2, 0.6])
        assert sweep.ratios == [0.2, 0.6]
        assert set(sweep.accuracy) == {"attention", "random", "inverse"}
        for accs in sweep.accuracy.values():
            assert len(accs) == 2

    def test_restores_state(self, handle_and_loader):
        handle, loader = handle_and_loader
        fig2_series(handle, loader, ratios=[0.5])
        for _, pruner in handle.pruners:
            assert pruner.channel_ratio == 0.0
            assert pruner.criterion_name == "attention"

    def test_target_block_selection(self, handle_and_loader):
        handle, loader = handle_and_loader
        sweep = fig2_series(handle, loader, ratios=[0.3], target_block=0,
                            criteria=("attention",))
        assert "attention" in sweep.accuracy

    def test_gap_helper(self):
        sweep = CriterionSweep([0.2, 0.4], {"a": [0.9, 0.8], "b": [0.5, 0.3]})
        assert sweep.gap("a", "b", 0.4) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            sweep.gap("a", "b", 0.99)


class TestRendering:
    def _sweep(self):
        return CriterionSweep([0.1, 0.5], {"attention": [1.0, 0.9], "random": [0.9, 0.4]})

    def test_render_series(self):
        text = render_series(self._sweep(), title="t")
        assert text.startswith("t\n")
        assert "attention" in text and "0.900" in text

    def test_to_csv(self):
        csv = to_csv(self._sweep())
        lines = csv.split("\n")
        assert lines[0] == "ratio,attention,random"
        assert lines[1].startswith("0.1,1.000000")
        assert len(lines) == 3

    def test_fig4_composition_chart(self):
        chart = fig4_composition({"VGG-IN100": (2.4, 52.1), "ResNet": (18.2, 19.2)})
        assert "VGG-IN100" in chart
        assert "54.5%" in chart  # 2.4 + 52.1
        assert "S" in chart and "C" in chart


class TestFig3Wrapper:
    def test_delegates_to_sensitivity(self, handle_and_loader):
        handle, loader = handle_and_loader
        result = fig3_series(handle, loader, ratios=[0.5], dimension="channel")
        assert set(result.curves) == set(range(5))


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        for argv in (["table1"], ["fig2"], ["fig3"], ["fig4"], ["quick"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_retired_bench_commands_rejected(self):
        # Serving speed is measured by perfbench/run.py alone.
        for command in ("bench-sparse", "bench-serve", "bench-adaptive", "bench-cascade"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command])
            assert excinfo.value.code == 2

    def test_retired_backend_rejected(self, capsys):
        # --backend choices are the registered engine backends.
        for command in ("serve", "trace"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([command, "--backend", "adaptive"])
            assert excinfo.value.code == 2
            assert "'procpool', 'sparse'" in capsys.readouterr().err
        assert build_parser().parse_args(["serve", "--backend", "sparse"]).backend == "sparse"

    def test_unknown_setting_errors(self, capsys):
        assert main(["table1", "--setting", "nope", "--fast"]) == 2
        assert "unknown setting" in capsys.readouterr().out

    def test_fig3_tolerance_flag(self):
        args = build_parser().parse_args(["fig3", "--tolerance", "0.3"])
        assert args.tolerance == 0.3

    def test_table1_all_flag(self):
        args = build_parser().parse_args(["table1", "--all", "--fast"])
        assert args.all and args.fast


class TestFig2SpatialDimension:
    def test_spatial_sweep_structure(self, handle_and_loader):
        handle, loader = handle_and_loader
        sweep = fig2_series(handle, loader, ratios=[0.4], dimension="spatial",
                            criteria=("attention",))
        assert sweep.accuracy["attention"]
        # Spatial ratios restored afterwards.
        for _, pruner in handle.pruners:
            assert pruner.spatial_ratio == 0.0

    def test_invalid_dimension(self, handle_and_loader):
        handle, loader = handle_and_loader
        with pytest.raises(ValueError):
            fig2_series(handle, loader, ratios=[0.4], dimension="depth")
