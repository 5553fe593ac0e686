"""Tests for CompressionConfig and error-bound modes."""

import itertools
import json
from dataclasses import fields
from urllib.parse import parse_qs, urlencode

import numpy as np
import pytest

from repro.compressor.config import (
    CONFIG_TEXT,
    CompressionConfig,
    ErrorBoundMode,
    format_config_text,
    parse_config_text,
)


class TestValidation:
    def test_defaults_valid(self):
        cfg = CompressionConfig()
        assert cfg.predictor == "lorenzo"
        assert cfg.mode is ErrorBoundMode.ABS

    def test_unknown_predictor(self):
        with pytest.raises(ValueError):
            CompressionConfig(predictor="spline")

    def test_unknown_lossless(self):
        with pytest.raises(ValueError):
            CompressionConfig(lossless="zstd")

    def test_nonpositive_bound(self):
        with pytest.raises(ValueError):
            CompressionConfig(error_bound=0.0)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_bound(self, bound):
        # inf quantizes everything to one bin and decodes to all NaN
        with pytest.raises(ValueError, match="error_bound"):
            CompressionConfig(error_bound=bound)

    def test_mode_type_checked(self):
        with pytest.raises(TypeError):
            CompressionConfig(mode="abs")

    def test_invalid_lorenzo_levels(self):
        with pytest.raises(ValueError):
            CompressionConfig(lorenzo_levels=3)

    def test_invalid_regression_block(self):
        with pytest.raises(ValueError):
            CompressionConfig(regression_block=1)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            CompressionConfig(quant_radius=1)


class TestAbsoluteBound:
    def test_abs_mode_passthrough(self):
        cfg = CompressionConfig(mode=ErrorBoundMode.ABS, error_bound=0.5)
        assert cfg.absolute_bound(np.array([0.0, 100.0])) == 0.5

    def test_rel_mode_scales_by_range(self):
        cfg = CompressionConfig(mode=ErrorBoundMode.REL, error_bound=1e-2)
        data = np.array([-5.0, 15.0])
        assert cfg.absolute_bound(data) == pytest.approx(0.2)

    def test_pw_rel_log_bound(self):
        cfg = CompressionConfig(mode=ErrorBoundMode.PW_REL, error_bound=0.1)
        bound = cfg.absolute_bound(np.array([1.0, 2.0]))
        assert bound == pytest.approx(np.log1p(0.1))


class TestCopies:
    def test_with_error_bound(self):
        cfg = CompressionConfig(error_bound=1.0)
        new = cfg.with_error_bound(2.0)
        assert new.error_bound == 2.0
        assert cfg.error_bound == 1.0
        assert new.predictor == cfg.predictor

    def test_with_predictor(self):
        cfg = CompressionConfig()
        new = cfg.with_predictor("interpolation")
        assert new.predictor == "interpolation"
        assert cfg.predictor == "lorenzo"

    def test_frozen(self):
        cfg = CompressionConfig()
        with pytest.raises(Exception):
            cfg.error_bound = 5.0  # type: ignore[misc]


def _combinations():
    """Every valid predictor x mode x lossless x tile x adaptive config."""
    for predictor, mode, lossless, tile, adaptive in itertools.product(
        CompressionConfig._KNOWN_PREDICTORS,
        ErrorBoundMode,
        CompressionConfig._KNOWN_LOSSLESS,
        (None, (7,), (16, 8)),
        (False, True),
    ):
        try:
            yield CompressionConfig(
                predictor=predictor,
                mode=mode,
                error_bound=0.1 / 3,
                lossless=lossless,
                tile_shape=tile,
                adaptive=adaptive,
            )
        except ValueError:
            continue  # adaptive PW_REL


class TestTextSpelling:
    def test_every_valid_config_round_trips(self):
        configs = list(_combinations())
        # 3 predictors x 3 lossless+None x 3 tiles x (3 modes + 2 adaptive)
        assert len(configs) == 3 * 4 * 3 * 5
        for config in configs:
            text = format_config_text(
                **{
                    name: getattr(config, spelling.field)
                    for name, spelling in CONFIG_TEXT.items()
                }
            )
            assert all(isinstance(v, str) for v in text.values())
            assert parse_config_text(text) == config

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_query_of_the_earlier_client_still_parses(self, adaptive):
        # spelled exactly as ArrayClient.put spelled it before the shared
        # table: eb=repr(float), lossless=none, adaptive=0/1, tile=16,16
        query = urlencode(
            {
                "eb": repr(float(1e-3)),
                "predictor": "interpolation",
                "mode": "rel",
                "lossless": "none",
                "adaptive": int(adaptive),
                "overwrite": 0,
                "token": "0123abcd",
                "tile": ",".join(str(int(t)) for t in (16, 16)),
            }
        )
        parsed = {k: v[-1] for k, v in parse_qs(query).items()}
        assert parse_config_text(parsed) == CompressionConfig(
            predictor="interpolation",
            mode=ErrorBoundMode.REL,
            error_bound=1e-3,
            lossless=None,
            tile_shape=(16, 16),
            adaptive=adaptive,
        )

    def test_library_values_and_text_format_alike(self):
        assert format_config_text(
            mode=ErrorBoundMode.PW_REL, lossless=None, tile=None
        ) == format_config_text(mode="pw_rel", lossless="none")
        assert format_config_text(tile=[4, 5], adaptive=True) == {
            "tile": "4,5",
            "adaptive": "1",
        }

    def test_format_does_not_validate(self):
        # a bad value reaches the parser, which names it
        text = format_config_text(eb=float("inf"), predictor="spline")
        assert text == {"eb": "inf", "predictor": "spline"}
        with pytest.raises(ValueError, match="'spline'"):
            parse_config_text(text)
        with pytest.raises(ValueError, match="got inf"):
            parse_config_text(format_config_text(eb=float("inf")))

    @pytest.mark.parametrize(
        "text, named",
        [
            ({"eb": "x1"}, "'x1'"),
            ({"eb": "-1"}, "-1.0"),
            ({"mode": "relative"}, "'relative'"),
            ({"lossless": "None"}, "'None'"),
            ({"tile": "8,a"}, "'8,a'"),
            ({"tile": "0,8"}, "(0, 8)"),
            ({"adaptive": "maybe"}, "'maybe'"),
        ],
    )
    def test_refusals_name_the_value(self, text, named):
        with pytest.raises(ValueError) as err:
            parse_config_text(text)
        assert named in str(err.value)

    def test_choices_are_what_parses(self):
        for name in ("predictor", "mode", "lossless"):
            for choice in CONFIG_TEXT[name].choices:
                parse_config_text({name: choice})
        assert parse_config_text({"lossless": "none"}).lossless is None

    def test_unset_names_keep_the_defaults(self):
        assert parse_config_text(
            {"predictor": None, "overwrite": "1"}
        ) == CompressionConfig()


class TestJson:
    def test_every_field_json_spelled(self):
        config = CompressionConfig(
            mode=ErrorBoundMode.REL, lossless=None, tile_shape=(4, 4)
        )
        record = config.to_json()
        assert list(record) == [f.name for f in fields(CompressionConfig)]
        assert record["mode"] == "rel"
        assert record["lossless"] is None
        assert record["tile_shape"] == [4, 4]
        assert json.loads(json.dumps(record)) == record
        assert CompressionConfig().to_json()["tile_shape"] is None
