"""Tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from tests.conftest import smooth_field


@pytest.fixture
def field_file(tmp_path):
    path = tmp_path / "field.npy"
    np.save(path, smooth_field((20, 24)))
    return str(path)


class TestEstimate:
    def test_prints_table(self, field_file, capsys):
        assert main(["estimate", field_file, "--eb", "0.01", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "bits/pt" in out
        assert "0.01" in out

    def test_rel_mode(self, field_file, capsys):
        assert (
            main(
                [
                    "estimate",
                    field_file,
                    "--mode",
                    "rel",
                    "--eb",
                    "0.001",
                ]
            )
            == 0
        )
        assert "mode=rel" in capsys.readouterr().out


class TestCompressDecompress:
    def test_eb_roundtrip(self, field_file, tmp_path, capsys):
        blob = str(tmp_path / "x.rqsz")
        back = str(tmp_path / "back.npy")
        assert main(["compress", field_file, blob, "--eb", "0.01"]) == 0
        assert main(["decompress", blob, back]) == 0
        original = np.load(field_file)
        restored = np.load(back)
        assert restored.shape == original.shape
        assert np.max(np.abs(restored - original)) <= 0.01 * (1 + 1e-5)

    def test_flat_roundtrip_with_workers(self, tmp_path, capsys):
        src = str(tmp_path / "big.npy")
        np.save(src, smooth_field((40, 40)))
        blob = str(tmp_path / "x.rqsz")
        back = str(tmp_path / "back.npy")
        with pytest.raises(SystemExit):
            main(["compress", src, blob, "--eb", "0.01", "--chunk-size", "512"])
        assert (
            main(["compress", src, blob, "--eb", "0.01", "--workers", "2"])
            == 0
        )
        assert main(["decompress", blob, back, "--workers", "2"]) == 0
        original = np.load(src)
        restored = np.load(back)
        assert np.max(np.abs(restored - original)) <= 0.01 * (1 + 1e-5)
        with open(blob, "rb") as fh:
            assert fh.read()[4] == 7  # a flat array is a one-tile container

    def test_psnr_target(self, field_file, tmp_path, capsys):
        blob = str(tmp_path / "x.rqsz")
        assert main(["compress", field_file, blob, "--psnr", "60"]) == 0
        out = capsys.readouterr().out
        assert "model-selected error bound" in out

    def test_ratio_target(self, field_file, tmp_path, capsys):
        blob = str(tmp_path / "x.rqsz")
        assert main(["compress", field_file, blob, "--ratio", "5"]) == 0
        back = str(tmp_path / "b.npy")
        assert main(["decompress", blob, back]) == 0

    def test_targets_mutually_exclusive(self, field_file, tmp_path):
        blob = str(tmp_path / "x.rqsz")
        with pytest.raises(SystemExit):
            main(
                [
                    "compress",
                    field_file,
                    blob,
                    "--eb",
                    "0.01",
                    "--ratio",
                    "5",
                ]
            )


class TestSharedCodecFlags:
    """--predictor/--mode/--lossless come from one parent parser."""

    @pytest.mark.parametrize("command", ["estimate", "compress"])
    def test_flags_present_everywhere(self, command, field_file, tmp_path):
        from repro.cli import build_parser

        argv = [command, field_file, "--predictor", "interpolation",
                "--mode", "rel", "--lossless", "rle"]
        if command == "compress":
            argv[2:2] = [str(tmp_path / "x.rqsz")]
            argv += ["--eb", "0.01"]
        else:
            argv += ["--eb", "0.01"]
        args = build_parser().parse_args(argv)
        assert args.predictor == "interpolation"
        assert args.mode == "rel"
        assert args.lossless == "rle"

    def test_lossless_none_roundtrip(self, field_file, tmp_path, capsys):
        blob = str(tmp_path / "x.rqsz")
        back = str(tmp_path / "b.npy")
        assert (
            main(
                ["compress", field_file, blob, "--eb", "0.01",
                 "--lossless", "none"]
            )
            == 0
        )
        assert main(["decompress", blob, back]) == 0
        original = np.load(field_file)
        assert np.max(np.abs(np.load(back) - original)) <= 0.01 * (1 + 1e-5)


class TestTiledCli:
    def test_tile_compress_and_region_decode(self, tmp_path, capsys):
        src = str(tmp_path / "f.npy")
        data = smooth_field((30, 30))
        np.save(src, data)
        blob = str(tmp_path / "f.rqsz")
        roi_path = str(tmp_path / "roi.npy")
        assert (
            main(
                ["compress", src, blob, "--eb", "0.01",
                 "--tile", "12,12", "--workers", "2"]
            )
            == 0
        )
        assert "tiles" in capsys.readouterr().out
        with open(blob, "rb") as fh:
            assert fh.read()[4] == 7  # the tiled frame
        assert (
            main(["decompress", blob, roi_path, "--region", "5:20,25:"]) == 0
        )
        out = capsys.readouterr().out
        assert "tiles decoded" in out
        roi = np.load(roi_path)
        assert roi.shape == (15, 5)
        assert np.max(np.abs(roi - data[5:20, 25:])) <= 0.01 * (1 + 1e-5)

    def test_tiled_full_decompress(self, tmp_path, capsys):
        src = str(tmp_path / "f.npy")
        data = smooth_field((20, 20))
        np.save(src, data)
        blob = str(tmp_path / "f.rqsz")
        back = str(tmp_path / "b.npy")
        assert (
            main(["compress", src, blob, "--eb", "0.01", "--tile", "8,8"])
            == 0
        )
        assert main(["decompress", blob, back]) == 0
        assert np.max(np.abs(np.load(back) - data)) <= 0.01 * (1 + 1e-5)

    def test_region_decode_of_flat_blob(self, field_file, tmp_path, capsys):
        blob = str(tmp_path / "x.rqsz")
        roi_path = str(tmp_path / "roi.npy")
        main(["compress", field_file, blob, "--eb", "0.01"])
        assert (
            main(["decompress", blob, roi_path, "--region", "0:5"]) == 0
        )
        assert np.load(roi_path).shape == (5, 24)

    def test_inspect_shows_tile_map(self, tmp_path, capsys):
        src = str(tmp_path / "f.npy")
        np.save(src, smooth_field((20, 20)))
        blob = str(tmp_path / "f.rqsz")
        main(["compress", src, blob, "--eb", "0.01", "--tile", "10,10"])
        capsys.readouterr()
        assert main(["inspect", blob]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["container_version"] == 7
        assert header["tile_map"]["n_tiles"] == 4
        assert len(header["tile_map"]["tiles"]) == 4
        assert header["tile_shape"] == [10, 10]

    def test_bad_tile_and_region_specs(self, field_file, tmp_path):
        blob = str(tmp_path / "x.rqsz")
        with pytest.raises(SystemExit):
            main(["compress", field_file, blob, "--eb", "0.01",
                  "--tile", "0,8"])
        with pytest.raises(SystemExit):
            main(["compress", field_file, blob, "--eb", "0.01",
                  "--tile", "a,b"])
        main(["compress", field_file, blob, "--eb", "0.01"])
        with pytest.raises(SystemExit):
            main(["decompress", blob, str(tmp_path / "r.npy"),
                  "--region", "1:2:3"])

    def test_adaptive_compress_decompress_inspect(self, tmp_path, capsys):
        src = str(tmp_path / "f.npy")
        data = smooth_field((48, 48)) + 3.0 * smooth_field((48, 48), seed=9)
        np.save(src, data)
        blob = str(tmp_path / "f.rqsz")
        back = str(tmp_path / "b.npy")
        assert (
            main(["compress", src, blob, "--eb", "0.02",
                  "--tile", "16,16", "--adaptive"])
            == 0
        )
        out = capsys.readouterr().out
        assert "adaptive plan" in out
        with open(blob, "rb") as fh:
            assert fh.read()[4] == 7  # the tiled frame, with a palette
        assert main(["decompress", blob, back]) == 0
        assert np.load(back).shape == data.shape
        capsys.readouterr()
        assert main(["inspect", blob]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["container_version"] == 7
        assert header["adaptive"] is True
        adaptive = header["tile_map"]["adaptive"]
        assert sum(adaptive["predictor_counts"].values()) == 9
        assert adaptive["error_bound_max"] >= adaptive["error_bound_min"]
        for tile in header["tile_map"]["tiles"]:
            assert "config" in tile

    def test_adaptive_requires_tile_and_value_modes(self, field_file, tmp_path):
        blob = str(tmp_path / "x.rqsz")
        with pytest.raises(SystemExit):
            main(["compress", field_file, blob, "--eb", "0.01",
                  "--adaptive"])
        with pytest.raises(SystemExit):
            main(["compress", field_file, blob, "--eb", "0.01",
                  "--tile", "8,8", "--adaptive", "--mode", "pw_rel"])

    def test_fit_clusters_and_plan_cache_reach_the_planner(
        self, tmp_path, capsys
    ):
        src = str(tmp_path / "f.npy")
        # two clusters under the planner's default cap
        np.save(src, smooth_field((64, 64)) + 3.0 * smooth_field((64, 64), seed=9))
        plans = str(tmp_path / "plans.json")
        printed, decoded = [], []
        for run in range(2):
            blob = str(tmp_path / f"f{run}.rqsz")
            back = str(tmp_path / f"b{run}.npy")
            assert main(["compress", src, blob, "--eb", "0.02", "--adaptive",
                         "--tile", "32,32", "--fit-clusters", "1",
                         "--plan-cache", plans]) == 0
            printed.append(capsys.readouterr().out)
            assert main(["inspect", blob, "--json"]) == 0
            header = json.loads(capsys.readouterr().out)
            assert header["planner_stats"]["clusters"] <= 1
            assert main(["decompress", blob, back]) == 0
            decoded.append(np.load(back))
        assert "cache miss" in printed[0]
        assert "cache hit" in printed[1]
        np.testing.assert_array_equal(*decoded)

    def test_parallel_decode_equals_serial(self, tmp_path, capsys):
        src = str(tmp_path / "f.npy")
        np.save(src, smooth_field((40, 40)))
        blob = str(tmp_path / "f.rqsz")
        main(["compress", src, blob, "--eb", "0.01", "--tile", "8,8"])
        parallel = ["--workers", "2", "--backend", "thread"]
        outputs = {}
        for name, flags in [
            ("serial", []),
            ("thread", parallel),
            ("roi", ["--region", "3:30,5:"] + parallel),
        ]:
            outputs[name] = str(tmp_path / f"{name}.npy")
            assert main(["decompress", blob, outputs[name]] + flags) == 0
        serial = np.load(outputs["serial"])
        np.testing.assert_array_equal(np.load(outputs["thread"]), serial)
        np.testing.assert_array_equal(np.load(outputs["roi"]), serial[3:30, 5:])


class TestInspect:
    def test_header_json(self, field_file, tmp_path, capsys):
        blob = str(tmp_path / "x.rqsz")
        main(["compress", field_file, blob, "--eb", "0.01"])
        capsys.readouterr()
        assert main(["inspect", blob]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["predictor"] == "lorenzo"
        assert header["tile_map"]["n_tiles"] == 1

    def test_flat_header_json(self, capsys):
        data_dir = os.path.join(os.path.dirname(__file__), "data")
        assert main(["inspect", os.path.join(data_dir, "seed_v2_zstd.rqsz")]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["container_version"] == 2
        assert header["section_bytes"]["codes"] > 0

    def test_json_flag_is_single_line_machine_output(
        self, tmp_path, capsys
    ):
        src = str(tmp_path / "f.npy")
        np.save(src, smooth_field((20, 20)))
        blob = str(tmp_path / "f.rqsz")
        main(["compress", src, blob, "--eb", "0.01", "--tile", "10,10"])
        capsys.readouterr()
        assert main(["inspect", blob, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # one compact document
        header = json.loads(out)
        assert header["container_version"] == 7
        assert header["tile_map"]["n_tiles"] == 4

    def test_inspect_non_container_clean_error(self, tmp_path):
        bogus = tmp_path / "not.rqsz"
        bogus.write_bytes(b"garbage bytes")
        with pytest.raises(SystemExit, match="cannot inspect"):
            main(["inspect", str(bogus)])

    def test_inspect_missing_file_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["inspect", str(tmp_path / "missing.rqsz")])


class TestCleanConfigErrors:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["compress", "{src}", "{blob}", "--eb", "inf"], "got inf"),
            (["compress", "{src}", "{blob}", "--eb", "-1"], "got -1.0"),
            (
                ["compress", "{src}", "{blob}", "--eb", "0.01",
                 "--tile", "8,8,8"],
                "tile shape (8, 8, 8)",
            ),
            (["compress", "{src}", "{blob}", "--ratio", "-3"], "got -3.0"),
            (["estimate", "{src}", "--eb", "-1"], "got -1.0"),
        ],
    )
    def test_one_line_exit_naming_the_value(
        self, argv, named, field_file, tmp_path
    ):
        blob = str(tmp_path / "x.rqsz")
        argv = [a.format(src=field_file, blob=blob) for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        message = str(err.value)
        assert message.startswith(f"cannot {argv[0]} {field_file}: ")
        assert named in message
        assert "\n" not in message
        assert not os.path.exists(blob)


class TestCleanDecompressErrors:
    def test_region_on_non_container_clean_error(self, tmp_path):
        bogus = tmp_path / "not.rqsz"
        bogus.write_bytes(b"garbage bytes")
        with pytest.raises(SystemExit) as err:
            main(["decompress", str(bogus), str(tmp_path / "o.npy"),
                  "--region", "0:4"])
        assert "cannot decode region" in str(err.value)

    def test_region_rank_mismatch_clean_error(
        self, field_file, tmp_path
    ):
        blob = str(tmp_path / "x.rqsz")
        main(["compress", field_file, blob, "--eb", "0.01"])
        with pytest.raises(SystemExit) as err:
            main(["decompress", blob, str(tmp_path / "o.npy"),
                  "--region", "0:4,0:4,0:4"])
        assert "cannot decode region" in str(err.value)

    def test_decompress_missing_file_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["decompress", str(tmp_path / "missing.rqsz"),
                  str(tmp_path / "o.npy")])

    def test_decompress_corrupt_clean_error(self, tmp_path):
        bogus = tmp_path / "not.rqsz"
        bogus.write_bytes(b"garbage bytes")
        with pytest.raises(SystemExit, match="cannot decompress"):
            main(["decompress", str(bogus), str(tmp_path / "o.npy")])


class TestRemoteCommands:
    @pytest.fixture
    def served(self, tmp_path):
        from repro.service import ArrayServer, ArrayStore

        store = ArrayStore(tmp_path / "store")
        server = ArrayServer(store)
        server.serve_in_background()
        try:
            yield server.url
        finally:
            server.shutdown()
            server.server_close()
            store.close()

    def test_remote_put_read_stat_roundtrip(
        self, served, field_file, tmp_path, capsys
    ):
        out_path = str(tmp_path / "roi.npy")
        assert (
            main(["remote-put", served, "press", field_file,
                  "--eb", "0.01", "--tile", "10,12"])
            == 0
        )
        assert "tiles" in capsys.readouterr().out
        assert (
            main(["remote-read", served, "press", out_path,
                  "--region", "0:10,0:12"])
            == 0
        )
        assert "1 tiles" in capsys.readouterr().out
        roi = np.load(out_path)
        original = np.load(field_file)
        assert roi.shape == (10, 12)
        assert np.max(np.abs(roi - original[0:10, 0:12])) <= 0.01 * (
            1 + 1e-5
        )
        assert main(["remote-stat", served, "press", "--json"]) == 0
        stat = json.loads(capsys.readouterr().out)
        assert stat["container"]["container_version"] == 7

    def test_remote_read_full_default(
        self, served, field_file, tmp_path, capsys
    ):
        out_path = str(tmp_path / "full.npy")
        main(["remote-put", served, "press", field_file, "--eb", "0.01"])
        capsys.readouterr()
        assert main(["remote-read", served, "press", out_path]) == 0
        assert np.load(out_path).shape == np.load(field_file).shape

    def test_remote_errors_are_clean(self, served, tmp_path):
        with pytest.raises(SystemExit, match="server error"):
            main(["remote-read", served, "ghost",
                  str(tmp_path / "o.npy")])
        with pytest.raises(SystemExit, match="cannot reach server"):
            main(["remote-stat", "http://127.0.0.1:1", "x"])

    def test_damaged_response_is_a_clean_exit(
        self, field_file, tmp_path
    ):
        # http.client.IncompleteRead is neither ServiceError nor
        # OSError: it used to escape _remote_call as a traceback
        from repro.service import ArrayServer, ArrayStore
        from tests.service.test_faults import _ScriptedInjector

        injector = _ScriptedInjector([])
        store = ArrayStore(tmp_path / "store")
        server = ArrayServer(store, faults=injector)
        server.serve_in_background()
        try:
            main(["remote-put", server.url, "press", field_file,
                  "--eb", "0.01"])
            injector._script.append(("truncate",))
            with pytest.raises(
                SystemExit, match="cannot reach server: IncompleteRead"
            ):
                main(["remote-read", server.url, "press",
                      str(tmp_path / "o.npy")])
        finally:
            server.shutdown()
            server.server_close()
            store.close()

    def test_not_a_url_is_a_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit, match="not an http"):
            main(["remote-stat", "127.0.0.1:8765", "x"])

    def test_remote_snapshot_chain_and_versioned_read(
        self, served, tmp_path, capsys
    ):
        base = smooth_field((20, 24), seed=3).astype(np.float64)
        paths = []
        for i in range(3):
            path = tmp_path / f"snap{i}.npy"
            np.save(path, base + 0.01 * i)
            paths.append(str(path))
        for i, path in enumerate(paths):
            assert (
                main(["remote-put", served, "wave", path,
                      "--eb", "0.001", "--tile", "10,12",
                      "--snapshot", "--keyframe-interval", "4"])
                == 0
            )
            out = capsys.readouterr().out
            assert f"v{i}" in out
            assert ("keyframe" in out) == (i == 0)
        out_path = str(tmp_path / "v1.npy")
        assert (
            main(["remote-read", served, "wave", out_path,
                  "--version", "1"])
            == 0
        )
        assert "v1" in capsys.readouterr().out
        roi = np.load(out_path)
        expected = np.load(paths[1])
        assert np.max(np.abs(roi - expected)) <= 0.001 * (1 + 1e-5)

    def test_remote_time_range_read(self, served, tmp_path, capsys):
        base = smooth_field((20, 24), seed=3).astype(np.float64)
        for i in range(3):
            path = tmp_path / f"snap{i}.npy"
            np.save(path, base + 0.01 * i)
            main(["remote-put", served, "wave", str(path),
                  "--eb", "0.001", "--tile", "10,12", "--snapshot"])
        capsys.readouterr()
        out_path = str(tmp_path / "series.npy")
        assert (
            main(["remote-read", served, "wave", out_path,
                  "--region", "0:10,0:12", "--time-range", "0:2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "versions 0:2" in out
        assert "chain depth" in out
        series = np.load(out_path)
        assert series.shape == (3, 10, 12)

    def test_remote_snapshot_flag_validation(
        self, served, field_file, tmp_path
    ):
        with pytest.raises(SystemExit, match="requires --snapshot"):
            main(["remote-put", served, "wave", field_file,
                  "--eb", "0.001", "--keyframe-interval", "4"])
        with pytest.raises(SystemExit, match="drop --adaptive"):
            main(["remote-put", served, "wave", field_file,
                  "--eb", "0.001", "--tile", "10,12",
                  "--snapshot", "--adaptive"])
        with pytest.raises(SystemExit, match="invalid time range"):
            main(["remote-read", served, "wave",
                  str(tmp_path / "o.npy"), "--time-range", "zz"])


class TestDatasetsAndGenerate:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "RTM" in out and "CESM" in out

    def test_generate(self, tmp_path, capsys):
        out_path = str(tmp_path / "g.npy")
        assert (
            main(
                [
                    "generate",
                    "CESM",
                    "TS",
                    out_path,
                    "--scale",
                    "0.1",
                ]
            )
            == 0
        )
        data = np.load(out_path)
        assert data.dtype == np.float32
        assert data.ndim == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["nope"])
