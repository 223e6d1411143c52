import json

import numpy as np
import pytest

from dppcluster import (
    ConsensusMatrix,
    accumulate,
    CsvFormatError,
    Partition,
    PipelineConfig,
    RngStream,
    ScenarioSpec,
    generate_mixture_fixed,
    run_pipeline,
)
from dppcluster.io import (
    read_data_csv,
    read_labels_csv,
    render_report_text,
    save_dataset,
    write_consensus_csv,
    write_rows_csv,
)


class TestReadDataCsv:
    def test_comma_no_header(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1.5,2\n3,4.25\n")
        x = read_data_csv(f)
        assert np.array_equal(x, np.array([[1.5, 2.0], [3.0, 4.25]]))

    def test_semicolon_detected(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1;2\n3;4\n")
        assert read_data_csv(f).shape == (2, 2)

    def test_tab_detected(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1\t2\n3\t4\n")
        assert read_data_csv(f).shape == (2, 2)

    def test_header_auto_detected(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,y\n1,2\n3,4\n")
        x = read_data_csv(f)
        assert x.shape == (2, 2)
        assert x[0, 0] == 1.0

    def test_header_forced_off(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1,2\n3,4\n")
        assert read_data_csv(f).shape == (2, 2)

    def test_non_numeric_cell_fatal_with_coordinates(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvFormatError) as err:
            read_data_csv(f)
        assert err.value.row == 2
        assert err.value.col == 2

    def test_ragged_row_fatal(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(CsvFormatError):
            read_data_csv(f)

    def test_empty_file_fatal(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("\n\n")
        with pytest.raises(CsvFormatError):
            read_data_csv(f)

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # a UTF-8 BOM before "1" must not make the first row a header
        f = tmp_path / "a.csv"
        f.write_bytes("\ufeff1,2\n3,4\n5,6".encode("utf-8"))
        assert np.array_equal(read_data_csv(f), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


class TestReadLabelsCsv:
    def test_integer_labels(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("0\n0\n1\n")
        assert read_labels_csv(f).tolist() == [0, 0, 1]

    def test_string_labels_encoded_by_first_appearance(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("setosa\nversicolor\nsetosa\n")
        assert read_labels_csv(f).tolist() == [0, 1, 0]

    def test_header_skipped(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("label\n1\n2\n")
        assert read_labels_csv(f).tolist() == [0, 1]

    def test_byte_order_mark_keeps_the_first_label(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_bytes("\ufeff0\n0\n1".encode("utf-8"))
        assert read_labels_csv(f).tolist() == [0, 0, 1]


class TestConsensusExport:
    def test_six_significant_digits(self, tmp_path):
        c = ConsensusMatrix(np.array([[3, 1], [1, 3]]), 3)
        out = tmp_path / "c.csv"
        write_consensus_csv(c, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "1,0.333333"
        assert lines[1] == "0.333333,1"

    def test_bytes_match_dense_proportions(self, tmp_path):
        # the rows of counts / runs, in the format of a dense float64 export
        rng = np.random.default_rng(3)
        c = accumulate([Partition(rng.integers(0, 4, size=30), 4) for _ in range(7)], 30)
        out = tmp_path / "c.csv"
        write_consensus_csv(c, out)
        dense = "".join(",".join(f"{v:.6g}" for v in row) + "\n" for row in c.entries)
        assert out.read_bytes() == dense.encode()
        assert "0.142857" in dense


class TestDatasetRoundTrip:
    def test_save_load(self, tmp_path):
        ds = generate_mixture_fixed(50, 2, 2, RngStream(0, 0), max_pairwise_overlap=0.05)
        save_dataset(ds, tmp_path / "d", scenario=ScenarioSpec(150, "low", "low"), seed=0)
        x = read_data_csv(tmp_path / "d" / "features.csv")
        labels = read_labels_csv(tmp_path / "d" / "labels.csv")
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        assert np.allclose(x, ds.data)
        # labels are re-encoded by first appearance; structure must agree
        from dppcluster import ari

        assert ari(labels, ds.true_labels) == 1.0
        assert meta["n"] == 50
        assert meta["scenario"]["id"] == "n150-plow-klow"


class TestReportRendering:
    def test_text_and_json(self, blob_data):
        x, truth = blob_data
        from dppcluster import ConsensusConfig

        report = run_pipeline(
            x, PipelineConfig(seed=1, consensus=ConsensusConfig(runs=20)), truth=truth
        )
        text = render_report_text(report)
        assert "chosen" in text
        assert "ARI" in text
        payload = json.loads(report.to_json())
        assert payload["k_hat"] == report.k_hat
        assert len(payload["labels"]) == report.n
        assert payload["metrics"]["ari"] == report.ari
        # keys are sorted for byte-stable serialization
        assert list(payload) == sorted(payload)


def test_write_rows_csv(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    out = tmp_path / "rows.csv"
    write_rows_csv(rows, out)
    assert out.read_text().splitlines() == ["a,b", "1,x", "2,y"]
